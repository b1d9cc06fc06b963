#include "perf/report.hpp"

#include <gtest/gtest.h>

#include "qc/library.hpp"
#include "sv/plan.hpp"

namespace svsim::perf {
namespace {

/// Model of an unblocked QFT(18) plan on A64FX; `empty` models a register
/// with no gates (a plan with zero phases).
PlanCost sample_report(bool empty = false) {
  const qc::Circuit c = empty ? qc::Circuit(18) : qc::qft(18);
  return cost_plan(sv::compile_plan(c, {}), machine::MachineSpec::a64fx(),
                   {});
}

TEST(Report, SummaryHasOneRow) {
  const Table t = summary_table(sample_report());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_NE(t.to_text().find("A64FX"), std::string::npos);
}

TEST(Report, KernelBreakdownSharesSumToOne) {
  const Table t = kernel_breakdown_table(sample_report());
  EXPECT_GE(t.num_rows(), 2u);  // QFT uses h, mcphase, swap
  double total = 0.0;
  for (std::size_t i = 0; i < t.num_rows(); ++i)
    total += std::get<double>(t.row(i)[2]);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Report, BreakdownSortedDescending) {
  const Table t = kernel_breakdown_table(sample_report());
  for (std::size_t i = 1; i < t.num_rows(); ++i)
    EXPECT_GE(std::get<double>(t.row(i - 1)[1]),
              std::get<double>(t.row(i)[1]));
}

TEST(Report, TraceTableRespectsCap) {
  const Table t = trace_table(sample_report(), 10);
  EXPECT_EQ(t.num_rows(), 10u);
  const Table empty = trace_table(sample_report(/*empty=*/true), 10);
  EXPECT_EQ(empty.num_rows(), 0u);
}

TEST(Report, PowerTable) {
  const auto p = estimate_power(sample_report(), machine::MachineSpec::a64fx());
  const Table t = power_table({{"normal", p}});
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_GT(std::get<double>(t.row(0)[2]), 0.0);
}

}  // namespace
}  // namespace svsim::perf
