#include "sv/sweep.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace svsim::sv {

unsigned auto_block_qubits(unsigned num_qubits, std::uint64_t cache_bytes,
                           unsigned amp_bytes, unsigned min_free) {
  require(amp_bytes > 0, "auto_block_qubits: amp_bytes must be positive");
  unsigned b = 1;
  while (b + 1 <= 30 && (pow2(b + 1) * amp_bytes) <= cache_bytes) ++b;
  // Leave min_free qubits of blocks for the thread pool when possible.
  if (num_qubits > min_free) b = std::min(b, num_qubits - min_free);
  return std::max(1u, std::min(b, num_qubits));
}

}  // namespace svsim::sv
