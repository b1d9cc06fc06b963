// Cache-line/page aligned heap buffer with RAII ownership.
//
// State vectors are large (2^n * 16 bytes) streaming arrays; aligning them to
// at least the SIMD vector width keeps loads/stores aligned, and aligning to
// the page size makes first-touch NUMA placement deterministic when the
// buffer is initialized by the thread pool.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <type_traits>
#include <utility>

#include "common/error.hpp"

namespace svsim {

/// Default alignment: 256 bytes covers AVX-512/SVE-512 vectors and several
/// cache lines; large buffers additionally round their size up so realloc-free
/// vectorized tail handling is safe.
inline constexpr std::size_t kDefaultAlignment = 256;

/// Owning, aligned, non-resizable array of trivially-destructible T.
template <typename T>
class AlignedBuffer {
  static_assert(std::is_trivially_destructible_v<T>,
                "AlignedBuffer only supports trivially destructible types");

 public:
  AlignedBuffer() noexcept = default;

  /// Allocates `count` elements aligned to `alignment` bytes. Contents are
  /// uninitialized; callers are expected to initialize in parallel
  /// (first-touch). Throws std::bad_alloc on failure.
  explicit AlignedBuffer(std::size_t count,
                         std::size_t alignment = kDefaultAlignment)
      : size_(count) {
    if (count == 0) return;
    std::size_t bytes = count * sizeof(T);
    // std::aligned_alloc requires the size to be a multiple of the alignment.
    bytes = (bytes + alignment - 1) / alignment * alignment;
    data_ = static_cast<T*>(std::aligned_alloc(alignment, bytes));
    if (data_ == nullptr) throw std::bad_alloc{};
  }

  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}

  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      release();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ~AlignedBuffer() { release(); }

  T* data() noexcept { return data_; }
  const T* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  T& operator[](std::size_t i) noexcept { return data_[i]; }
  const T& operator[](std::size_t i) const noexcept { return data_[i]; }

  T* begin() noexcept { return data_; }
  T* end() noexcept { return data_ + size_; }
  const T* begin() const noexcept { return data_; }
  const T* end() const noexcept { return data_ + size_; }

 private:
  void release() noexcept {
    std::free(data_);
    data_ = nullptr;
    size_ = 0;
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Grow-only page-aligned storage that a long-lived owner lends to one
/// short-lived user at a time (a serve worker's state vector, job after
/// job). Pages it already holds stay mapped, so a reuse faults none in.
class LentBuffer {
 public:
  static constexpr std::size_t kAlignment = 4096;

  /// At least `bytes` bytes aligned to kAlignment; contents unspecified.
  /// Reallocates (dropping the old contents) only to grow.
  void* acquire(std::size_t bytes) {
    if (buf_.size() < bytes) {
      buf_ = AlignedBuffer<std::byte>();  // free before allocating
      buf_ = AlignedBuffer<std::byte>(bytes, kAlignment);
    }
    return buf_.data();
  }

  std::size_t capacity() const noexcept { return buf_.size(); }

 private:
  AlignedBuffer<std::byte> buf_;
};

}  // namespace svsim
