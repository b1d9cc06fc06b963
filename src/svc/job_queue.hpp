// JobQueue<T>: the bounded FIFO between job producers and the service
// workers.
//
// The serve loop runs a reader that parses job lines as they arrive,
// executor threads that run them, and a writer that emits result lines; a
// JobQueue sits between each stage. pop() blocks until an item or close();
// push() blocks while the queue holds `capacity` items, so a stage that
// falls behind stalls the one feeding it instead of letting the queue grow
// (a client that stops reading results stalls the workers, which stall the
// reader). close() drains — already-queued items are still delivered,
// matching an EOF on stdin that must not drop submitted jobs. Library users
// can drive svc::Service directly and skip the queue entirely.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <limits>
#include <mutex>
#include <utility>

namespace svsim::svc {

template <typename T>
class JobQueue {
 public:
  /// A queue holding at most `capacity` (>= 1) items; the default is
  /// unbounded.
  explicit JobQueue(
      std::size_t capacity = std::numeric_limits<std::size_t>::max())
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Enqueues one item, blocking while the queue is full. No-op after
  /// close() (the producer lost the race with shutdown; the item is
  /// dropped, mirroring a closed socket) — including a push blocked when
  /// close() is called.
  void push(T item) {
    {
      std::unique_lock lock(mutex_);
      space_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
      if (closed_) return;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
  }

  /// Blocks for the next item. Returns false — and leaves `out` untouched —
  /// once the queue is closed and drained.
  bool pop(T& out) {
    {
      std::unique_lock lock(mutex_);
      ready_.wait(lock, [&] { return !items_.empty() || closed_; });
      if (items_.empty()) return false;
      out = std::move(items_.front());
      items_.pop_front();
    }
    space_.notify_one();
    return true;
  }

  /// Marks the end of input; queued items still drain through pop().
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
    space_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::condition_variable space_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace svsim::svc
