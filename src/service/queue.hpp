// Bounded MPMC admission queue.
//
// Admission control is load shedding, not back-pressure: `try_push`
// NEVER blocks — a full queue refuses the item immediately so the caller
// can return the typed kOverloaded rejection while the client still
// cares about the answer.  Consumers block in `pop_batch`, which hands
// back up to `max` items at once: everything a worker drains in one wake
// forms one batch, so batch size adapts to the instantaneous backlog (1
// under light load, `max` under pressure) and one wake-up serves them
// all.
//
// Shutdown contract: `close()` refuses further pushes but pops continue
// until the queue is drained — every admitted item is handed to exactly
// one consumer, then `pop_batch` returns false forever.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace p2auth::service {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

  // Admits `item` unless the queue is full or closed.  Returns false
  // without consuming `item` in either case; never blocks.
  bool try_push(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  // Blocks until at least one item is available (or the queue is closed
  // and drained), then moves up to `max` items into `out` (cleared
  // first).  Returns false only on closed-and-drained.
  bool pop_batch(std::size_t max, std::vector<T>& out) {
    out.clear();
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;  // closed and drained
    const std::size_t take = max == 0 ? 1 : std::min(max, items_.size());
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    return true;
  }

  // Refuses further pushes and wakes every blocked consumer.  Items
  // already admitted remain poppable until drained.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  std::size_t capacity() const noexcept { return capacity_; }
  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace p2auth::service
