// Bounded blocking queue — the backpressure primitive of the streaming
// ingest pipeline (haystack::pipeline).
//
// A mutex+condvar ring usable MPSC or MPMC. push() blocks while the queue
// is full, so backpressure propagates upstream stage by stage until the
// datagram producer itself slows down; pop()/pop_wave() block while the
// queue is empty. close() starts the drain-then-stop protocol: new pushes
// are refused, consumers keep draining until the queue is empty and then
// see end-of-stream (nullopt / 0). reopen() supports restart-after-drain.
//
// Hand-offs are meant to be per wave, not per item: a stage that produced
// several items in one wave passes them with push_many(), which takes the
// lock once and wakes a sleeping consumer once per call (once per
// room-wait when the wave does not fit). A per-item push() against a
// consumer that is faster than its producer turns every item into a
// futex wake, which costs about as much as the item's own work.
//
// Every queue keeps its own telemetry::StageStats (depth, throughput,
// producer/consumer stalls, adaptive-batch waves) so a deployment can see
// exactly which stage is the bottleneck. A queue may additionally carry an
// obs::FlightRecorder: each producer stall then lands as a
// kBackpressureStall event (source = stage tag, a = depth at stall), so a
// post-mortem dump shows *which* stage pushed back and when.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "telemetry/counters.hpp"

namespace haystack::pipeline {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity,
                        obs::FlightRecorder* recorder = nullptr,
                        std::uint32_t stage_tag = 0)
      : capacity_{std::max<std::size_t>(1, capacity)},
        recorder_{recorder},
        stage_tag_{stage_tag} {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full (backpressure). Returns false — and
  /// drops the item — when the queue is closed.
  bool push(T item) { return push_many(std::span<T>{&item, 1}) == 1; }

  /// Pushes `items` in order, moving from them. Items go in under one
  /// lock acquisition as far as room allows; when the queue fills, the
  /// consumer is woken once for what went in and the call blocks for
  /// room (one producer stall per wait), then continues. Returns the
  /// number of leading items accepted: fewer than items.size() means the
  /// queue was closed, and the rest were dropped untouched. An accepted
  /// item is delivered exactly once, like one accepted by push().
  std::size_t push_many(std::span<T> items) {
    std::size_t done = 0;
    std::unique_lock lock{mu_};
    while (done < items.size()) {
      if (items_.size() >= capacity_ && !closed_) {
        ++stats_.producer_stalls;
        if (recorder_ != nullptr) {
          recorder_->record(obs::EventKind::kBackpressureStall, stage_tag_,
                            items_.size());
        }
        not_full_.wait(lock,
                       [&] { return items_.size() < capacity_ || closed_; });
      }
      if (closed_) break;
      const std::size_t n =
          std::min(items.size() - done, capacity_ - items_.size());
      for (std::size_t i = 0; i < n; ++i) {
        items_.push_back(std::move(items[done + i]));
      }
      done += n;
      stats_.enqueued += n;
      stats_.max_depth = std::max(stats_.max_depth, items_.size());
      // One wake per batch of items; notify_all so that with several
      // consumers each can claim part of it.
      not_empty_.notify_all();
    }
    return done;
  }

  /// Blocks while the queue is empty. nullopt means closed and fully
  /// drained — end of stream.
  std::optional<T> pop() {
    std::unique_lock lock{mu_};
    if (items_.empty() && !closed_) {
      ++stats_.consumer_stalls;
      not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    }
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    ++stats_.dequeued;
    not_full_.notify_one();
    return item;
  }

  /// Adaptive batching: blocks for the first item, then claims whatever
  /// else is already queued, up to `max` items, in one critical section.
  /// Returns the number of items appended to `out`; 0 means closed and
  /// fully drained.
  std::size_t pop_wave(std::vector<T>& out, std::size_t max) {
    std::unique_lock lock{mu_};
    if (items_.empty() && !closed_) {
      ++stats_.consumer_stalls;
      not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    }
    const std::size_t n = std::min(std::max<std::size_t>(1, max),
                                   items_.size());
    for (std::size_t i = 0; i < n; ++i) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
    }
    if (n > 0) {
      stats_.dequeued += n;
      ++stats_.waves;
      not_full_.notify_all();
    }
    return n;
  }

  /// Refuse new pushes; wake everyone. Consumers drain what remains.
  void close() {
    std::lock_guard lock{mu_};
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Reopens a closed queue (restart-after-drain). Counters survive.
  void reopen() {
    std::lock_guard lock{mu_};
    closed_ = false;
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock{mu_};
    return closed_;
  }

  [[nodiscard]] std::size_t depth() const {
    std::lock_guard lock{mu_};
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] telemetry::StageStats stats() const {
    std::lock_guard lock{mu_};
    telemetry::StageStats s = stats_;
    s.depth = items_.size();
    s.capacity = capacity_;
    // Per-queue the summed high-water IS the high-water; aggregation via
    // operator+= then keeps the sum and the max as distinct quantities.
    s.high_water_sum = s.max_depth;
    return s;
  }

 private:
  const std::size_t capacity_;
  obs::FlightRecorder* const recorder_;
  const std::uint32_t stage_tag_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
  telemetry::StageStats stats_;  // depth/capacity filled at snapshot time
};

}  // namespace haystack::pipeline
