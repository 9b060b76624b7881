// Clock abstraction: production code uses WallClock; schedulers and tests
// use ManualClock so time-dependent logic is deterministic and fast.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace qcenv::common {

/// Monotonic time point in nanoseconds since an arbitrary epoch.
using TimeNs = std::int64_t;
/// Duration in nanoseconds.
using DurationNs = std::int64_t;

constexpr DurationNs kMicrosecond = 1'000;
constexpr DurationNs kMillisecond = 1'000'000;
constexpr DurationNs kSecond = 1'000'000'000;

constexpr double to_seconds(DurationNs ns) {
  return static_cast<double>(ns) / 1e9;
}
constexpr DurationNs from_seconds(double s) {
  return static_cast<DurationNs>(s * 1e9);
}
constexpr DurationNs from_millis(double ms) {
  return static_cast<DurationNs>(ms * 1e6);
}

/// Abstract monotonic clock. sleep_until must be interruptible by
/// ManualClock::advance (so virtual-time components never stall).
class Clock {
 public:
  virtual ~Clock() = default;
  virtual TimeNs now() const = 0;
  virtual void sleep_for(DurationNs duration) = 0;
};

/// Real monotonic clock backed by std::chrono::steady_clock.
class WallClock final : public Clock {
 public:
  TimeNs now() const override {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  void sleep_for(DurationNs duration) override {
    if (duration <= 0) return;
    std::this_thread::sleep_for(std::chrono::nanoseconds(duration));
  }
};

/// Manually advanced clock for tests and discrete-event simulation.
/// sleep_for blocks the calling thread until another thread advances the
/// clock past the deadline (or returns immediately in single-threaded use
/// when `auto_advance` is enabled).
class ManualClock final : public Clock {
 public:
  explicit ManualClock(TimeNs start = 0, bool auto_advance = true)
      : now_(start), auto_advance_(auto_advance) {}

  TimeNs now() const override { return now_.load(std::memory_order_acquire); }

  void sleep_for(DurationNs duration) override {
    if (duration <= 0) return;
    if (auto_advance_.load(std::memory_order_acquire)) {
      advance(duration);
      return;
    }
    std::unique_lock lock(mutex_);
    const TimeNs deadline = now_.load(std::memory_order_acquire) + duration;
    cv_.wait(lock, [&] {
      return now_.load(std::memory_order_acquire) >= deadline ||
             auto_advance_.load(std::memory_order_acquire);
    });
  }

  /// Switches auto-advance at run time. Off: only advance()/advance_to()/
  /// set() move time, so a caller that paces the clock is the sole source
  /// of virtual time while threads block in sleep_for. Turning it back on
  /// releases every blocked sleeper at once (threads that must be joined
  /// can then run to completion with nobody advancing the clock).
  void set_auto_advance(bool on) {
    {
      std::scoped_lock lock(mutex_);
      auto_advance_.store(on, std::memory_order_release);
    }
    cv_.notify_all();
  }

  /// Moves time forward and wakes sleepers.
  void advance(DurationNs delta) {
    {
      std::scoped_lock lock(mutex_);
      now_.fetch_add(delta, std::memory_order_acq_rel);
    }
    cv_.notify_all();
  }

  /// Monotonic catch-up: moves time forward to `t` if (and only if) it is
  /// ahead of now. Safe against concurrent advance() callers — a racing
  /// advance past `t` simply wins — which set() is not; simulation
  /// drivers use this to jump to the next scheduled event while worker
  /// threads nudge the clock through Clock::sleep_for.
  void advance_to(TimeNs t) {
    {
      std::scoped_lock lock(mutex_);
      if (t > now_.load(std::memory_order_acquire)) {
        now_.store(t, std::memory_order_release);
      }
    }
    cv_.notify_all();
  }

  /// Sets the absolute time (must not move backwards).
  void set(TimeNs t) {
    {
      std::scoped_lock lock(mutex_);
      now_.store(t, std::memory_order_release);
    }
    cv_.notify_all();
  }

 private:
  std::atomic<TimeNs> now_;
  std::atomic<bool> auto_advance_;
  std::mutex mutex_;
  std::condition_variable cv_;
};

}  // namespace qcenv::common
