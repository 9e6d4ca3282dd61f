// Monotonic wall-clock timing for benchmarks and engine statistics.
#pragma once

#include <chrono>
#include <cstdint>

namespace df::support {

/// Thin wrapper over steady_clock with second/millisecond/nanosecond views.
class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}

  void restart() { start_ = clock::now(); }

  std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             start_)
            .count());
  }
  double elapsed_ms() const {
    return static_cast<double>(elapsed_ns()) / 1e6;
  }
  double elapsed_s() const { return static_cast<double>(elapsed_ns()) / 1e9; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// A stopwatch for intervals too short and too many to time each one: a
/// steady_clock read costs about 45 ns, as much as a zero-grain module
/// call. start() times a random 1 in kEvery intervals (a per-instance
/// xorshift, so alternating kinds of interval are both sampled), and stop()
/// returns a timed interval's length times kEvery and 0 for the rest. The
/// sum of stop() over many intervals estimates their total while most of
/// them read no clock. One instance per thread.
class SampledStopwatch {
 public:
  static constexpr std::uint64_t kEvery = 16;

  explicit SampledStopwatch(std::uint64_t seed)
      : state_((seed + 1) * 0x9e3779b97f4a7c15ULL | 1) {}

  /// Starts an interval and draws whether it is timed.
  void start() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    timed_ = (state_ >> 60) == 0;
    if (timed_) {
      start_ns_ = now_ns();
    }
  }
  bool timed() const { return timed_; }
  /// The started interval's share of the estimate.
  std::uint64_t stop() const {
    return timed_ ? kEvery * (now_ns() - start_ns_) : 0;
  }

  /// steady_clock in nanoseconds, for sub-intervals of a timed interval
  /// (scale their lengths by kEvery too).
  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  std::uint64_t state_;
  std::uint64_t start_ns_ = 0;
  bool timed_ = false;
};

/// Spins for approximately `ns` nanoseconds of CPU time. Used by the
/// synthetic busy-work module to emulate "computations performed by the
/// vertices [that] take significantly more time than the computations
/// performed to maintain the data structures" (paper section 4).
inline std::uint64_t spin_for_ns(std::uint64_t ns) {
  // The accumulator is returned so the loop cannot be optimized away.
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t acc = 0xdeadbeefULL;
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    const auto now = std::chrono::steady_clock::now();
    if (static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - start)
                .count()) >= ns) {
      return acc;
    }
  }
}

}  // namespace df::support
