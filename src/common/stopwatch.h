#ifndef CARDBENCH_COMMON_STOPWATCH_H_
#define CARDBENCH_COMMON_STOPWATCH_H_

#include <chrono>

namespace cardbench {

/// Monotonic wall-clock stopwatch used to time planning, inference,
/// training and execution phases. Starts running on construction.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch from zero.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time in seconds since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed time in microseconds.
  double ElapsedMicros() const { return ElapsedSeconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace cardbench

#endif  // CARDBENCH_COMMON_STOPWATCH_H_
