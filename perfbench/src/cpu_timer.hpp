#pragma once
/// \file cpu_timer.hpp
/// CPU-time stopwatch for the whole process (every thread). The benchmark
/// times throughput in CPU seconds beside wall seconds: on a shared host the
/// wall clock also counts the time the scheduler gives other tenants, which
/// swings from run to run, while the CPU time a job spends stays with the
/// job's own work.

#include <ctime>

namespace perfbench {

class CpuTimer {
 public:
  CpuTimer() { restart(); }

  void restart() { start_ = now(); }

  /// CPU seconds this process has used since construction or restart().
  double seconds() const { return now() - start_; }

 private:
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
  }
  double start_ = 0.0;
};

}  // namespace perfbench
