// Host fingerprint recorded with every result set, and the guard that
// refuses to time a build whose host times would measure instrumentation.
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <string>

namespace perfbench {

struct HostFingerprint {
  std::string cpu_model;
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string cxx_flags;
  std::string sanitizers;  // empty = none
  bool optimized = false;
};

HostFingerprint Fingerprint();

// Empty when the build is fit for timing, otherwise why it is not.
std::string UnfitForTiming(const HostFingerprint& host);

// CPU time this process has used so far, in seconds.
double ProcessCpuSeconds();

// Returns freed heap memory to the OS, so every repeat of a workload starts
// from the same trimmed heap instead of the previous run's leftovers.
void ReleaseFreeHeap();

// Peak resident set of this process so far, in MiB.
double PeakRssMiB();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
