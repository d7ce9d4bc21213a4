#include "host.h"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <fstream>
#include <thread>

#include "build_info.h"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

namespace perfbench {

HostFingerprint Fingerprint() {
  HostFingerprint host;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      host.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  if (host.cpu_model.empty()) {
    host.cpu_model = "unknown";
  }
  host.nproc = std::thread::hardware_concurrency();
  host.compiler = PERFBENCH_COMPILER;
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.cxx_flags = PERFBENCH_CXX_FLAGS;
  host.sanitizers = PERFBENCH_CHAOS_SANITIZE;
  if (host.cxx_flags.find("-fsanitize") != std::string::npos) {
    host.sanitizers += host.sanitizers.empty() ? "cxx_flags" : ",cxx_flags";
  }
#if defined(PERFBENCH_SANITIZED)
  if (host.sanitizers.empty()) {
    host.sanitizers = "compiler";
  }
#endif
#if defined(__OPTIMIZE__)
  host.optimized = true;
#endif
  return host;
}

std::string UnfitForTiming(const HostFingerprint& host) {
  if (!host.sanitizers.empty()) {
    return "built with sanitizers (" + host.sanitizers +
           "): host times would measure the instrumentation";
  }
  if (!host.optimized) {
    return "built without optimisation (build type '" + host.build_type +
           "'): host times would not reflect the program";
  }
  return "";
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void ReleaseFreeHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
