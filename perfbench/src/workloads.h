// The benchmark's workloads. Each one generates its input from the seed,
// runs it through the library's public API with spans around each call
// into a module, and can re-derive a host-side reference from the same
// seed to verify the outputs.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

// One run of a workload, from input generation to final result.
struct WorkloadRun {
  double wall_s = 0.0;   // host: generation start -> final result
  double setup_s = 0.0;  // host: until simulated execution starts
  double sim_s = 0.0;    // simulated end-to-end time, aborted run included
  uint64_t edges_processed = 0;  // sum of MachineMetrics::edges_processed
  uint64_t edges_generated = 0;  // generator output, root sample included
  uint64_t edges_ingested = 0;   // edges pushed through the streaming sink
  // Exact simulated-side per-layer metrics (name, value), in a fixed order.
  std::vector<std::pair<std::string, double>> sim_layers;
  std::vector<double> values;  // final per-vertex result
  uint64_t root = 0;           // BFS source the run picked
  bool crash_detected = false; // a machine failure fired and was recovered
  bool crashed = false;        // ended in a crash it did not recover from
};

struct Workload {
  const char* name;
  WorkloadRun (*run)(uint64_t seed, Tracer& tracer);
  // Checks `run` against a reference rebuilt from `seed`; empty = correct.
  std::string (*verify)(uint64_t seed, const WorkloadRun& run);
};

const std::vector<Workload>& Workloads();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
