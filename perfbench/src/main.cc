// perfbench: the repo benchmark's harness. Runs one workload for a fixed
// measurement window and prints its metrics; see perfbench/README.md.
//
//   perfbench --workload rmat_pagerank --seed 1 --seconds 30 --trace 0 --out-dir DIR
//
// Runs repeat the workload (same seed) until the window is spent, at least
// kMinRuns times. The last stdout line is one JSON object:
//   --trace 0: end-to-end metrics (medians over runs; peak RSS of the first);
//   --trace 1: per-layer metrics. Runs alternate untraced / traced; host
//              layer times come only from traced runs, and the tracing
//              overhead is traced minus untraced median wall time.
// Every run is checked: the first against a host-side reference, the rest
// for bitwise-identical outputs and simulated metrics (determinism gate).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "host.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kMinRuns = 3;
constexpr int kMinRunsTraced = 4;  // at least two untraced and two traced
constexpr int kMaxRuns = 64;
// Top-level spans of a traced run must cover its wall time to within this.
constexpr double kCoverageTolerance = 0.05;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
      if (!args->trace && std::strcmp(value, "0") != 0) {
        return false;
      }
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

double Median(std::vector<double> xs) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const size_t mid = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
}

// FNV-1a over the bit patterns of the run's outputs.
uint64_t OutputHash(const std::vector<double>& values) {
  uint64_t h = 1469598103934665603ull;
  for (const double v : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    h = (h ^ bits) * 1099511628211ull;
  }
  return h;
}

bool BitwiseEqual(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// The simulated-clock results of a run, compared bit for bit across runs.
std::vector<std::pair<std::string, double>> SimFingerprint(const WorkloadRun& run) {
  std::vector<std::pair<std::string, double>> sim = run.sim_layers;
  sim.emplace_back("sim_s", run.sim_s);
  sim.emplace_back("outputs", static_cast<double>(OutputHash(run.values)));
  sim.emplace_back("root", static_cast<double>(run.root));
  sim.emplace_back("crash_detected", run.crash_detected ? 1.0 : 0.0);
  return sim;
}

struct RunRecord {
  WorkloadRun run;
  bool traced = false;
  double cpu_s = 0.0;        // host CPU time of the process during the run
  double peak_rss_mib = 0.0;  // process peak resident set after the run
  double top_level_s = 0.0;  // traced runs: seconds covered by top-level spans
  std::vector<std::pair<std::string, double>> sim;  // SimFingerprint(run)
  std::vector<std::pair<std::string, double>> host_layers;
};

// Host per-layer metrics of one traced run, from span self times.
std::vector<std::pair<std::string, double>> HostLayers(const Tracer& tracer, int id,
                                                       const WorkloadRun& run) {
  const double generate = tracer.SelfSeconds(id, "graph.StreamRmat") +
                          tracer.SelfSeconds(id, "graph.GenerateRmat") +
                          tracer.SelfSeconds(id, "graph.GenerateWebGraph");
  const double prepare = tracer.SelfSeconds(id, "algorithms.PrepareInput");
  const double ingest = tracer.SelfSeconds(id, "core.BatchSink");
  const double execute = tracer.SelfSeconds(id, "core.Cluster::RunStreaming") +
                         tracer.SelfSeconds(id, "algorithms.RunJob");
  auto per = [](double seconds, uint64_t count) {
    return count == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(count);
  };
  return {
      {"graph.generate_s", generate},
      {"graph.generate_ns_per_edge", per(generate, run.edges_generated)},
      {"algorithms.prepare_s", prepare},
      {"core.ingest_s", ingest},
      {"core.ingest_ns_per_edge", per(ingest, run.edges_ingested)},
      {"core.execute_s", execute},
      {"core.execute_ns_per_edge_visit", per(execute, run.edges_processed)},
  };
}

double EdgesPerHostSecond(const WorkloadRun& run) {
  const double exec = run.wall_s - run.setup_s;
  return exec > 0.0 ? static_cast<double>(run.edges_processed) / exec : 0.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// Unit of a simulated-side layer metric, from its name.
const char* SimUnit(const std::string& name) {
  if (name.size() > 6 && name.compare(name.size() - 6, 6, "_sim_s") == 0) {
    return "sim_s";
  }
  if (name.find("bytes") != std::string::npos) {
    return "bytes";
  }
  if (name.find("rate") != std::string::npos || name.find("utilization") != std::string::npos) {
    return "ratio";
  }
  return "count";
}

void PrintJsonString(std::FILE* out, const std::string& s) {
  std::fputc('"', out);
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::fputc('\\', out);
      std::fputc(c, out);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(out, "\\u%04x", c);
    } else {
      std::fputc(c, out);
    }
  }
  std::fputc('"', out);
}

void PrintMetricsJson(std::FILE* out, const std::vector<Metric>& metrics) {
  std::fprintf(out, "{");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(out, "%s", i == 0 ? "" : ", ");
    PrintJsonString(out, metrics[i].name);
    std::fprintf(out, ": {\"value\": %.17g, \"unit\": ", metrics[i].value);
    PrintJsonString(out, metrics[i].unit);
    std::fprintf(out, "}");
  }
  std::fprintf(out, "}");
}

void WriteResultFile(const std::string& path, const Args& args, const HostFingerprint& host,
                     const std::vector<RunRecord>& records, const std::vector<Metric>& metrics,
                     bool correct, int failed, const Tracer& tracer) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\"workload\": ");
  PrintJsonString(out, args.workload);
  std::fprintf(out, ", \"seed\": %llu, \"trace\": %d,\n \"host\": {\"cpu_model\": ",
               static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  PrintJsonString(out, host.cpu_model);
  std::fprintf(out, ", \"nproc\": %u, \"compiler\": ", host.nproc);
  PrintJsonString(out, host.compiler);
  std::fprintf(out, ", \"build_type\": ");
  PrintJsonString(out, host.build_type);
  std::fprintf(out, ", \"cxx_flags\": ");
  PrintJsonString(out, host.cxx_flags);
  std::fprintf(out, "},\n \"correct\": %s, \"attempted\": %zu, \"failed\": %d,\n \"runs\": [",
               correct ? "true" : "false", records.size(), failed);
  for (size_t i = 0; i < records.size(); ++i) {
    const WorkloadRun& r = records[i].run;
    std::fprintf(out,
                 "%s\n  {\"run\": %zu, \"traced\": %s, \"wall_s\": %.17g, \"setup_s\": %.17g, "
                 "\"sim_edges_per_host_s\": %.17g, \"cpu_s\": %.17g, \"peak_rss_mb\": %.17g}",
                 i == 0 ? "" : ",", i, records[i].traced ? "true" : "false", r.wall_s,
                 r.setup_s, EdgesPerHostSecond(r), records[i].cpu_s, records[i].peak_rss_mib);
  }
  std::fprintf(out, "],\n \"metrics\": ");
  PrintMetricsJson(out, metrics);
  // The exact simulated-clock layer metrics, identical on every run.
  std::vector<Metric> sim;
  for (const auto& [name, value] : records.front().run.sim_layers) {
    sim.push_back({name, value, SimUnit(name)});
  }
  std::fprintf(out, ",\n \"sim_layers\": ");
  PrintMetricsJson(out, sim);
  std::fprintf(out, ",\n \"spans\": ");
  tracer.WriteJson(out);
  std::fprintf(out, "}\n");
  std::fclose(out);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--out-dir DIR]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (args.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const HostFingerprint host = Fingerprint();
  std::printf("host: cpu=\"%s\" nproc=%u compiler=\"%s\" build=%s flags=\"%s\"\n",
              host.cpu_model.c_str(), host.nproc, host.compiler.c_str(),
              host.build_type.c_str(), host.cxx_flags.c_str());
  const std::string unfit = UnfitForTiming(host);
  if (!unfit.empty()) {
    std::fprintf(stderr, "perfbench: refusing to time this build: %s\n", unfit.c_str());
    return 3;
  }

  // ---- Measurement window.
  const Clock::time_point start = Clock::now();
  Tracer tracer(start);
  std::vector<RunRecord> records;
  std::vector<double> run_seconds;
  const int min_runs = args.trace ? kMinRunsTraced : kMinRuns;
  while (static_cast<int>(records.size()) < kMaxRuns) {
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    if (static_cast<int>(records.size()) >= min_runs &&
        elapsed + Median(run_seconds) > args.seconds) {
      break;
    }
    const int id = static_cast<int>(records.size());
    RunRecord rec;
    rec.traced = args.trace && id % 2 == 1;
    tracer.set_enabled(rec.traced);
    tracer.set_run(id);
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    rec.run = workload->run(args.seed, tracer);
    rec.cpu_s = ProcessCpuSeconds() - cpu0;
    rec.peak_rss_mib = PeakRssMiB();
    ReleaseFreeHeap();
    run_seconds.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    tracer.set_enabled(false);
    if (rec.traced) {
      rec.top_level_s = tracer.TopLevelSeconds(id);
      rec.host_layers = HostLayers(tracer, id, rec.run);
    }
    rec.sim = SimFingerprint(rec.run);
    if (id > 0) {
      // Later runs are checked against the first through rec.sim's output
      // hash; only the first run's outputs are kept whole.
      std::vector<double>().swap(rec.run.values);
    }
    std::printf("run %d%s: wall %.3f s, cpu %.3f s, setup %.3f s, sim %.9f s, peak rss %.1f MiB\n",
                id, rec.traced ? " (traced)" : "", rec.run.wall_s, rec.cpu_s, rec.run.setup_s,
                rec.run.sim_s, rec.peak_rss_mib);
    std::fflush(stdout);
    records.push_back(std::move(rec));
  }
  // Peak RSS of the process over its first run, when it had run nothing but
  // this one workload once. Later repeats can only add allocator slack.
  const double peak_rss_mib = records.front().peak_rss_mib;

  // ---- Checks. The first run is verified against the reference; every
  // later run must reproduce its outputs and simulated metrics bit for bit.
  bool correct = true;
  const std::string mismatch = workload->verify(args.seed, records.front().run);
  if (!mismatch.empty()) {
    std::fprintf(stderr, "perfbench: verification failed: %s\n", mismatch.c_str());
  }
  int failed = 0;
  for (size_t i = 0; i < records.size(); ++i) {
    const RunRecord& rec = records[i];
    bool ok = !rec.run.crashed && mismatch.empty();
    if (rec.run.crashed) {
      std::fprintf(stderr, "perfbench: run %zu crashed without recovering\n", i);
    }
    for (size_t k = 0; k < rec.sim.size(); ++k) {
      const auto& [name, value] = rec.sim[k];
      const double first = records.front().sim[k].second;
      if (!BitwiseEqual(value, first)) {
        std::fprintf(stderr,
                     "perfbench: determinism gate: run %zu has %s = %.17g, run 0 has %.17g\n",
                     i, name.c_str(), value, first);
        ok = false;
        correct = false;
      }
    }
    if (rec.traced) {
      const double coverage = rec.top_level_s / rec.run.wall_s;
      if (std::abs(coverage - 1.0) > kCoverageTolerance) {
        std::fprintf(stderr,
                     "perfbench: run %zu: top-level spans cover %.4f of wall time (tolerance "
                     "%.2f)\n",
                     i, coverage, kCoverageTolerance);
        correct = false;
      }
    }
    failed += ok ? 0 : 1;
  }
  correct = correct && failed == 0;

  // ---- Metrics.
  std::vector<Metric> metrics;
  auto median_of = [&records](bool traced, auto field) {
    std::vector<double> xs;
    for (const RunRecord& rec : records) {
      if (rec.traced == traced) {
        xs.push_back(field(rec));
      }
    }
    return Median(xs);
  };
  if (!args.trace) {
    metrics = {
        {"wall_s", median_of(false, [](const RunRecord& r) { return r.run.wall_s; }), "s"},
        {"setup_s", median_of(false, [](const RunRecord& r) { return r.run.setup_s; }), "s"},
        {"sim_edges_per_host_s",
         median_of(false, [](const RunRecord& r) { return EdgesPerHostSecond(r.run); }),
         "edges/s"},
        {"peak_rss_mb", peak_rss_mib, "MiB"},
        {"sim_s", records.front().run.sim_s, "sim_s"},
    };
  } else {
    const std::vector<std::pair<std::string, double>>& host_names =
        records[1].host_layers;
    for (size_t k = 0; k < host_names.size(); ++k) {
      const std::string& name = host_names[k].first;
      const bool per_edge = name.find("_ns_per_") != std::string::npos;
      metrics.push_back({name,
                         median_of(true, [k](const RunRecord& r) { return r.host_layers[k].second; }),
                         per_edge ? "ns" : "s"});
    }
    const auto wall = [](const RunRecord& r) { return r.run.wall_s; };
    metrics.push_back({"trace.overhead_s", median_of(true, wall) - median_of(false, wall), "s"});
    metrics.push_back(
        {"trace.top_level_coverage",
         median_of(true, [](const RunRecord& r) { return r.top_level_s / r.run.wall_s; }),
         "ratio"});
    for (const auto& [name, value] : records.front().run.sim_layers) {
      metrics.push_back({name, value, SimUnit(name)});
    }
  }

  // ---- Report: a readable table, the result file, then the JSON line.
  const double fail_rate = static_cast<double>(failed) / static_cast<double>(records.size());
  for (const Metric& m : metrics) {
    std::printf("  %-40s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("  %-40s %18.6f %s\n", "fail_rate", fail_rate, "ratio");
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0") +
                           ".json";
  WriteResultFile(path, args, host, records, metrics, correct, failed, tracer);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %d, \"metrics\": ",
              correct ? "true" : "false", records.size(), failed);
  PrintMetricsJson(stdout, metrics);
  std::printf("}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
