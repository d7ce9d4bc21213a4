#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "algorithms/basic.h"
#include "algorithms/runner.h"
#include "core/cluster.h"
#include "graph/generators.h"
#include "graph/mutation_log.h"
#include "graph/ref/reference.h"

namespace perfbench {
namespace {

using chaos::ClusterConfig;
using chaos::Edge;
using chaos::InputGraph;
using chaos::RunMetrics;
using chaos::VertexId;

// ---- Workload shapes. Sized so one run takes a few host seconds on a
// 4-core host, leaving room for several runs per measurement window.

// rmat_bfs_stream: directed BFS over a streamed RMAT graph, 4 machines,
// library-default cluster config.
constexpr uint32_t kBfsScale = 19;
constexpr int kBfsMachines = 4;
constexpr uint64_t kBfsBatchEdges = 4 << 20;  // as fig_scale streams it

// rmat_pagerank: PageRank over a materialized RMAT graph, 16 machines,
// update-plane combining on.
constexpr uint32_t kPrScale = 18;
constexpr int kPrMachines = 16;
constexpr uint32_t kPrIterations = 20;

// web_wcc_evolving: WCC on a web graph through mutation epochs, a CPU
// straggler, a capped buffer pool and a mid-run machine failure.
constexpr uint32_t kWccPagesLog2 = 13;
constexpr int kWccMachines = 8;
constexpr uint32_t kWccEpochs = 3;
constexpr double kWccMutateRate = 0.02;
constexpr uint64_t kWccPoolBytes = 1 << 20;
constexpr double kWccStragglerSeverity = 4.0;
constexpr uint32_t kWccCheckpointInterval = 2;
constexpr chaos::TimeNs kWccKillAt = 40 * chaos::kNsPerMs;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Exact simulated-side metrics of every layer, in a fixed order. Times are
// simulated seconds summed over machines unless named otherwise.
std::vector<std::pair<std::string, double>> SimLayers(const RunMetrics& m,
                                                      const chaos::RecoveryReport& rec) {
  using chaos::Bucket;
  auto sum = [&m](auto field) {
    uint64_t total = 0;
    for (const chaos::MachineMetrics& mm : m.machines) {
      total += mm.*field;
    }
    return static_cast<double>(total);
  };
  auto bucket = [&m](Bucket b) { return chaos::ToSeconds(m.SumBucket(b)); };
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t chunks_served = 0;
  for (const chaos::DeviceMetrics& d : m.devices) {
    bytes_read += d.bytes_read;
    bytes_written += d.bytes_written;
    chunks_served += d.chunks_served;
  }
  chaos::TimeNs stall = 0;
  for (const chaos::PoolMetrics& p : m.pools) {
    stall += p.stall_time;
  }
  using MM = chaos::MachineMetrics;
  return {
      {"core.supersteps", static_cast<double>(m.supersteps)},
      {"core.edges_processed", sum(&MM::edges_processed)},
      {"core.updates_emitted", sum(&MM::updates_emitted)},
      {"core.chunks_fetched", sum(&MM::chunks_fetched)},
      {"core.gp_master_sim_s", bucket(Bucket::kGpMaster)},
      {"core.preprocess_sim_s", chaos::ToSeconds(m.preprocess_time)},
      {"core.barrier_sim_s", bucket(Bucket::kBarrier)},
      {"core.merge_wait_sim_s", bucket(Bucket::kMergeWait)},
      {"core.gp_steal_sim_s", bucket(Bucket::kGpSteal)},
      {"core.copy_sim_s", bucket(Bucket::kCopy)},
      {"core.steal.proposals_sent", static_cast<double>(m.StealProposalsSent())},
      {"core.steal.partitions_granted", static_cast<double>(m.PartitionsGranted())},
      {"core.steal.stolen_chunks", static_cast<double>(m.StolenChunks())},
      {"core.steal.backoffs", static_cast<double>(m.StealBackoffs())},
      {"core.steal.victim_miss_rate", m.VictimMissRate()},
      {"core.steal.proposals_combined", static_cast<double>(m.StealProposalsCombined())},
      {"core.mutate_sim_s", bucket(Bucket::kMutate)},
      {"core.mutation.edges_applied", static_cast<double>(m.MutationEdgesApplied())},
      {"core.mutation.frontier", static_cast<double>(m.MutationFrontierTotal())},
      {"core.mutation.resets", static_cast<double>(m.MutationResetsTotal())},
      {"core.checkpoint_sim_s", bucket(Bucket::kCheckpoint)},
      {"core.recovery.lost_supersteps", static_cast<double>(rec.lost_work_supersteps)},
      {"core.recovery.time_to_recover_sim_s", chaos::ToSeconds(rec.time_to_recover)},
      {"core.pool.peak_bytes", static_cast<double>(m.PeakMemoryBytes())},
      {"core.pool.spill_bytes", static_cast<double>(m.SpillBytesMoved())},
      {"core.pool.stall_sim_s", chaos::ToSeconds(stall)},
      {"storage.bytes_read", static_cast<double>(bytes_read)},
      {"storage.bytes_written", static_cast<double>(bytes_written)},
      {"storage.chunks_served", static_cast<double>(chunks_served)},
      {"storage.utilization", m.MeanDeviceUtilization()},
      {"net.bytes", static_cast<double>(m.network_bytes)},
      {"net.messages", static_cast<double>(m.messages)},
      {"net.incast_events", static_cast<double>(m.incast_events)},
      {"net.wire_bytes_saved", static_cast<double>(m.UpdateWireBytesSaved())},
  };
}

void FillSim(const RunMetrics& m, const chaos::RecoveryReport& rec, WorkloadRun* out) {
  out->sim_s = chaos::ToSeconds(rec.crash_detected ? rec.end_to_end_time : m.total_time);
  for (const chaos::MachineMetrics& mm : m.machines) {
    out->edges_processed += mm.edges_processed;
  }
  out->sim_layers = SimLayers(m, rec);
}

// ------------------------------------------------------- rmat_bfs_stream

chaos::RmatOptions BfsRmat(uint64_t seed) {
  chaos::RmatOptions rmat;
  rmat.scale = kBfsScale;
  rmat.seed = seed;
  return rmat;
}

// Hub root as fig_scale picks it: the modal source of the first generator
// batch, so the BFS reaches the giant out-component.
VertexId PickRoot(const chaos::RmatOptions& rmat, uint64_t sample_edges, Tracer& tracer,
                  uint64_t* generated) {
  std::unordered_map<VertexId, uint32_t> count;
  VertexId best = 0;
  uint32_t best_count = 0;
  ScopedSpan span(tracer, "graph.StreamRmat");
  chaos::StreamRmat(rmat, sample_edges, [&](const std::vector<Edge>& edges) {
    ScopedSpan vote(tracer, "perfbench.root_vote");
    *generated += edges.size();
    for (const Edge& e : edges) {
      const uint32_t c = ++count[e.src];
      if (c > best_count) {
        best_count = c;
        best = e.src;
      }
    }
    return false;  // one batch is enough
  });
  return best;
}

WorkloadRun RunBfsStream(uint64_t seed, Tracer& tracer) {
  WorkloadRun out;
  const Clock::time_point t0 = Clock::now();
  const chaos::RmatOptions rmat = BfsRmat(seed);
  const uint64_t num_vertices = 1ull << rmat.scale;
  const uint64_t num_edges = num_vertices * rmat.edges_per_vertex;
  const VertexId root =
      PickRoot(rmat, std::min(num_edges, kBfsBatchEdges), tracer, &out.edges_generated);

  ClusterConfig cfg;
  cfg.machines = kBfsMachines;
  chaos::Cluster<chaos::BfsProgram> cluster(cfg, chaos::BfsProgram(root));
  Clock::time_point setup_end;
  chaos::RunResult<chaos::BfsProgram> result;
  {
    ScopedSpan span(tracer, "core.Cluster::RunStreaming");
    result = cluster.RunStreaming(
        num_vertices, rmat.weighted, [&](const chaos::Cluster<chaos::BfsProgram>::BatchSink& sink) {
          {
            ScopedSpan gen(tracer, "graph.StreamRmat");
            chaos::StreamRmat(rmat, kBfsBatchEdges, [&](const std::vector<Edge>& edges) {
              out.edges_generated += edges.size();
              out.edges_ingested += edges.size();
              ScopedSpan ingest(tracer, "core.BatchSink");
              sink(edges);
              return true;
            });
          }
          setup_end = Clock::now();
        });
  }
  const Clock::time_point t1 = Clock::now();
  out.wall_s = Seconds(t0, t1);
  out.setup_s = Seconds(t0, setup_end);
  out.crashed = result.crashed;
  FillSim(result.metrics, chaos::RecoveryReport{}, &out);
  out.root = root;
  out.values = std::move(result.values);
  return out;
}

// A second, untimed pass over the same stream with O(V) memory: the root
// has depth 0, no edge can lower any depth, and every reached non-root
// vertex has an in-edge from depth - 1.
std::string VerifyBfsStream(uint64_t seed, const WorkloadRun& run) {
  const chaos::RmatOptions rmat = BfsRmat(seed);
  const uint64_t num_vertices = 1ull << rmat.scale;
  if (run.values.size() != num_vertices) {
    return "bfs: " + std::to_string(run.values.size()) + " values for " +
           std::to_string(num_vertices) + " vertices";
  }
  const auto root = static_cast<VertexId>(run.root);
  if (run.values[root] != 0.0) {
    return "bfs: root " + std::to_string(root) + " has depth " +
           std::to_string(run.values[root]);
  }
  std::vector<int64_t> depth(num_vertices);
  for (uint64_t v = 0; v < num_vertices; ++v) {
    const double d = run.values[v];
    if (!std::isfinite(d) || d != std::floor(d) || d < -1.0 || (d == 0.0 && v != root)) {
      return "bfs: vertex " + std::to_string(v) + " has invalid depth " + std::to_string(d);
    }
    depth[v] = static_cast<int64_t>(d);
  }
  std::vector<uint8_t> has_parent(num_vertices, 0);
  uint64_t streamed = 0;
  std::string error;
  chaos::StreamRmat(rmat, kBfsBatchEdges, [&](const std::vector<Edge>& edges) {
    streamed += edges.size();
    for (const Edge& e : edges) {
      const int64_t du = depth[e.src];
      if (du < 0) {
        continue;
      }
      const int64_t dv = depth[e.dst];
      if (dv < 0 || dv > du + 1) {
        error = "bfs: edge " + std::to_string(e.src) + " -> " + std::to_string(e.dst) +
                " lowers depth " + std::to_string(dv) + " to " + std::to_string(du + 1);
        return false;
      }
      if (dv == du + 1) {
        has_parent[e.dst] = 1;
      }
    }
    return true;
  });
  if (!error.empty()) {
    return error;
  }
  if (streamed != num_vertices * rmat.edges_per_vertex) {
    return "bfs: reference pass streamed " + std::to_string(streamed) + " edges";
  }
  for (uint64_t v = 0; v < num_vertices; ++v) {
    if (depth[v] > 0 && has_parent[v] == 0) {
      return "bfs: vertex " + std::to_string(v) + " at depth " + std::to_string(depth[v]) +
             " has no in-edge from depth " + std::to_string(depth[v] - 1);
    }
  }
  return "";
}

// --------------------------------------------------------- rmat_pagerank

chaos::RmatOptions PrRmat(uint64_t seed) {
  chaos::RmatOptions rmat;
  rmat.scale = kPrScale;
  rmat.seed = seed;
  return rmat;
}

chaos::AlgoParams PrParams() {
  chaos::AlgoParams params;
  params.iterations = kPrIterations;
  return params;
}

WorkloadRun RunPagerank(uint64_t seed, Tracer& tracer) {
  WorkloadRun out;
  const Clock::time_point t0 = Clock::now();
  auto prepared = std::make_shared<InputGraph>();
  {
    InputGraph raw;
    {
      ScopedSpan span(tracer, "graph.GenerateRmat");
      raw = chaos::GenerateRmat(PrRmat(seed));
    }
    out.edges_generated = raw.num_edges();
    ScopedSpan span(tracer, "algorithms.PrepareInput");
    *prepared = chaos::PrepareInput("pagerank", raw);
  }
  const Clock::time_point setup_end = Clock::now();

  ClusterConfig cfg;
  cfg.machines = kPrMachines;
  cfg.wire_combine = true;
  cfg.steal_combine = true;
  chaos::JobResult result;
  {
    ScopedSpan span(tracer, "algorithms.RunJob");
    result = chaos::RunJob(chaos::MakeJob("pagerank", prepared, cfg, PrParams()));
  }
  const Clock::time_point t1 = Clock::now();
  out.wall_s = Seconds(t0, t1);
  out.setup_s = Seconds(t0, setup_end);
  out.crashed = result.crashed;
  FillSim(result.metrics, result.recovery, &out);
  out.values = std::move(result.values);
  return out;
}

// ref::PageRank at 1e-3 * (1 + |x|), the rule tests/differential_test uses.
std::string VerifyPagerank(uint64_t seed, const WorkloadRun& run) {
  const InputGraph prepared = chaos::PrepareInput("pagerank", chaos::GenerateRmat(PrRmat(seed)));
  const chaos::AlgoParams params = PrParams();
  const std::vector<double> expect =
      chaos::ref::PageRank(prepared, static_cast<int>(params.iterations), params.damping);
  if (run.values.size() != expect.size()) {
    return "pagerank: " + std::to_string(run.values.size()) + " values for " +
           std::to_string(expect.size()) + " vertices";
  }
  for (size_t v = 0; v < expect.size(); ++v) {
    if (!(std::abs(run.values[v] - expect[v]) <= 1e-3 * (1.0 + std::abs(expect[v])))) {
      return "pagerank: vertex " + std::to_string(v) + " has rank " +
             std::to_string(run.values[v]) + ", reference " + std::to_string(expect[v]);
    }
  }
  return "";
}

// ------------------------------------------------------ web_wcc_evolving

chaos::WebGraphOptions WccWeb(uint64_t seed) {
  chaos::WebGraphOptions web;
  web.num_pages = 1ull << kWccPagesLog2;
  web.num_hosts = std::max<uint64_t>(web.num_pages >> 8, 4);
  web.seed = seed;
  return web;
}

chaos::MutationLogOptions WccMutations(uint64_t seed) {
  chaos::MutationLogOptions log;
  log.num_batches = kWccEpochs;
  log.rate = kWccMutateRate;
  log.preset = chaos::MutatePreset::kUniform;
  log.seed = seed;
  return log;
}

WorkloadRun RunWccEvolving(uint64_t seed, Tracer& tracer) {
  WorkloadRun out;
  const Clock::time_point t0 = Clock::now();
  auto raw = std::make_shared<InputGraph>();
  {
    ScopedSpan span(tracer, "graph.GenerateWebGraph");
    *raw = chaos::GenerateWebGraph(WccWeb(seed));
  }
  out.edges_generated = raw->num_edges();
  // As chaos_run does for an evolving job: the prepared graph sizes the
  // cluster, while the job itself carries the raw graph and the evolving
  // controller re-prepares it per epoch.
  uint64_t prepared_vertices = 0;
  {
    ScopedSpan span(tracer, "algorithms.PrepareInput");
    prepared_vertices = chaos::PrepareInput("wcc", *raw).num_vertices;
  }
  const Clock::time_point setup_end = Clock::now();

  ClusterConfig cfg;
  cfg.machines = kWccMachines;
  cfg.memory_budget_bytes = std::max<uint64_t>(
      prepared_vertices * 48 / (4 * static_cast<uint64_t>(kWccMachines)) + 1, 4 << 10);
  cfg.pool_budget_bytes = kWccPoolBytes;
  cfg.steal.mode = chaos::StealMode::kAdaptive;
  cfg.steal.backoff = true;
  cfg.steal.victim_check = true;
  cfg.wire_combine = true;
  cfg.steal_combine = true;
  cfg.checkpoint_interval = kWccCheckpointInterval;
  chaos::FaultEvent straggler;
  straggler.machine = 1;
  straggler.target = chaos::FaultTarget::kCpu;
  straggler.factor = 1.0 / kWccStragglerSeverity;
  cfg.faults.Add(straggler);
  chaos::FaultEvent kill;
  kill.machine = 2;
  kill.at = kWccKillAt;
  kill.target = chaos::FaultTarget::kMachine;
  kill.kind = chaos::FaultKind::kMachineCrash;
  cfg.faults.Add(kill);

  chaos::JobSpec spec = chaos::MakeJob("wcc", raw, cfg);
  spec.mutations.log = WccMutations(seed);
  spec.recover = true;
  chaos::JobResult result;
  {
    ScopedSpan span(tracer, "algorithms.RunJob");
    result = chaos::RunJob(spec);
  }
  const Clock::time_point t1 = Clock::now();
  out.wall_s = Seconds(t0, t1);
  out.setup_s = Seconds(t0, setup_end);
  out.crashed = result.crashed;
  FillSim(result.metrics, result.recovery, &out);
  out.crash_detected = result.recovery.crash_detected;
  out.values = std::move(result.values);
  return out;
}

// Components of the fully mutated, prepared graph, replayed independently.
std::string VerifyWccEvolving(uint64_t seed, const WorkloadRun& run) {
  if (!run.crash_detected) {
    return "wcc: the scripted machine failure never fired";
  }
  const InputGraph raw = chaos::GenerateWebGraph(WccWeb(seed));
  const chaos::MutationLog log(raw, WccMutations(seed));
  const InputGraph mutated = chaos::PrepareInput("wcc", log.GraphAfter(kWccEpochs));
  const std::vector<VertexId> expect = chaos::ref::ComponentLabels(mutated);
  if (run.values.size() != expect.size()) {
    return "wcc: " + std::to_string(run.values.size()) + " values for " +
           std::to_string(expect.size()) + " vertices";
  }
  std::vector<VertexId> got(run.values.size());
  for (size_t v = 0; v < got.size(); ++v) {
    got[v] = static_cast<VertexId>(run.values[v]);
  }
  if (!chaos::ref::SamePartition(got, expect)) {
    return "wcc: components differ from the reference on the mutated graph";
  }
  return "";
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"rmat_bfs_stream", RunBfsStream, VerifyBfsStream},
      {"rmat_pagerank", RunPagerank, VerifyPagerank},
      {"web_wcc_evolving", RunWccEvolving, VerifyWccEvolving},
  };
  return workloads;
}

}  // namespace perfbench
