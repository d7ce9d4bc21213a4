// Evolving-graph driver (PR 8): binds a MutationLog to a cluster run.
//
// An evolving run is ONE continuous cluster run over a sequence of mutation
// epochs. Each time the algorithm converges, the barrier coordinator asks
// the attached MutationFeed for the next epoch's delta (planned here, on
// the host, against the engine's own converged vertex states), the engines
// apply it crash-atomically (engine_core.h ApplyMutationStage), and the run
// continues from the reseeded state instead of reporting done. The run only
// finishes after the last epoch's re-convergence, so the final values are
// the fixed point of the fully mutated graph.
//
// The EvolvingController owns everything host-side: the deterministic
// MutationLog, the raw graph as of the last applied epoch, and the planner
// closure that (1) applies the next raw batch, (2) re-prepares the graph,
// (3) computes warm-start seeds from the converged states (incremental.h) —
// or fresh InitVertex seeds for the full-recompute baseline — and (4) bins
// the complete post-batch prepared edge list by partition for the engines'
// re-bin stage. Every step is linear in the graph size per epoch: WCC
// certifies all of a batch's deletions with one union-find pass over the
// new graph, and only the BFS/SSSP seeders, which walk the pre-batch
// graph's tight arcs, re-prepare the old graph. Recovery
// (core/recovery.h) and preemption (core/job_execution.h) re-attach the
// controller through their AttachHook at the restored checkpoint's epoch:
// current_raw rewinds via MutationLog::GraphAfter and the feed replays
// every epoch that was not durably committed.
#ifndef CHAOS_ALGORITHMS_EVOLVING_H_
#define CHAOS_ALGORITHMS_EVOLVING_H_

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/incremental.h"
#include "algorithms/runner.h"
#include "core/cluster.h"
#include "core/job_spec.h"
#include "core/mutation_feed.h"
#include "graph/mutation_log.h"

namespace chaos {

template <GasProgram P>
class EvolvingController {
 public:
  using VState = typename P::VertexState;

  EvolvingController(P prog, std::string algorithm, const InputGraph& raw,
                     const MutationSchedule& sched)
      : prog_(std::move(prog)),
        algorithm_(std::move(algorithm)),
        incremental_(sched.incremental),
        log_(raw, sched.log),
        current_raw_(raw),
        initial_prepared_(PrepareInput(algorithm_, raw)) {
    CHAOS_CHECK_MSG(algorithm_ == "bfs" || algorithm_ == "sssp" || algorithm_ == "wcc",
                    "evolving mode supports bfs/sssp/wcc, got " + algorithm_);
  }

  // The epoch-0 prepared graph the cluster ingests (JobSpec::input stays RAW
  // in mutation mode; preparation happens here, per epoch).
  const InputGraph& initial_prepared() const { return initial_prepared_; }
  const MutationLog& log() const { return log_; }
  MutationFeed* feed() { return &feed_; }

  // The AttachHook (core/cluster.h) of an evolving job: binds the feed's
  // planner to `cluster` with epochs [0, start_epoch) already durably baked
  // into the state the cluster holds: 0 for a fresh run,
  // RunResult::checkpoint_epoch when resuming from a checkpoint. Must run
  // before Run/Resume; the controller must outlive the cluster's run.
  void Attach(Cluster<P>& cluster, uint64_t start_epoch) {
    CHAOS_CHECK_LE(start_epoch, log_.num_batches());
    current_raw_ = log_.GraphAfter(start_epoch);
    feed_.Configure(log_.num_batches(),
                    [this, c = &cluster](uint64_t epoch) { return Plan(c, epoch); });
    feed_.SkipTo(start_epoch);
    cluster.AttachMutations(&feed_);
  }

 private:
  // Planned at the convergence barrier, host-side (zero simulated time; the
  // engines charge the data movement when they apply the delta).
  MutationDelta Plan(Cluster<P>* cluster, uint64_t epoch) {
    const MutationBatch& batch = log_.batch(epoch);
    InputGraph new_raw = current_raw_;
    MutationLog::Apply(&new_raw, batch);
    const InputGraph new_prepared = PrepareInput(algorithm_, new_raw);

    MutationDelta delta;
    delta.vertex_state_bytes = sizeof(VState);
    delta.edges_inserted = batch.inserts.size();
    delta.edges_deleted = batch.deletes.size();

    std::vector<VState> seeds;
    SeedStats stats;
    if (incremental_) {
      // Warm-start from the engine's own converged states (read host-side
      // at the barrier instant — every machine is quiescent).
      cluster->HostReadStates(SetKind::kVertices, &seeds);
      stats = ComputeSeeds(new_prepared, batch, &seeds);
    } else {
      // Full-recompute baseline: fresh InitVertex seeds, identical apply
      // cost — the comparison isolates re-convergence work.
      const auto global = prog_.InitGlobal(new_prepared.num_vertices);
      seeds.reserve(new_prepared.num_vertices);
      for (VertexId v = 0; v < new_prepared.num_vertices; ++v) {
        seeds.push_back(prog_.InitVertex(global, v, 0));
      }
      stats.resets = new_prepared.num_vertices;
      stats.frontier = new_prepared.num_vertices;
    }
    delta.seed_states.resize(seeds.size() * sizeof(VState));
    std::memcpy(delta.seed_states.data(), seeds.data(), delta.seed_states.size());
    delta.frontier = stats.frontier;
    delta.resets = stats.resets;

    // The COMPLETE post-batch prepared edge list, binned by the partition
    // the engines stream (PartitionOf(src), edge-list order): the apply
    // stage replaces each partition's edge set wholesale, so chunk layout
    // is host-determined and independent of fetch arrival order.
    const Partitioning& parts = cluster->partitioning();
    delta.part_edges.assign(parts.num_partitions(), {});
    for (const Edge& e : new_prepared.edges) {
      delta.part_edges[parts.PartitionOf(e.src)].push_back(e);
    }

    current_raw_ = std::move(new_raw);
    return delta;
  }

  // Runs before Plan advances current_raw_, so the pre-batch graph is
  // re-prepared from it — only for the seeders that read it (BFS/SSSP).
  SeedStats ComputeSeeds(const InputGraph& new_prepared, const MutationBatch& batch,
                         std::vector<VState>* seeds) const {
    // Per-arc (prepared) images of the batch: undirected preparation turns
    // each raw edge into two forward arcs.
    auto prepared_arcs = [](const std::vector<Edge>& raw) {
      std::vector<Edge> arcs;
      arcs.reserve(raw.size() * 2);
      for (const Edge& e : raw) {
        arcs.push_back(Edge{e.src, e.dst, e.weight, kEdgeForward});
        arcs.push_back(Edge{e.dst, e.src, e.weight, kEdgeForward});
      }
      return arcs;
    };
    const std::vector<Edge> del_arcs = prepared_arcs(batch.deletes);
    const std::vector<Edge> ins_arcs = prepared_arcs(batch.inserts);
    if constexpr (std::is_same_v<P, IncBfsProgram>) {
      return SeedIncBfs(PrepareInput(algorithm_, current_raw_), new_prepared, del_arcs,
                        ins_arcs, prog_.InitGlobal(0).source, seeds);
    } else if constexpr (std::is_same_v<P, SsspProgram>) {
      return SeedSssp(PrepareInput(algorithm_, current_raw_), new_prepared, del_arcs,
                      ins_arcs, prog_.InitGlobal(0).source, seeds);
    } else if constexpr (std::is_same_v<P, WccProgram>) {
      return SeedWcc(new_prepared, batch.deletes, ins_arcs, seeds);
    } else {
      CHAOS_CHECK_MSG(false, "no incremental seeder for this program");
      return SeedStats{};
    }
  }

  P prog_;
  std::string algorithm_;
  bool incremental_;
  MutationLog log_;
  InputGraph current_raw_;   // raw graph as of the last planned epoch
  InputGraph initial_prepared_;
  MutationFeed feed_;
};

}  // namespace chaos

#endif  // CHAOS_ALGORITHMS_EVOLVING_H_
