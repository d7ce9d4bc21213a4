// Evolving graphs (PR 8): the mutation differential battery.
//
//  * MutationLog: seeded determinism, GraphAfter == manual batch replay,
//    preset/fraction behavior, exact-record Apply, rate validation.
//  * Apply-then-rebin equivalence: an evolving run (mutations applied at
//    convergence barriers, incremental re-convergence) must produce the
//    same final values as building the fully mutated graph from scratch —
//    bitwise for BFS/WCC, 1e-3 for SSSP.
//  * Hand-checked incremental seeder math on micro graphs, and SeedWcc
//    against a per-deletion reachability oracle on random graphs.
//  * Compositions, asserted not assumed: crash during the mutation stage
//    (same-size and rescaled recovery replays uncommitted epochs),
//    scheduler preemption slices, all three steal modes, tight memory.
//  * Regression: ImportRepartitioned rejects edge batches referencing
//    vertices beyond the vertex-count bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "algorithms/evolving.h"
#include "algorithms/incremental.h"
#include "algorithms/runner.h"
#include "graph/generators.h"
#include "graph/mutation_log.h"
#include "graph/ref/reference.h"
#include "util/rng.h"

namespace chaos {
namespace {

ClusterConfig SmallConfig(int machines, uint64_t seed = 42) {
  ClusterConfig cfg;
  cfg.machines = machines;
  cfg.memory_budget_bytes = 8 << 10;
  cfg.chunk_bytes = 2 << 10;
  cfg.seed = seed;
  return cfg;
}

InputGraph SmallRmat(uint64_t seed, bool weighted = false, uint32_t scale = 7) {
  RmatOptions opt;
  opt.scale = scale;
  opt.edges_per_vertex = 8;
  opt.weighted = weighted;
  opt.seed = seed;
  return GenerateRmat(opt);
}

MutationLogOptions Schedule(uint32_t batches, double rate,
                            MutatePreset preset = MutatePreset::kUniform, uint64_t seed = 7) {
  MutationLogOptions opt;
  opt.num_batches = batches;
  opt.rate = rate;
  opt.preset = preset;
  opt.seed = seed;
  return opt;
}

JobSpec EvolvingJob(const std::string& algo, const InputGraph& raw, ClusterConfig cfg,
                    const MutationLogOptions& log, bool incremental = true) {
  JobSpec spec = MakeJob(algo, raw, std::move(cfg));
  spec.mutations.log = log;
  spec.mutations.incremental = incremental;
  return spec;
}

// The from-scratch truth: run the STATIC engine on the fully mutated graph.
JobResult FromScratch(const std::string& algo, const InputGraph& raw,
                      const MutationLogOptions& opt, ClusterConfig cfg) {
  MutationLog log(raw, opt);
  InputGraph prepared = PrepareInput(algo, log.GraphAfter(log.num_batches()));
  return RunJob(MakeJob(algo, prepared, std::move(cfg)));
}

void ExpectNearValues(const std::vector<double>& got, const std::vector<double>& want,
                      double tol) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    if (std::isinf(got[i]) || std::isinf(want[i])) {
      EXPECT_EQ(std::isinf(got[i]), std::isinf(want[i])) << "vertex " << i;
      continue;
    }
    EXPECT_NEAR(got[i], want[i], tol) << "vertex " << i;
  }
}

bool SameEdge(const Edge& a, const Edge& b) {
  return a.src == b.src && a.dst == b.dst && a.weight == b.weight && a.flags == b.flags;
}

bool SameBatch(const MutationBatch& a, const MutationBatch& b) {
  if (a.inserts.size() != b.inserts.size() || a.deletes.size() != b.deletes.size()) {
    return false;
  }
  for (size_t i = 0; i < a.inserts.size(); ++i) {
    if (!SameEdge(a.inserts[i], b.inserts[i])) {
      return false;
    }
  }
  for (size_t i = 0; i < a.deletes.size(); ++i) {
    if (!SameEdge(a.deletes[i], b.deletes[i])) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------- mutation log

TEST(MutationLogTest, DeterministicAndSeedSensitive) {
  InputGraph g = SmallRmat(3);
  const MutationLogOptions opt = Schedule(4, 0.02, MutatePreset::kHotspot, 11);
  MutationLog a(g, opt);
  MutationLog b(g, opt);
  ASSERT_EQ(a.num_batches(), 4u);
  for (uint64_t k = 0; k < a.num_batches(); ++k) {
    EXPECT_TRUE(SameBatch(a.batch(k), b.batch(k))) << "batch " << k;
  }
  MutationLogOptions other = opt;
  other.seed = 12;
  MutationLog c(g, other);
  bool any_diff = false;
  for (uint64_t k = 0; k < a.num_batches(); ++k) {
    any_diff = any_diff || !SameBatch(a.batch(k), c.batch(k));
  }
  EXPECT_TRUE(any_diff);
}

TEST(MutationLogTest, GraphAfterMatchesManualReplay) {
  InputGraph g = SmallRmat(5, /*weighted=*/true);
  MutationLog log(g, Schedule(3, 0.05, MutatePreset::kChurn, 9));
  InputGraph manual = g;
  for (uint64_t k = 0; k < log.num_batches(); ++k) {
    MutationLog::Apply(&manual, log.batch(k));
    const InputGraph after = log.GraphAfter(k + 1);
    ASSERT_EQ(after.edges.size(), manual.edges.size()) << "epoch " << k;
    for (size_t i = 0; i < manual.edges.size(); ++i) {
      ASSERT_TRUE(SameEdge(after.edges[i], manual.edges[i])) << "epoch " << k << " edge " << i;
    }
  }
  // GraphAfter(0) is the base.
  EXPECT_EQ(log.GraphAfter(0).edges.size(), g.edges.size());
}

TEST(MutationLogTest, RateAndDeleteFractionShapeBatches) {
  InputGraph g = SmallRmat(4);
  const auto total = static_cast<uint64_t>(0.01 * static_cast<double>(g.edges.size()) + 0.5);
  MutationLog log(g, Schedule(2, 0.01));
  for (uint64_t k = 0; k < 2; ++k) {
    const auto& b = log.batch(k);
    EXPECT_NEAR(static_cast<double>(b.inserts.size() + b.deletes.size()),
                static_cast<double>(total), 2.0);
  }
  MutationLogOptions all_del = Schedule(1, 0.02);
  all_del.delete_fraction = 1.0;
  MutationLog d(g, all_del);
  EXPECT_EQ(d.batch(0).inserts.size(), 0u);
  EXPECT_GT(d.batch(0).deletes.size(), 0u);
  EXPECT_LT(d.GraphAfter(1).edges.size(), g.edges.size());
  MutationLogOptions all_ins = Schedule(1, 0.02);
  all_ins.delete_fraction = 0.0;
  MutationLog i(g, all_ins);
  EXPECT_EQ(i.batch(0).deletes.size(), 0u);
  EXPECT_GT(i.GraphAfter(1).edges.size(), g.edges.size());
}

TEST(MutationLogTest, PresetsProduceDistinctLogs) {
  InputGraph g = SmallRmat(6);
  MutationLog uni(g, Schedule(2, 0.02, MutatePreset::kUniform));
  MutationLog hot(g, Schedule(2, 0.02, MutatePreset::kHotspot));
  MutationLog churn(g, Schedule(2, 0.02, MutatePreset::kChurn));
  EXPECT_FALSE(SameBatch(uni.batch(0), hot.batch(0)));
  // Churn's batch 1 deletes are drawn from batch 0's inserts.
  bool recycles = false;
  for (const Edge& d : churn.batch(1).deletes) {
    for (const Edge& ins : churn.batch(0).inserts) {
      recycles = recycles || SameEdge(d, ins);
    }
  }
  EXPECT_TRUE(recycles);
}

TEST(MutationLogTest, ApplyRemovesExactRecordsOnce) {
  // Deletes are a multiset of exact records: weight by bit pattern, flags
  // included, one occurrence removed per record, survivors keep their order.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Edge a{0, 1, 1.0f, kEdgeForward};
  const Edge a_rev{0, 1, 1.0f, kEdgeReverse};  // differs from `a` only in flags
  const Edge pos_zero{1, 2, +0.0f, kEdgeForward};
  const Edge neg_zero{1, 2, -0.0f, kEdgeForward};
  const Edge not_a_number{2, 3, nan, kEdgeForward};
  const Edge b{3, 0, 2.0f, kEdgeForward};
  InputGraph g;
  g.num_vertices = 4;
  g.edges = {a, pos_zero, a, a_rev, neg_zero, b, a, not_a_number, b};

  MutationBatch batch;
  batch.deletes = {a, neg_zero, a, not_a_number, b};
  batch.inserts = {Edge{2, 1, 3.0f, kEdgeForward}};
  MutationLog::Apply(&g, batch);

  const std::vector<Edge> want = {pos_zero, a_rev, a, b, batch.inserts[0]};
  ASSERT_EQ(g.edges.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(SameEdge(g.edges[i], want[i])) << "edge " << i;
    EXPECT_EQ(std::signbit(g.edges[i].weight), std::signbit(want[i].weight)) << "edge " << i;
  }

  // A delete naming an absent record is a caller bug, never a silent no-op.
  MutationBatch absent;
  absent.deletes = {Edge{1, 2, 0.5f, kEdgeForward}};
  EXPECT_DEATH(MutationLog::Apply(&g, absent), "remaining");
}

TEST(MutationLogTest, RejectsNonFiniteRate) {
  const InputGraph g = SmallRmat(3);
  EXPECT_DEATH(MutationLog(g, Schedule(1, std::numeric_limits<double>::infinity())),
               "isfinite");
  EXPECT_DEATH(MutationLog(g, Schedule(1, std::numeric_limits<double>::quiet_NaN())),
               "isfinite");
}

TEST(MutationLogTest, RejectsRateOverflowingEdgeCount) {
  const InputGraph g = SmallRmat(3);
  EXPECT_DEATH(MutationLog(g, Schedule(1, 1e300)), "overflows 64 bits");
}

// ------------------------------------------- evolving == from scratch

TEST(EvolvingTest, BfsMatchesFromScratchBitwise) {
  InputGraph raw = SmallRmat(21);
  const MutationLogOptions opt = Schedule(3, 0.03, MutatePreset::kUniform, 17);
  JobResult evolved = RunJob(EvolvingJob("bfs", raw, SmallConfig(3), opt));
  JobResult scratch = FromScratch("bfs", raw, opt, SmallConfig(3));
  EXPECT_EQ(evolved.values, scratch.values);
  ASSERT_EQ(evolved.metrics.mutation_epochs.size(), 3u);
  for (const MutationEpochRecord& rec : evolved.metrics.mutation_epochs) {
    EXPECT_GT(rec.edges_inserted + rec.edges_deleted, 0u);
    EXPECT_GT(rec.end_time, rec.start_time);  // the apply stage costs sim time
  }
  EXPECT_EQ(scratch.metrics.mutation_epochs.size(), 0u);
}

TEST(EvolvingTest, SsspMatchesFromScratch) {
  InputGraph raw = SmallRmat(22, /*weighted=*/true);
  const MutationLogOptions opt = Schedule(3, 0.03, MutatePreset::kHotspot, 19);
  JobResult evolved = RunJob(EvolvingJob("sssp", raw, SmallConfig(3), opt));
  JobResult scratch = FromScratch("sssp", raw, opt, SmallConfig(3));
  ExpectNearValues(evolved.values, scratch.values, 1e-3);
}

TEST(EvolvingTest, WccMatchesFromScratchBitwise) {
  InputGraph raw = SmallRmat(23);
  const MutationLogOptions opt = Schedule(3, 0.03, MutatePreset::kChurn, 23);
  JobResult evolved = RunJob(EvolvingJob("wcc", raw, SmallConfig(3), opt));
  JobResult scratch = FromScratch("wcc", raw, opt, SmallConfig(3));
  EXPECT_EQ(evolved.values, scratch.values);
}

TEST(EvolvingTest, FullRecomputeBaselineMatchesIncremental) {
  InputGraph raw = SmallRmat(24);
  const MutationLogOptions opt = Schedule(2, 0.05, MutatePreset::kUniform, 29);
  JobResult inc = RunJob(EvolvingJob("wcc", raw, SmallConfig(2), opt, /*incremental=*/true));
  JobResult full = RunJob(EvolvingJob("wcc", raw, SmallConfig(2), opt, /*incremental=*/false));
  EXPECT_EQ(inc.values, full.values);
  // The baseline restarts every vertex each epoch; incremental resets fewer
  // and therefore needs no more supersteps.
  ASSERT_EQ(full.metrics.mutation_epochs.size(), 2u);
  ASSERT_EQ(inc.metrics.mutation_epochs.size(), 2u);
  for (size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(full.metrics.mutation_epochs[k].resets, raw.num_vertices);
    EXPECT_LE(inc.metrics.mutation_epochs[k].resets,
              full.metrics.mutation_epochs[k].resets);
  }
  EXPECT_LE(inc.supersteps, full.supersteps);
}

TEST(EvolvingTest, MachineCountInvariant) {
  InputGraph raw = SmallRmat(25);
  const MutationLogOptions opt = Schedule(2, 0.04, MutatePreset::kUniform, 31);
  JobResult base = RunJob(EvolvingJob("wcc", raw, SmallConfig(1), opt));
  for (const int machines : {2, 4}) {
    JobResult r = RunJob(EvolvingJob("wcc", raw, SmallConfig(machines), opt));
    EXPECT_EQ(r.values, base.values) << "machines=" << machines;
  }
}

// The warm-startable BFS substitute is exact on a static graph too.
TEST(EvolvingTest, IncBfsMatchesStaticBfsOnStaticGraph) {
  InputGraph prepared = PrepareInput("bfs", SmallRmat(26));
  JobResult bfs = RunJob(MakeJob("bfs", prepared, SmallConfig(2)));
  Cluster<IncBfsProgram> cluster(SmallConfig(2), IncBfsProgram(0));
  auto inc = cluster.Run(prepared);
  EXPECT_EQ(inc.values, bfs.values);
}

// ------------------------------------------------- hand-checked seeders

// Undirected path 0-1-2-3 prepared into forward arc pairs.
InputGraph PreparedPath(uint64_t n, float weight = 1.0f) {
  InputGraph g;
  g.num_vertices = n;
  g.weighted = weight != 1.0f;
  for (uint64_t v = 0; v + 1 < n; ++v) {
    g.edges.push_back(Edge{v, v + 1, weight, kEdgeForward});
  }
  return MakeUndirected(g);
}

std::vector<Edge> Arcs(std::vector<Edge> raw) {
  std::vector<Edge> arcs;
  for (const Edge& e : raw) {
    arcs.push_back(Edge{e.src, e.dst, e.weight, kEdgeForward});
    arcs.push_back(Edge{e.dst, e.src, e.weight, kEdgeForward});
  }
  return arcs;
}

TEST(SeederTest, BfsDeleteCutsTailUnreachable) {
  const InputGraph old_p = PreparedPath(4);
  // Delete {1,2}: the tail {2,3} loses its only path and resets; no intact
  // vertex borders the reset region afterwards, so the frontier is empty.
  InputGraph new_raw;
  new_raw.num_vertices = 4;
  new_raw.edges = {Edge{0, 1, 1.0f, kEdgeForward}, Edge{2, 3, 1.0f, kEdgeForward}};
  const InputGraph new_p = MakeUndirected(new_raw);
  std::vector<IncBfsProgram::VertexState> st = {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  SeedStats s = SeedIncBfs(old_p, new_p, Arcs({Edge{1, 2, 1.0f, kEdgeForward}}), {}, 0, &st);
  EXPECT_EQ(s.resets, 2u);
  EXPECT_EQ(s.frontier, 0u);
  EXPECT_EQ(st[0].depth, 0);
  EXPECT_EQ(st[1].depth, 1);
  EXPECT_EQ(st[2].depth, IncBfsProgram::kUnreached);
  EXPECT_EQ(st[3].depth, IncBfsProgram::kUnreached);
  EXPECT_EQ(st[1].changed, 0);  // its arc into 2 was the deleted one
}

TEST(SeederTest, BfsAlternatePathKeepsBoundaryFrontier) {
  // Square: 0-1, 1-2, 0-3, 3-2. Depths 0,1,2 with 3 at depth 1. Deleting
  // {1,2} suspects only 2 (its other tight parent 3 is intact) and the
  // boundary vertex 3 re-announces.
  InputGraph old_raw;
  old_raw.num_vertices = 4;
  old_raw.edges = {Edge{0, 1, 1.0f, kEdgeForward}, Edge{1, 2, 1.0f, kEdgeForward},
                   Edge{0, 3, 1.0f, kEdgeForward}, Edge{3, 2, 1.0f, kEdgeForward}};
  const InputGraph old_p = MakeUndirected(old_raw);
  InputGraph new_raw = old_raw;
  new_raw.edges.erase(new_raw.edges.begin() + 1);
  const InputGraph new_p = MakeUndirected(new_raw);
  std::vector<IncBfsProgram::VertexState> st = {{0, 0}, {1, 0}, {2, 0}, {3, 0}};
  st[1].depth = 1;
  st[3].depth = 1;
  st[2].depth = 2;
  SeedStats s = SeedIncBfs(old_p, new_p, Arcs({Edge{1, 2, 1.0f, kEdgeForward}}), {}, 0, &st);
  EXPECT_EQ(s.resets, 1u);
  EXPECT_EQ(st[2].depth, IncBfsProgram::kUnreached);
  EXPECT_EQ(st[3].changed, 1);  // still borders 2 in the new graph
  EXPECT_EQ(st[0].changed, 0);
  EXPECT_EQ(s.frontier, 1u);
}

TEST(SeederTest, BfsInsertMarksEndpointFrontier) {
  const InputGraph old_p = PreparedPath(5);
  InputGraph new_raw;
  new_raw.num_vertices = 5;
  for (uint64_t v = 0; v + 1 < 5; ++v) {
    new_raw.edges.push_back(Edge{v, v + 1, 1.0f, kEdgeForward});
  }
  new_raw.edges.push_back(Edge{0, 4, 1.0f, kEdgeForward});
  const InputGraph new_p = MakeUndirected(new_raw);
  std::vector<IncBfsProgram::VertexState> st = {{0, 0}, {1, 0}, {2, 0}, {3, 0}, {4, 0}};
  for (uint64_t v = 0; v < 5; ++v) {
    st[v].depth = static_cast<int64_t>(v);
  }
  SeedStats s = SeedIncBfs(old_p, new_p, {}, Arcs({Edge{0, 4, 1.0f, kEdgeForward}}), 0, &st);
  EXPECT_EQ(s.resets, 0u);
  // Both endpoints of the inserted edge re-announce; depths are untouched.
  EXPECT_EQ(st[0].changed, 1);
  EXPECT_EQ(st[4].changed, 1);
  EXPECT_EQ(st[2].changed, 0);
  EXPECT_EQ(st[4].depth, 4);
}

TEST(SeederTest, SsspTightArcPropagation) {
  // Path 0 -2.0- 1 -3.0- 2: dists 0, 2, 5. Deleting {0,1} invalidates 1 and
  // transitively 2 (its dist came through the tight arc 1->2).
  InputGraph old_raw;
  old_raw.num_vertices = 3;
  old_raw.weighted = true;
  old_raw.edges = {Edge{0, 1, 2.0f, kEdgeForward}, Edge{1, 2, 3.0f, kEdgeForward}};
  const InputGraph old_p = MakeUndirected(old_raw);
  InputGraph new_raw = old_raw;
  new_raw.edges.erase(new_raw.edges.begin());
  const InputGraph new_p = MakeUndirected(new_raw);
  std::vector<SsspProgram::VertexState> st = {{0.0f, 0}, {2.0f, 0}, {5.0f, 0}};
  SeedStats s = SeedSssp(old_p, new_p, Arcs({Edge{0, 1, 2.0f, kEdgeForward}}), {}, 0, &st);
  EXPECT_EQ(s.resets, 2u);
  EXPECT_EQ(st[1].dist, SsspProgram::kInf);
  EXPECT_EQ(st[2].dist, SsspProgram::kInf);
  EXPECT_EQ(st[0].dist, 0.0f);
}

TEST(SeederTest, SsspNonTightDeleteKeepsState) {
  // Triangle 0-1 (1.0), 1-2 (1.0), 0-2 (5.0): dists 0, 1, 2. The 0-2 arc is
  // slack (5 > 2), so deleting it invalidates nothing.
  InputGraph old_raw;
  old_raw.num_vertices = 3;
  old_raw.weighted = true;
  old_raw.edges = {Edge{0, 1, 1.0f, kEdgeForward}, Edge{1, 2, 1.0f, kEdgeForward},
                   Edge{0, 2, 5.0f, kEdgeForward}};
  const InputGraph old_p = MakeUndirected(old_raw);
  InputGraph new_raw = old_raw;
  new_raw.edges.pop_back();
  const InputGraph new_p = MakeUndirected(new_raw);
  std::vector<SsspProgram::VertexState> st = {{0.0f, 0}, {1.0f, 0}, {2.0f, 0}};
  SeedStats s = SeedSssp(old_p, new_p, Arcs({Edge{0, 2, 5.0f, kEdgeForward}}), {}, 0, &st);
  EXPECT_EQ(s.resets, 0u);
  EXPECT_EQ(s.frontier, 0u);
  EXPECT_EQ(st[2].dist, 2.0f);
}

TEST(SeederTest, WccSplitResetsWholeComponent) {
  // Components {0,1,2} (path) and {3,4}. Deleting {1,2} splits the first:
  // all three reset to self-labels; {3,4} is untouched.
  InputGraph new_raw;
  new_raw.num_vertices = 5;
  new_raw.edges = {Edge{0, 1, 1.0f, kEdgeForward}, Edge{3, 4, 1.0f, kEdgeForward}};
  const InputGraph new_p = MakeUndirected(new_raw);
  std::vector<WccProgram::VertexState> st = {{0, 0}, {0, 0}, {0, 0}, {3, 0}, {3, 0}};
  SeedStats s = SeedWcc(new_p, {Edge{1, 2, 1.0f, kEdgeForward}}, {}, &st);
  EXPECT_EQ(s.resets, 3u);
  EXPECT_EQ(st[0].label, 0u);
  EXPECT_EQ(st[1].label, 1u);
  EXPECT_EQ(st[2].label, 2u);
  EXPECT_EQ(st[1].changed, 1);
  EXPECT_EQ(st[3].label, 3u);
  EXPECT_EQ(st[3].changed, 0);
}

TEST(SeederTest, WccCycleSurvivesDeleteWithoutResets) {
  // Triangle 0-1-2-0: deleting {0,1} leaves the component connected, so the
  // labels are certified and nothing resets or re-floods.
  InputGraph new_raw;
  new_raw.num_vertices = 3;
  new_raw.edges = {Edge{1, 2, 1.0f, kEdgeForward}, Edge{2, 0, 1.0f, kEdgeForward}};
  const InputGraph new_p = MakeUndirected(new_raw);
  std::vector<WccProgram::VertexState> st = {{0, 0}, {0, 0}, {0, 0}};
  SeedStats s = SeedWcc(new_p, {Edge{0, 1, 1.0f, kEdgeForward}}, {}, &st);
  EXPECT_EQ(s.resets, 0u);
  EXPECT_EQ(s.frontier, 0u);
  EXPECT_EQ(st[1].label, 0u);
}

TEST(SeederTest, WccInsertMarksBothEndpoints) {
  InputGraph new_raw;
  new_raw.num_vertices = 4;
  new_raw.edges = {Edge{0, 1, 1.0f, kEdgeForward}, Edge{2, 3, 1.0f, kEdgeForward},
                   Edge{1, 2, 1.0f, kEdgeForward}};
  const InputGraph new_p = MakeUndirected(new_raw);
  std::vector<WccProgram::VertexState> st = {{0, 0}, {0, 0}, {2, 0}, {2, 0}};
  SeedStats s = SeedWcc(new_p, {}, Arcs({Edge{1, 2, 1.0f, kEdgeForward}}), &st);
  EXPECT_EQ(s.resets, 0u);
  EXPECT_EQ(st[1].changed, 1);
  EXPECT_EQ(st[2].changed, 1);
  EXPECT_EQ(st[0].changed, 0);
  EXPECT_EQ(s.frontier, 2u);
}

TEST(SeederTest, WccParallelCopyDeleteKeepsComponent) {
  // 0=1 joined by two parallel copies: deleting one leaves the other, so
  // the component is intact and nothing resets.
  InputGraph new_raw;
  new_raw.num_vertices = 3;
  new_raw.edges = {Edge{0, 1, 1.0f, kEdgeForward}, Edge{1, 2, 1.0f, kEdgeForward}};
  const InputGraph new_p = MakeUndirected(new_raw);
  std::vector<WccProgram::VertexState> st = {{0, 0}, {0, 0}, {0, 0}};
  SeedStats s = SeedWcc(new_p, {Edge{0, 1, 1.0f, kEdgeForward}}, {}, &st);
  EXPECT_EQ(s.resets, 0u);
  EXPECT_EQ(s.frontier, 0u);
}

// The reference WCC seeder: one exhaustive reachability DFS on the new
// graph per deleted intra-component edge. SeedWcc must agree with it on
// every state and on SeedStats.
bool DfsConnected(const HostAdjacency& adj, VertexId from, VertexId to) {
  std::vector<VertexId> stack{from};
  std::unordered_set<VertexId> seen{from};
  while (!stack.empty()) {
    const VertexId u = stack.back();
    stack.pop_back();
    if (u == to) {
      return true;
    }
    for (const auto& arc : adj.Out(u)) {
      if (seen.insert(arc.dst).second) {
        stack.push_back(arc.dst);
      }
    }
  }
  return false;
}

SeedStats ReferenceSeedWcc(const InputGraph& new_prepared,
                           const std::vector<Edge>& deleted_edges,
                           const std::vector<Edge>& inserted_arcs,
                           std::vector<WccProgram::VertexState>* states) {
  auto& st = *states;
  const HostAdjacency adj(new_prepared);
  std::unordered_set<VertexId> reset_labels;
  for (const Edge& e : deleted_edges) {
    if (st[e.src].label == st[e.dst].label && reset_labels.count(st[e.src].label) == 0 &&
        !DfsConnected(adj, e.src, e.dst)) {
      reset_labels.insert(st[e.src].label);
    }
  }
  std::vector<uint8_t> frontier(st.size(), 0);
  for (const Edge& e : inserted_arcs) {
    frontier[e.src] = 1;
  }
  SeedStats stats;
  for (uint64_t u = 0; u < st.size(); ++u) {
    if (reset_labels.count(st[u].label) != 0) {
      st[u] = WccProgram::VertexState{u, 1};
      ++stats.resets;
      ++stats.frontier;
    } else {
      st[u].changed = frontier[u];
      stats.frontier += frontier[u];
    }
  }
  return stats;
}

TEST(SeederTest, WccMatchesReachabilityOracle) {
  // Random multi-component graphs: per group a random spanning tree (every
  // tree edge a bridge) plus extra intra-group edges (cycles), parallel
  // copies and self-loops. Each case deletes a random subset of records,
  // inserts a few random edges, and sometimes relabels vertices so deleted
  // edges' endpoints carry different labels.
  struct Coverage {
    uint64_t resets = 0, kept = 0, self_loops = 0, parallel = 0, cross_label = 0;
  } seen;
  constexpr int kCases = 256;
  for (int c = 0; c < kCases; ++c) {
    Rng rng(Mix64(0x5eedu, c));
    InputGraph raw;
    raw.num_vertices = 2 + rng.Below(40);
    const uint64_t n = raw.num_vertices;
    const uint64_t groups = 1 + rng.Below(std::min<uint64_t>(n, 5));
    std::vector<std::vector<VertexId>> members(groups);
    for (VertexId v = 0; v < n; ++v) {
      members[rng.Below(groups)].push_back(v);
    }
    for (const auto& m : members) {
      for (size_t i = 1; i < m.size(); ++i) {
        raw.edges.push_back(Edge{m[rng.Below(i)], m[i], 1.0f, kEdgeForward});
      }
      for (uint64_t extra = rng.Below(m.size() + 1); extra > 0 && !m.empty(); --extra) {
        const VertexId u = m[rng.Below(m.size())];
        switch (rng.Below(3)) {
          case 0:
            raw.edges.push_back(Edge{u, m[rng.Below(m.size())], 1.0f, kEdgeForward});
            break;
          case 1:
            raw.edges.push_back(Edge{u, u, 1.0f, kEdgeForward});
            break;
          default:
            if (!raw.edges.empty()) {
              raw.edges.push_back(raw.edges[rng.Below(raw.edges.size())]);
            }
        }
      }
    }
    if (raw.edges.empty()) {
      raw.edges.push_back(Edge{0, 1, 1.0f, kEdgeForward});
    }

    // Converged states of the pre-batch graph, optionally perturbed.
    const std::vector<VertexId> labels = ref::ComponentLabels(MakeUndirected(raw));
    std::vector<WccProgram::VertexState> states(n);
    for (VertexId v = 0; v < n; ++v) {
      states[v] = {labels[v], 0};
    }
    if (rng.Below(4) == 0) {
      for (uint64_t k = 1 + rng.Below(3); k > 0; --k) {
        states[rng.Below(n)].label = labels[rng.Below(n)];
      }
    }

    MutationBatch batch;
    std::vector<uint8_t> taken(raw.edges.size(), 0);
    for (uint64_t k = 1 + rng.Below(raw.edges.size()); k > 0; --k) {
      const uint64_t i = rng.Below(raw.edges.size());
      if (taken[i] == 0) {
        taken[i] = 1;
        batch.deletes.push_back(raw.edges[i]);
      }
    }
    for (uint64_t k = rng.Below(3); k > 0; --k) {
      batch.inserts.push_back(Edge{rng.Below(n), rng.Below(n), 1.0f, kEdgeForward});
    }
    InputGraph new_raw = raw;
    MutationLog::Apply(&new_raw, batch);
    const InputGraph new_p = MakeUndirected(new_raw);
    const std::vector<Edge> ins_arcs = Arcs(batch.inserts);

    std::vector<WccProgram::VertexState> got = states;
    std::vector<WccProgram::VertexState> want = states;
    const SeedStats got_stats = SeedWcc(new_p, batch.deletes, ins_arcs, &got);
    const SeedStats want_stats = ReferenceSeedWcc(new_p, batch.deletes, ins_arcs, &want);
    ASSERT_EQ(got_stats.resets, want_stats.resets) << "case " << c;
    ASSERT_EQ(got_stats.frontier, want_stats.frontier) << "case " << c;
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_EQ(got[v].label, want[v].label) << "case " << c << " vertex " << v;
      ASSERT_EQ(got[v].changed, want[v].changed) << "case " << c << " vertex " << v;
    }

    (want_stats.resets > 0 ? seen.resets : seen.kept) += 1;
    for (const Edge& d : batch.deletes) {
      seen.self_loops += d.src == d.dst;
      seen.cross_label += states[d.src].label != states[d.dst].label;
      for (const Edge& e : new_raw.edges) {
        if (SameEdge(d, e) && d.src != d.dst) {
          ++seen.parallel;  // a surviving copy of a deleted record
          break;
        }
      }
    }
  }
  EXPECT_GT(seen.resets, 0u);
  EXPECT_GT(seen.kept, 0u);
  EXPECT_GT(seen.self_loops, 0u);
  EXPECT_GT(seen.parallel, 0u);
  EXPECT_GT(seen.cross_label, 0u);
}

// ------------------------------------------------------- crash replay

// Crash a machine in the middle of a mutation apply stage: the commit point
// had not been reached, so recovery must rewind to the last committed epoch
// and replay the batch. Values must still match the from-scratch run.
TEST(EvolvingRecoveryTest, CrashDuringMutationStageReplays) {
  InputGraph raw = SmallRmat(31);
  const MutationLogOptions opt = Schedule(3, 0.04, MutatePreset::kUniform, 37);
  ClusterConfig cfg = SmallConfig(4);
  cfg.checkpoint_interval = 2;

  JobResult healthy = RunJob(EvolvingJob("wcc", raw, cfg, opt));
  ASSERT_EQ(healthy.metrics.mutation_epochs.size(), 3u);
  const MutationEpochRecord& target = healthy.metrics.mutation_epochs[1];
  ASSERT_GT(target.end_time, target.start_time);

  JobSpec spec = EvolvingJob("wcc", raw, cfg, opt);
  spec.recover = true;
  spec.cluster.faults =
      FaultSchedule::MachineCrash(2, (target.start_time + target.end_time) / 2);
  JobResult recovered = RunJob(spec);
  EXPECT_TRUE(recovered.recovery.crash_detected);
  EXPECT_TRUE(recovered.metrics.recovered);
  EXPECT_EQ(recovered.values, healthy.values);
  // The replacement replayed at least the epoch the crash interrupted.
  EXPECT_GE(recovered.metrics.mutation_epochs.size(), 1u);
}

TEST(EvolvingRecoveryTest, RescaledRecoveryReplaysOnSurvivors) {
  InputGraph raw = SmallRmat(32);
  const MutationLogOptions opt = Schedule(2, 0.04, MutatePreset::kHotspot, 41);
  ClusterConfig cfg = SmallConfig(4, 51);
  cfg.checkpoint_interval = 2;

  JobResult healthy = RunJob(EvolvingJob("bfs", raw, cfg, opt));
  ASSERT_EQ(healthy.metrics.mutation_epochs.size(), 2u);
  const MutationEpochRecord& target = healthy.metrics.mutation_epochs[0];

  JobSpec spec = EvolvingJob("bfs", raw, cfg, opt);
  spec.recover = true;
  spec.recovery.replacement_machines = 3;  // the N-1 survivors absorb the work
  spec.cluster.faults =
      FaultSchedule::MachineCrash(1, (target.start_time + target.end_time) / 2);
  JobResult recovered = RunJob(spec);
  EXPECT_TRUE(recovered.recovery.crash_detected);
  EXPECT_EQ(recovered.recovery.machines_after, 3);
  EXPECT_EQ(recovered.values, healthy.values);
}

// Crash AFTER an epoch's commit point: the committed side may be kEdgesB;
// recovery must import that side (relabeled kEdges) and not replay epoch 0.
TEST(EvolvingRecoveryTest, CrashAfterCommitResumesMutatedEdges) {
  InputGraph raw = SmallRmat(33);
  const MutationLogOptions opt = Schedule(2, 0.04, MutatePreset::kUniform, 43);
  ClusterConfig cfg = SmallConfig(3);
  cfg.checkpoint_interval = 2;

  JobResult healthy = RunJob(EvolvingJob("wcc", raw, cfg, opt));
  ASSERT_EQ(healthy.metrics.mutation_epochs.size(), 2u);
  // Kill between the two epochs, well after epoch 0's apply finished.
  const TimeNs between = (healthy.metrics.mutation_epochs[0].end_time +
                          healthy.metrics.mutation_epochs[1].start_time) /
                         2;
  ASSERT_GT(between, healthy.metrics.mutation_epochs[0].end_time);

  JobSpec spec = EvolvingJob("wcc", raw, cfg, opt);
  spec.recover = true;
  spec.cluster.faults = FaultSchedule::MachineCrash(1, between);
  JobResult recovered = RunJob(spec);
  EXPECT_TRUE(recovered.recovery.crash_detected);
  EXPECT_EQ(recovered.values, healthy.values);
}

// Without recover, a machine crash ends an evolving job exactly like a
// static one: the job reports the crash and no recovery runs.
TEST(EvolvingRecoveryTest, CrashWithoutRecoverIsNotRecovered) {
  InputGraph raw = SmallRmat(35);
  const MutationLogOptions opt = Schedule(2, 0.04, MutatePreset::kUniform, 53);
  ClusterConfig cfg = SmallConfig(3);
  cfg.checkpoint_interval = 2;

  JobResult healthy = RunJob(EvolvingJob("wcc", raw, cfg, opt));
  ASSERT_FALSE(healthy.crashed);

  JobSpec spec = EvolvingJob("wcc", raw, cfg, opt);
  ASSERT_FALSE(spec.recover);
  spec.cluster.faults = FaultSchedule::MachineCrash(1, healthy.metrics.total_time / 2);
  JobResult crashed = RunJob(spec);
  EXPECT_TRUE(crashed.crashed);
  EXPECT_FALSE(crashed.recovery.crash_detected);
  EXPECT_FALSE(crashed.metrics.recovered);
  EXPECT_FALSE(crashed.sched.completed);
}

// ------------------------------------------------------- compositions

TEST(EvolvingCompositionTest, PreemptedSlicesMatchIsolatedBitwise) {
  InputGraph raw = SmallRmat(34);
  const MutationLogOptions opt = Schedule(2, 0.04, MutatePreset::kUniform, 47);
  JobSpec spec = EvolvingJob("wcc", raw, SmallConfig(3), opt);
  JobResult isolated = RunJob(spec);

  auto exec = MakeJobExecution(spec);
  int slices = 0;
  for (;;) {
    SliceResult slice = exec->RunSlice(static_cast<int64_t>(exec->next_superstep() + 2));
    ++slices;
    if (slice.completed) {
      break;
    }
  }
  EXPECT_GE(slices, 2);
  AlgoResult sliced = exec->TakeResult();
  EXPECT_EQ(sliced.supersteps, isolated.supersteps);
  EXPECT_EQ(sliced.values, isolated.values);
}

TEST(EvolvingCompositionTest, StealModesAgreeBitwise) {
  InputGraph raw = SmallRmat(35);
  const MutationLogOptions opt = Schedule(2, 0.04, MutatePreset::kHotspot, 53);
  JobResult base = RunJob(EvolvingJob("bfs", raw, SmallConfig(4), opt));
  for (const StealMode mode :
       {StealMode::kStealOne, StealMode::kStealHalf, StealMode::kAdaptive}) {
    ClusterConfig cfg = SmallConfig(4);
    cfg.steal.mode = mode;
    JobResult r = RunJob(EvolvingJob("bfs", raw, cfg, opt));
    EXPECT_EQ(r.values, base.values) << StealModeName(mode);
  }
}

TEST(EvolvingCompositionTest, TightMemoryBudgetAgrees) {
  InputGraph raw = SmallRmat(36);
  const MutationLogOptions opt = Schedule(2, 0.05, MutatePreset::kChurn, 59);
  JobResult base = RunJob(EvolvingJob("sssp", raw, SmallConfig(2), opt));
  ClusterConfig tight = SmallConfig(2);
  tight.memory_budget_bytes = 4 << 10;  // half the usual pool: forced spills
  JobResult r = RunJob(EvolvingJob("sssp", raw, tight, opt));
  EXPECT_EQ(r.values, base.values);
}

// ------------------------------------------------ import validation fix

// A malformed input whose edge list references vertices >= num_vertices
// used to flow through ImportRepartitioned silently (PartitionOf only
// range-checks the SOURCE endpoint). The re-bin now rejects both ends.
TEST(ImportValidationTest, RepartitionRejectsOutOfRangeEdges) {
  InputGraph bad;
  bad.num_vertices = 8;
  // 6 -> 12: dst beyond the vertex count. Vertex 6 is unreachable from the
  // BFS source, so the run converges without ever scattering the bad edge.
  bad.edges = {Edge{0, 1, 1.0f, kEdgeForward}, Edge{1, 2, 1.0f, kEdgeForward},
               Edge{6, 12, 1.0f, kEdgeForward}};
  ClusterConfig cfg = SmallConfig(3);
  Cluster<BfsProgram> donor(cfg, BfsProgram(0));
  auto run = donor.Run(bad);
  ASSERT_FALSE(run.crashed);

  ClusterConfig rcfg = SmallConfig(2);
  Cluster<BfsProgram> replacement(rcfg, BfsProgram(0));
  replacement.PreparePartitioning(bad.num_vertices);
  EXPECT_DEATH(replacement.ImportRepartitioned(donor, SetKind::kVertices, GraphMeta::For(bad)),
               "references a vertex beyond");
}

}  // namespace
}  // namespace chaos
