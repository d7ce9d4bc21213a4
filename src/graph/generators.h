// Synthetic graph generators.
//
//  * RmatGenerator — the paper's RMAT graphs (Chakrabarti et al. [9]):
//    a scale-n graph has 2^n vertices and 2^(n+4) edges (16 edges/vertex).
//  * WebGraphGenerator — substitute for the Data Commons 2014 hyperlink
//    graph used in §9.2/§9.3: host-clustered power-law web topology.
//  * GridGraphGenerator — road-network-like 2D grid (low degree, large
//    diameter), used by the SSSP example.
#ifndef CHAOS_GRAPH_GENERATORS_H_
#define CHAOS_GRAPH_GENERATORS_H_

#include <cstdint>
#include <functional>

#include "graph/types.h"
#include "util/rng.h"

namespace chaos {

// Generation CHECK-fails unless a, b and c each lie in [0, 1] with
// a + b + c < 1, scale <= 40 (<= 32 with permute_ids), and the edge count
// edges_per_vertex * 2^scale fits in 64 bits.
struct RmatOptions {
  uint32_t scale = 16;          // 2^scale vertices
  uint32_t edges_per_vertex = 16;
  double a = 0.57, b = 0.19, c = 0.19;  // d = 1 - a - b - c
  bool weighted = false;
  // Randomly permute vertex ids so that degree is not correlated with id.
  // The paper's inputs are unsorted edge lists over arbitrary ids; keeping
  // the raw recursive ids (permute=false) concentrates heavy vertices at low
  // ids, which is useful for skew experiments.
  bool permute_ids = true;
  uint64_t seed = 1;
};

// Each edge descends `scale` levels of the adjacency matrix, one Next()
// draw per level picking a quadrant as NextDouble() < a, < a+b, < a+b+c
// would (compared exactly in integers, without branches); a weighted edge
// then draws its weight. The sequence is pinned by hash in
// tests/graph_test.cc.
InputGraph GenerateRmat(const RmatOptions& options);

// Streams the exact edge sequence GenerateRmat(options) produces — same RNG
// consumption, same permutation, bit-identical edges (pinned by
// tests/graph_test.cc) — in batches of at most `batch_edges`, without ever
// materializing the full edge list. This is what lets bench_fig_scale
// ingest paper-scale graphs (>= 100M edges in CI, >= 1B locally) with host
// memory bounded by one batch plus the simulated chunks. The sink returns
// whether to keep generating; returning false stops after the current
// batch (used to sample a prefix without paying for the full stream).
void StreamRmat(const RmatOptions& options, uint64_t batch_edges,
                const std::function<bool(const std::vector<Edge>&)>& sink);

struct WebGraphOptions {
  uint64_t num_pages = 1 << 16;
  double mean_out_degree = 20.0;
  double intra_host_fraction = 0.8;  // links staying within a host
  uint64_t num_hosts = 1 << 8;
  double host_zipf_exponent = 1.2;   // host popularity skew
  double page_zipf_exponent = 1.1;   // target-page popularity skew within host
  bool weighted = false;
  uint64_t seed = 1;
};

InputGraph GenerateWebGraph(const WebGraphOptions& options);

struct GridGraphOptions {
  uint32_t width = 256;
  uint32_t height = 256;
  bool weighted = true;   // road lengths
  double max_weight = 10.0;
  uint64_t seed = 1;
};

// 4-connected grid; produces directed edges in both directions per road.
InputGraph GenerateGridGraph(const GridGraphOptions& options);

// Uniform random (Erdos-Renyi style) directed multigraph; handy for tests.
InputGraph GenerateUniformRandom(uint64_t num_vertices, uint64_t num_edges, bool weighted,
                                 uint64_t seed);

}  // namespace chaos

#endif  // CHAOS_GRAPH_GENERATORS_H_
