#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/common.h"

namespace chaos {
namespace {

float RandomWeight(Rng& rng, double max_weight) {
  // Strictly positive, effectively-distinct weights (helps MSF tie-breaks).
  return static_cast<float>(rng.NextDouble() * (max_weight - 0.001) + 0.001);
}

// Samples an index in [0, n) from a Zipf-like distribution with exponent s
// using inverse-CDF over precomputed cumulative weights.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s) : cdf_(n) {
    CHAOS_CHECK_GT(n, 0u);
    double total = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = total;
    }
    for (auto& v : cdf_) {
      v /= total;
    }
  }

  uint64_t Sample(Rng& rng) const {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<uint64_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// Validates `options` and returns the number of edges it asks for.
uint64_t RmatEdgeCount(const RmatOptions& options) {
  CHAOS_CHECK_LE(options.scale, 40u);
  for (const double p : {options.a, options.b, options.c}) {
    // Also rejects NaN. Non-negative a, b, c keep the thresholds in
    // RmatEdges ordered, which its quadrant decode relies on.
    CHAOS_CHECK_MSG(p >= 0.0 && p <= 1.0, "RMAT quadrant probabilities must lie in [0, 1]");
  }
  const double d = 1.0 - options.a - options.b - options.c;
  CHAOS_CHECK_MSG(d > 0.0, "RMAT quadrant probabilities must sum to < 1");
  CHAOS_CHECK_MSG(options.edges_per_vertex <= (UINT64_MAX >> options.scale),
                  "RMAT edge count 2^scale * edges_per_vertex overflows 64 bits");
  return uint64_t{options.edges_per_vertex} << options.scale;
}

// The smallest 53-bit draw x whose NextDouble() value x * 2^-53 is >= t.
// Both scalings by 2^53 are exact, so u < t holds exactly when
// x < Threshold53(t).
uint64_t Threshold53(double t) { return static_cast<uint64_t>(std::ceil(t * 0x1.0p53)); }

// Edges generated per block. A block's raw ids prefetch their permutation
// entries as they are drawn and are relabelled together afterwards, so the
// random reads of a large permutation overlap instead of each stalling the
// edge after it.
constexpr uint64_t kRmatBlockEdges = 64;

// Shared RMAT core: one code path drives both the materializing and the
// streaming entry points, so their RNG consumption (and thus the edge
// sequence) cannot diverge. `emit(edges, count)` receives the sequence in
// order and returns whether to keep generating. Every level consumes one
// Next(), and a weighted edge one more draw after its levels;
// tests/graph_test.cc pins the resulting sequences by hash.
template <typename EmitFn>
void RmatEdges(const RmatOptions& options, EmitFn&& emit) {
  const uint64_t m = RmatEdgeCount(options);
  const uint64_t n = 1ull << options.scale;

  Rng rng(options.seed);
  std::vector<uint32_t> perm;
  if (options.permute_ids) {
    CHAOS_CHECK_LE(n, (1ull << 32));
    perm = rng.Permutation(static_cast<uint32_t>(n));
  }

  // A level picks quadrant a, b, c or d as NextDouble() < a, < ab, < abc
  // would, with the sums rounded to double as written here.
  const double ab = options.a + options.b;
  const double abc = ab + options.c;
  const uint64_t t_a = Threshold53(options.a);
  const uint64_t t_ab = Threshold53(ab);
  const uint64_t t_abc = Threshold53(abc);
  Edge block[kRmatBlockEdges];
  for (uint64_t begin = 0; begin < m; begin += kRmatBlockEdges) {
    const uint64_t count = std::min(kRmatBlockEdges, m - begin);
    for (uint64_t k = 0; k < count; ++k) {
      // The number of thresholds a level's draw reaches is its quadrant
      // q = 2 * src_bit + dst_bit (a -> 00, b -> 01, c -> 10, d -> 11), so
      // src_bit = [x >= t_ab] and dst_bit = [x >= t_a] + [x >= t_abc] - src_bit.
      // Summing both sides with place values gives dst = outer - src.
      uint64_t src = 0;
      uint64_t outer = 0;
      for (uint32_t level = 0; level < options.scale; ++level) {
        const uint64_t x = rng.Next() >> 11;
        src = 2 * src + uint64_t{x >= t_ab};
        outer = 2 * outer + uint64_t{x >= t_a} + uint64_t{x >= t_abc};
      }
      Edge& e = block[k];
      e.src = src;
      e.dst = outer - src;
      e.weight = options.weighted ? RandomWeight(rng, 100.0) : 1.0f;
      if (options.permute_ids) {
        __builtin_prefetch(&perm[e.src]);
        __builtin_prefetch(&perm[e.dst]);
      }
    }
    if (options.permute_ids) {
      for (uint64_t k = 0; k < count; ++k) {
        block[k].src = perm[block[k].src];
        block[k].dst = perm[block[k].dst];
      }
    }
    if (!emit(block, count)) {
      return;
    }
  }
}

}  // namespace

InputGraph GenerateRmat(const RmatOptions& options) {
  InputGraph g;
  g.edges.reserve(RmatEdgeCount(options));
  g.num_vertices = 1ull << options.scale;
  g.weighted = options.weighted;
  RmatEdges(options, [&g](const Edge* edges, uint64_t count) {
    g.edges.insert(g.edges.end(), edges, edges + count);
    return true;
  });
  return g;
}

void StreamRmat(const RmatOptions& options, uint64_t batch_edges,
                const std::function<bool(const std::vector<Edge>&)>& sink) {
  CHAOS_CHECK_GT(batch_edges, 0u);
  std::vector<Edge> batch;
  batch.reserve(batch_edges);
  bool more = true;
  RmatEdges(options, [&](const Edge* edges, uint64_t count) {
    while (more && count > 0) {
      const uint64_t take = std::min(count, batch_edges - batch.size());
      batch.insert(batch.end(), edges, edges + take);
      edges += take;
      count -= take;
      if (batch.size() == batch_edges) {
        more = sink(batch);
        batch.clear();
      }
    }
    return more;
  });
  if (more && !batch.empty()) {
    sink(batch);
  }
}

InputGraph GenerateWebGraph(const WebGraphOptions& options) {
  CHAOS_CHECK_GT(options.num_hosts, 0u);
  CHAOS_CHECK_GE(options.num_pages, options.num_hosts);
  InputGraph g;
  g.num_vertices = options.num_pages;
  g.weighted = options.weighted;

  Rng rng(options.seed);

  // Assign pages to hosts with Zipf-distributed host sizes.
  ZipfSampler host_sampler(options.num_hosts, options.host_zipf_exponent);
  std::vector<uint64_t> host_of(options.num_pages);
  std::vector<std::vector<uint64_t>> host_pages(options.num_hosts);
  for (uint64_t p = 0; p < options.num_pages; ++p) {
    const uint64_t h = p < options.num_hosts ? p : host_sampler.Sample(rng);
    host_of[p] = h;
    host_pages[h].push_back(p);
  }

  // Popular cross-host targets (global Zipf over pages).
  ZipfSampler page_sampler(options.num_pages, options.page_zipf_exponent);

  const auto target_edges =
      static_cast<uint64_t>(options.mean_out_degree * static_cast<double>(options.num_pages));
  g.edges.reserve(target_edges);
  for (uint64_t i = 0; i < target_edges; ++i) {
    // Source pages: heavier pages link more (size-biased via global Zipf).
    const uint64_t src = page_sampler.Sample(rng);
    uint64_t dst;
    if (rng.Bernoulli(options.intra_host_fraction)) {
      const auto& pages = host_pages[host_of[src]];
      dst = pages[rng.Below(pages.size())];
    } else {
      dst = page_sampler.Sample(rng);
    }
    Edge e;
    e.src = src;
    e.dst = dst;
    e.weight = options.weighted ? RandomWeight(rng, 10.0) : 1.0f;
    g.edges.push_back(e);
  }
  return g;
}

InputGraph GenerateGridGraph(const GridGraphOptions& options) {
  InputGraph g;
  const uint64_t w = options.width;
  const uint64_t h = options.height;
  g.num_vertices = w * h;
  g.weighted = options.weighted;
  Rng rng(options.seed);
  auto id = [w](uint64_t x, uint64_t y) { return y * w + x; };
  for (uint64_t y = 0; y < h; ++y) {
    for (uint64_t x = 0; x < w; ++x) {
      if (x + 1 < w) {
        const float weight =
            options.weighted ? RandomWeight(rng, options.max_weight) : 1.0f;
        g.edges.push_back(Edge{id(x, y), id(x + 1, y), weight, kEdgeForward});
        g.edges.push_back(Edge{id(x + 1, y), id(x, y), weight, kEdgeForward});
      }
      if (y + 1 < h) {
        const float weight =
            options.weighted ? RandomWeight(rng, options.max_weight) : 1.0f;
        g.edges.push_back(Edge{id(x, y), id(x, y + 1), weight, kEdgeForward});
        g.edges.push_back(Edge{id(x, y + 1), id(x, y), weight, kEdgeForward});
      }
    }
  }
  return g;
}

InputGraph GenerateUniformRandom(uint64_t num_vertices, uint64_t num_edges, bool weighted,
                                 uint64_t seed) {
  CHAOS_CHECK_GT(num_vertices, 0u);
  InputGraph g;
  g.num_vertices = num_vertices;
  g.weighted = weighted;
  g.edges.reserve(num_edges);
  Rng rng(seed);
  for (uint64_t i = 0; i < num_edges; ++i) {
    Edge e;
    e.src = rng.Below(num_vertices);
    e.dst = rng.Below(num_vertices);
    e.weight = weighted ? RandomWeight(rng, 100.0) : 1.0f;
    g.edges.push_back(e);
  }
  return g;
}

}  // namespace chaos
