#include "graph/mutation_log.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "util/common.h"
#include "util/rng.h"

namespace chaos {
namespace {

// Exact-record key for delete matching: weight compared by bit pattern so
// the multiset semantics are total (no NaN/-0.0 surprises). Must be a
// lossless encoding, not a hash — a collision would make Apply remove an
// edge the batch never named, and the incremental seeders' reseed math
// relies on the graph diff being exactly the batch's records. The hash
// below only picks a bucket; key equality decides the match.
using EdgeKey = std::tuple<VertexId, VertexId, uint32_t, uint32_t>;

EdgeKey ExactKey(const Edge& e) {
  uint32_t wbits = 0;
  static_assert(sizeof(wbits) == sizeof(e.weight));
  std::memcpy(&wbits, &e.weight, sizeof(wbits));
  return EdgeKey{e.src, e.dst, wbits, e.flags};
}

struct EdgeKeyHash {
  size_t operator()(const EdgeKey& k) const {
    const auto& [src, dst, wbits, flags] = k;
    return Mix64(Mix64(src, dst), (uint64_t{wbits} << 32) | flags);
  }
};

Edge RandomInsert(Rng& rng, const InputGraph& g, VertexId hot_base, VertexId hot_span,
                  bool hotspot) {
  Edge e;
  const VertexId n = g.num_vertices;
  auto pick = [&](bool hot) -> VertexId {
    if (hot && hot_span > 0) {
      return hot_base + rng.Below(hot_span);
    }
    return rng.Below(n);
  };
  // Hotspot inserts anchor one endpoint in the hot set 7 times out of 8.
  const bool hot = hotspot && rng.Below(8) != 0;
  e.src = pick(hot && rng.Below(2) == 0);
  e.dst = pick(hot);
  if (e.src == e.dst) {
    e.dst = (e.dst + 1) % n;
  }
  e.weight = g.weighted ? static_cast<float>(1 + rng.Below(9)) : 1.0f;
  e.flags = kEdgeForward;
  return e;
}

}  // namespace

const char* MutatePresetName(MutatePreset preset) {
  switch (preset) {
    case MutatePreset::kUniform:
      return "uniform";
    case MutatePreset::kHotspot:
      return "hotspot";
    case MutatePreset::kChurn:
      return "churn";
  }
  return "?";
}

std::optional<MutatePreset> MutatePresetByName(const std::string& name) {
  if (name == "uniform") {
    return MutatePreset::kUniform;
  }
  if (name == "hotspot") {
    return MutatePreset::kHotspot;
  }
  if (name == "churn") {
    return MutatePreset::kChurn;
  }
  return std::nullopt;
}

MutationLog::MutationLog(const InputGraph& base, const MutationLogOptions& opt)
    : base_(base) {
  CHAOS_CHECK_GT(base.num_vertices, 1u);
  CHAOS_CHECK(std::isfinite(opt.rate) && opt.rate > 0.0);
  CHAOS_CHECK(opt.delete_fraction >= 0.0 && opt.delete_fraction <= 1.0);

  InputGraph current = base;
  // Hot set: a contiguous 1/16 slice of the id space, placed by the seed.
  const VertexId hot_span = std::max<VertexId>(current.num_vertices / 16, 1);
  const VertexId hot_base =
      Mix64(opt.seed, 0x407u) % (current.num_vertices - hot_span + 1);
  const bool hotspot = opt.preset == MutatePreset::kHotspot;

  std::vector<Edge> prev_inserts;  // churn: last batch's inserts
  batches_.reserve(opt.num_batches);
  for (uint32_t k = 0; k < opt.num_batches; ++k) {
    Rng rng(Mix64(opt.seed, 0x6d75u + k));  // per-batch stream
    MutationBatch b;
    const uint64_t edges_now = current.edges.size();
    const double scaled = opt.rate * static_cast<double>(edges_now) + 0.5;
    CHAOS_CHECK_MSG(scaled < 0x1p64, "mutation rate x edge count overflows 64 bits");
    const uint64_t total = std::max<uint64_t>(static_cast<uint64_t>(scaled), 1);
    uint64_t num_del = static_cast<uint64_t>(
        opt.delete_fraction * static_cast<double>(total) + 0.5);
    num_del = std::min(num_del, edges_now);

    // ---- Deletes: distinct indices into the current edge list.
    std::unordered_set<uint64_t> taken;
    auto take_index = [&](uint64_t idx) -> bool {
      if (!taken.insert(idx).second) {
        return false;
      }
      b.deletes.push_back(current.edges[idx]);
      return true;
    };
    if (opt.preset == MutatePreset::kChurn && !prev_inserts.empty()) {
      // Short-lived edges: retire the previous batch's inserts first. They
      // live at the tail of the current edge list (Apply appends inserts).
      const uint64_t tail = edges_now - prev_inserts.size();
      for (uint64_t i = 0; i < prev_inserts.size() && b.deletes.size() < num_del; ++i) {
        take_index(tail + i);
      }
    }
    uint64_t attempts = 0;
    while (b.deletes.size() < num_del && attempts < 64 * num_del + 64) {
      ++attempts;
      const uint64_t idx = rng.Below(edges_now);
      if (hotspot) {
        // Bias deletes toward hot-set edges: non-hot picks survive 1 in 4.
        const Edge& e = current.edges[idx];
        const bool touches_hot = (e.src >= hot_base && e.src < hot_base + hot_span) ||
                                 (e.dst >= hot_base && e.dst < hot_base + hot_span);
        if (!touches_hot && rng.Below(4) != 0) {
          continue;
        }
      }
      take_index(idx);
    }

    // ---- Inserts.
    const uint64_t num_ins = total - std::min<uint64_t>(num_del, total);
    b.inserts.reserve(num_ins);
    for (uint64_t i = 0; i < num_ins; ++i) {
      b.inserts.push_back(RandomInsert(rng, current, hot_base, hot_span, hotspot));
    }

    prev_inserts = b.inserts;
    Apply(&current, b);
    batches_.push_back(std::move(b));
  }
}

void MutationLog::Apply(InputGraph* g, const MutationBatch& b) {
  if (!b.deletes.empty()) {
    // Multiset subtraction: remove one occurrence per delete record, keeping
    // the survivors' relative order (determinism of downstream binning).
    std::unordered_map<EdgeKey, uint64_t, EdgeKeyHash> pending;
    pending.reserve(b.deletes.size());
    for (const Edge& e : b.deletes) {
      ++pending[ExactKey(e)];
    }
    uint64_t remaining = b.deletes.size();
    std::vector<Edge> kept;
    kept.reserve(g->edges.size() - std::min<uint64_t>(remaining, g->edges.size()));
    for (const Edge& e : g->edges) {
      if (remaining > 0) {
        auto it = pending.find(ExactKey(e));
        if (it != pending.end() && it->second > 0) {
          --it->second;
          --remaining;
          continue;
        }
      }
      kept.push_back(e);
    }
    CHAOS_CHECK_EQ(remaining, 0u);  // every delete must name a present edge
    g->edges = std::move(kept);
  }
  for (const Edge& e : b.inserts) {
    CHAOS_CHECK(e.src < g->num_vertices && e.dst < g->num_vertices);
    g->edges.push_back(e);
  }
}

InputGraph MutationLog::GraphAfter(uint64_t k) const {
  CHAOS_CHECK_LE(k, batches_.size());
  InputGraph g = base_;
  for (uint64_t i = 0; i < k; ++i) {
    Apply(&g, batches_[i]);
  }
  return g;
}

}  // namespace chaos
