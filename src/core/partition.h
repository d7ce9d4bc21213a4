// Streaming partitions (paper §3).
//
// The number of partitions is the smallest multiple of the number of
// machines such that each partition's vertex state (plus accumulators) fits
// in the per-machine memory budget. Vertices are partitioned into ranges of
// consecutive ids; an edge belongs to the partition of its source vertex.
// This is the only pre-processing Chaos does.
#ifndef CHAOS_CORE_PARTITION_H_
#define CHAOS_CORE_PARTITION_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "util/common.h"

namespace chaos {

// Exact unsigned 64-bit division by a run-time constant d >= 1 through a
// precomputed reciprocal (Granlund & Montgomery, "Division by invariant
// integers using multiplication", PLDI 1994, Fig. 4.1): a multiply-high,
// a subtract, an add and two shifts instead of a 64-bit divq, with no
// branch. Exact for every 64-bit numerator. With l = ceil(log2 d) the
// multiplier is floor(2^64 (2^l - d) / d) + 1, which fits 64 bits, and the
// shifts are min(l, 1) and max(l - 1, 0). For d = 2^l (d = 1 included) the
// multiplier is 1, so its high product is 0 and the shifts alone divide.
class Reciprocal64 {
 public:
  explicit Reciprocal64(uint64_t d) {
    CHAOS_CHECK_GT(d, 0u);
    const auto l = static_cast<uint32_t>(std::bit_width(d - 1));
    const unsigned __int128 excess = (static_cast<unsigned __int128>(1) << l) - d;
    multiplier_ = static_cast<uint64_t>((excess << 64) / d) + 1;
    shift1_ = std::min(l, 1u);
    shift2_ = l == 0 ? 0 : l - 1;
  }

  uint64_t Divide(uint64_t n) const {
    const auto t =
        static_cast<uint64_t>((static_cast<unsigned __int128>(multiplier_) * n) >> 64);
    return (t + ((n - t) >> shift1_)) >> shift2_;
  }

 private:
  uint64_t multiplier_;
  uint32_t shift1_;
  uint32_t shift2_;
};

class Partitioning {
 public:
  // `bytes_per_vertex` covers the in-memory footprint per vertex while a
  // partition is loaded (vertex state + accumulator).
  static Partitioning Compute(uint64_t num_vertices, int machines, uint64_t bytes_per_vertex,
                              uint64_t memory_budget_bytes);

  // A fixed partition count (tests and baselines).
  static Partitioning WithPartitions(uint64_t num_vertices, int machines,
                                     uint32_t num_partitions);

  // Called for every emitted update, so the divide by verts_per_partition
  // goes through its precomputed reciprocal. The range check stays on in
  // every build: it is one well-predicted compare.
  PartitionId PartitionOf(VertexId v) const {
    CHAOS_CHECK_LT(v, num_vertices_);
    return static_cast<PartitionId>(per_partition_.Divide(v));
  }

  VertexId Base(PartitionId p) const {
    CHAOS_CHECK_LT(p, num_partitions_);
    return static_cast<VertexId>(p) * verts_per_partition_;
  }

  uint64_t Count(PartitionId p) const {
    CHAOS_CHECK_LT(p, num_partitions_);
    const VertexId base = Base(p);
    // Ceil-rounded verts_per_partition can push trailing partitions past the
    // vertex range entirely; they are empty (guards the unsigned underflow
    // of num_vertices - base, which made phantom vertices appear past the
    // end of the graph).
    if (base >= num_vertices_) {
      return 0;
    }
    const uint64_t remaining = num_vertices_ - base;
    return remaining < verts_per_partition_ ? remaining : verts_per_partition_;
  }

  // Initial assignment: engine i is the master of partitions i, i+m, i+2m...
  MachineId Master(PartitionId p) const {
    CHAOS_CHECK_LT(p, num_partitions_);
    return static_cast<MachineId>(p % static_cast<uint32_t>(machines_));
  }

  uint32_t num_partitions() const { return num_partitions_; }
  uint64_t num_vertices() const { return num_vertices_; }
  int machines() const { return machines_; }
  uint64_t verts_per_partition() const { return verts_per_partition_; }
  // k in §5: partitions initially assigned to each computation engine.
  uint32_t partitions_per_machine() const {
    return num_partitions_ / static_cast<uint32_t>(machines_);
  }

 private:
  Partitioning(uint64_t num_vertices, int machines, uint32_t num_partitions);

  uint64_t num_vertices_;
  int machines_;
  uint32_t num_partitions_;
  uint64_t verts_per_partition_;
  Reciprocal64 per_partition_;
};

// Dense per-vertex counts (pre-processing's out-degrees): one array per
// partition, Count(p) long, allocated when the partition's first vertex
// is counted, so a machine pays only for the partitions it touches.
class PartitionedCounts {
 public:
  explicit PartitionedCounts(const Partitioning* parts)
      : parts_(parts), counts_(parts->num_partitions()) {}

  // `p` is PartitionOf(v), which the caller already holds.
  void Increment(PartitionId p, VertexId v) {
    std::vector<uint32_t>& counts = counts_[p];
    if (counts.empty()) {
      counts.assign(parts_->Count(p), 0);
    }
    ++counts[v - parts_->Base(p)];
  }

  // Calls f(p, v, count) for every nonzero count, partition-major in
  // ascending vertex id.
  template <typename F>
  void ForEachNonZero(F&& f) const {
    for (PartitionId p = 0; p < counts_.size(); ++p) {
      const VertexId base = parts_->Base(p);
      const std::vector<uint32_t>& counts = counts_[p];
      for (uint64_t i = 0; i < counts.size(); ++i) {
        if (counts[i] != 0) {
          f(p, base + i, counts[i]);
        }
      }
    }
  }

 private:
  const Partitioning* parts_;
  std::vector<std::vector<uint32_t>> counts_;
};

}  // namespace chaos

#endif  // CHAOS_CORE_PARTITION_H_
