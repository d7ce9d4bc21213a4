// RecordBinner: bins emitted records by destination partition into
// chunk-sized buffers. Untemplated — buffer management, parking and chunk
// flushing compile once in the untyped engine core — while Add() and the
// AddUpdate<U>() template are inline so the per-record hot path (called
// from the typed kernels' per-edge loops) stays free of virtual dispatch.
//
// A binner fills one of the two binned set kinds, each in its one chunk
// layout: edge sets (Format::kEdgeSoA, Add(), core/edge_chunk_view.h) and
// update sets, update snapshots and degree sets (Format::kUpdateSoA,
// AddUpdate<U>(), core/update_chunk_view.h). Both layouts are column-major,
// so one column descriptor drives both: edges are columns of {8, 8, 4, 4}
// bytes, updates {8, sizeof(U)}, and column c of an n-record region starts
// at n × (the sum of the earlier widths).
//
// Every record takes one path. Add()/AddUpdate() only append it to the
// partition's stage: an L1-resident column-major slot of up to 16 records.
// When the stage reaches its limit, one flush copies it column by column
// into the partition's fill block, a fixed-capacity 64-byte-aligned arena
// block (core/record_arena.h), so the per-record path is a few stores and
// a count bump with zero heap allocations (tests/hotpath_alloc_test.cc
// asserts this). A flush that completes the block parks it as a finished
// Chunk zero-copy: the fill block itself becomes the payload. FlushAll
// drains part-filled stages through the same flush and parks the
// part-filled blocks; only those tail chunks pay a compaction copy,
// because column offsets depend on the record count.
//
// Wire sizing (EnableWireSizing, for update sets sent combined): each
// flush also feeds the stage's dst ids, still in L1, to the fill block's
// UpdateWireSizer (net/network.h), and the parked chunk carries the count
// as Chunk::dst_varint_bytes. The count restarts at prev = 0 for every
// block, so it equals UpdateWireSizer over the parked dst column, and the
// combined send never re-reads that column from memory.
//
// Park timing: the stage limit is min(16, records left in the fill block),
// so a stage never straddles a block and a chunk parks on exactly the Add
// that fills it. Which FlushPending writes a chunk — and so simulated
// time — does not depend on the staging.
//
// When records_per_chunk is a multiple of 16 and SSE2 is present, every
// flush is a full stage of 16-byte-aligned columns and moves as whole lines
// of non-temporal stores. Fill blocks total partitions × chunk_bytes — far
// beyond L2 — so plain stores would pay a read-for-ownership miss per line
// (doubling DRAM traffic) and evict the caller's working set; streaming
// stores do neither. Other geometries flush with a memcpy per column.
//
// Add() is synchronous; parked chunks are flushed by the owning coroutine
// between chunks (FlushPending / FlushAll).
#ifndef CHAOS_CORE_RECORD_BINNER_H_
#define CHAOS_CORE_RECORD_BINNER_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#define CHAOS_BINNER_HAS_NT_STORES 1
#else
#define CHAOS_BINNER_HAS_NT_STORES 0
#endif

#include "core/chunk_io.h"
#include "core/partition.h"
#include "core/record_arena.h"
#include "graph/types.h"
#include "net/network.h"
#include "storage/chunk.h"
#include "util/common.h"

namespace chaos {

class RecordBinner {
 public:
  // The parked chunks' layout: ChunkLayout::kEdgeSoA for edges binned with
  // Add(), ChunkLayout::kUpdateSoA for updates binned with AddUpdate<U>().
  enum class Format : uint8_t { kEdgeSoA, kUpdateSoA };

  // `record_wire_bytes` is the modeled on-disk/wire width the paper
  // charges. `arena` is the owning engine's arena; null falls back to a
  // private one (host-side and test callers). `update_value_bytes` is
  // sizeof(U) for Format::kUpdateSoA (the packed value-column width) and
  // ignored for edges.
  RecordBinner(const Partitioning* parts, uint64_t record_wire_bytes, uint64_t chunk_bytes,
               RecordArena* arena, Format format, uint64_t update_value_bytes = 0)
      : parts_(parts),
        record_wire_(record_wire_bytes),
        records_per_chunk_(RecordsPerChunk(chunk_bytes, record_wire_bytes)),
        format_(format),
        columns_(format == Format::kEdgeSoA ? kEdgeColumns
                                            : Columns{2, {8, update_value_bytes}}),
        stream_(CHAOS_BINNER_HAS_NT_STORES && records_per_chunk_ % kStage == 0),
        bins_(parts->num_partitions()),
        stage_slot_(bins_.size()),
        stage_count_(bins_.size(), 0),
        stage_limit_(bins_.size(), FirstLimit()) {
    if (format_ == Format::kUpdateSoA) {
      CHAOS_CHECK_GT(update_value_bytes, 0u);
    }
    if (arena == nullptr) {
      own_arena_ = std::make_unique<RecordArena>();
      arena = own_arena_.get();
    }
    arena_ = arena;
    // One slab of per-partition stage slots, kStage * stride bytes each:
    // every column run starts 16-byte aligned for the streaming loads, and
    // the precomputed slot pointers keep the per-record store-address chain
    // multiply-free.
    stage_ = arena_->Lease(kStage * columns_.stride() * bins_.size());
    for (size_t p = 0; p < bins_.size(); ++p) {
      stage_slot_[p] = stage_.data() + p * kStage * columns_.stride();
    }
  }

  // Chunk capacity in records. Floored at one record per chunk so records
  // wider than the chunk still make progress; zero-width records (empty
  // payloads) never fill a chunk by byte count, so they are binned as if
  // one byte wide instead of dividing by zero.
  static uint64_t RecordsPerChunk(uint64_t chunk_bytes, uint64_t record_wire_bytes) {
    const uint64_t wire = record_wire_bytes < 1 ? 1 : record_wire_bytes;
    const uint64_t per = chunk_bytes / wire;
    return per < 1 ? 1 : per;
  }

  // The whole per-record hot path: four column stores into the stage slot
  // plus a count bump. Nothing else is read or written per record —
  // emitted() derives counts from the fills and stage counts instead.
  void Add(PartitionId p, const Edge& record) {
    CHAOS_DCHECK(format_ == Format::kEdgeSoA);
    uint8_t* const slot = stage_slot_[p];
    const uint32_t s = stage_count_[p];
    reinterpret_cast<VertexId*>(slot)[s] = record.src;
    reinterpret_cast<VertexId*>(slot + kStage * kEdgeColumns.offset(1))[s] = record.dst;
    reinterpret_cast<float*>(slot + kStage * kEdgeColumns.offset(2))[s] = record.weight;
    reinterpret_cast<uint32_t*>(slot + kStage * kEdgeColumns.offset(3))[s] = record.flags;
    Staged(p, s + 1);
  }

  // Update-record hot path: the kernels' emit lambdas call this instead of
  // materializing an UpdateRecord<U>, so dst and value go straight into
  // their stage columns (no padded AoS temp).
  template <typename U>
  void AddUpdate(PartitionId p, VertexId dst, const U& value) {
    static_assert(std::is_trivially_copyable_v<U>, "binned records must be POD");
    CHAOS_DCHECK(format_ == Format::kUpdateSoA);
    CHAOS_DCHECK(sizeof(U) == columns_.width[1]);
    uint8_t* const slot = stage_slot_[p];
    const uint32_t s = stage_count_[p];
    reinterpret_cast<VertexId*>(slot)[s] = dst;
    reinterpret_cast<U*>(slot + kStage * sizeof(VertexId))[s] = value;
    Staged(p, s + 1);
  }

  // Update binners whose chunks are sent with wire combining on
  // (ChunkWriter::EnableUpdateCombining): parked chunks carry their dst
  // varint byte count (see the file comment).
  void EnableWireSizing() {
    CHAOS_CHECK(format_ == Format::kUpdateSoA);
    size_wire_ = true;
  }

  bool HasPending() const { return pending_head_ < pending_.size(); }

  // Records accepted so far: everything parked plus the partial fills and
  // stages. The per-bin sum keeps this O(partitions), which is fine for its
  // once-per-phase metrics callers and keeps the per-record path free of
  // counters.
  uint64_t emitted() const {
    uint64_t pending = 0;
    for (size_t p = 0; p < bins_.size(); ++p) {
      pending += bins_[p].filled + stage_count_[p];
    }
    return parked_records_ + pending;
  }
  const RecordArena& arena() const { return *arena_; }

  // Test hook: fast-forwards chunk numbering (regression coverage for
  // 32-bit index wraparound without binning 2^32 chunks).
  void set_next_index_for_test(uint64_t index) { next_index_ = index; }

  // Test hook: drains the oldest parked chunk without a ChunkWriter.
  std::pair<PartitionId, Chunk> PopPendingForTest() {
    CHAOS_CHECK(HasPending());
    std::pair<PartitionId, Chunk> out = std::move(pending_[pending_head_]);
    ++pending_head_;
    if (pending_head_ == pending_.size()) {
      pending_.clear();
      pending_head_ = 0;
    }
    return out;
  }

  Task<> FlushPending(ChunkWriter* writer, SetKind kind) {
    while (pending_head_ < pending_.size()) {
      // NOTE: named locals (not braced temporaries) around coroutine calls;
      // g++ 12 miscompiles braced aggregate temporaries passed directly as
      // coroutine arguments (see docs in sim/task.h).
      const PartitionId p = pending_[pending_head_].first;
      Chunk chunk = std::move(pending_[pending_head_].second);
      ++pending_head_;
      if (pending_head_ == pending_.size()) {
        pending_.clear();  // keeps capacity; the park path stays alloc-free
        pending_head_ = 0;
      }
      const SetId target{p, kind};
      co_await writer->Write(target, std::move(chunk), parts_->Master(p));
    }
  }

  Task<> FlushAll(ChunkWriter* writer, SetKind kind) {
    ParkPartialFills();
    co_await FlushPending(writer, kind);
  }

  // Test hook: parks every partial fill — including tails still sitting in
  // stages — without needing a ChunkWriter.
  void ParkAllForTest() { ParkPartialFills(); }

 private:
  // Records per stage, and the flush quantum of the streaming path.
  static constexpr uint32_t kStage = 16;

  // A format's column widths in bytes, in layout order. Column c of an
  // n-record region starts at n * offset(c), the sum of the earlier widths.
  struct Columns {
    uint32_t count;
    uint64_t width[4];
    constexpr uint64_t offset(uint32_t c) const {
      uint64_t sum = 0;
      for (uint32_t i = 0; i < c; ++i) {
        sum += width[i];
      }
      return sum;
    }
    constexpr uint64_t stride() const { return offset(count); }
  };
  // kEdgeSoA: src, dst, weight, flags (core/edge_chunk_view.h). kUpdateSoA
  // is {dst, value} of {8, sizeof(U)} (core/update_chunk_view.h).
  static constexpr Columns kEdgeColumns{4, {8, 8, 4, 4}};

  struct Bin {
    RecordArena::Block block;  // the fill block; leased by the first flush
    uint64_t filled = 0;       // records flushed into the block
    UpdateWireSizer wire;      // the block's dst ids, when sizing the wire
  };

  uint8_t FirstLimit() const {
    return static_cast<uint8_t>(std::min<uint64_t>(kStage, records_per_chunk_));
  }

  void Staged(PartitionId p, uint32_t count) {
    // Read the limit before the count store: a byte store may alias any
    // member, so reading after it would reload stage_limit_'s data pointer.
    const bool full = count == stage_limit_[p];
    stage_count_[p] = static_cast<uint8_t>(count);
    if (full) {
      Flush(p);
    }
  }

  // Moves the partition's stage into its fill block column by column:
  // streaming stores when the geometry allows it and the stage is full
  // (all runs then start 16-byte aligned: the block base is 64-byte
  // aligned, records_per_chunk_ and the fill are multiples of kStage, and
  // a 16-record run of any width is a whole number of 16-byte vectors),
  // one memcpy per column otherwise. Parks the block once it is full.
  void Flush(PartitionId p) {
    Bin& bin = bins_[p];
    if (!bin.block) {
      bin.block = arena_->Lease(records_per_chunk_ * columns_.stride());
    }
    const uint32_t n = stage_count_[p];
    if (size_wire_) {
      // A local copy keeps the sizer in registers: the dst loads could
      // otherwise alias its fields.
      const auto* dst = reinterpret_cast<const VertexId*>(stage_slot_[p]);
      UpdateWireSizer wire = bin.wire;
      for (uint32_t i = 0; i < n; ++i) {
        wire.Add(dst[i]);
      }
      bin.wire = wire;
    }
    uint64_t offset = 0;
    for (uint32_t c = 0; c < columns_.count; offset += columns_.width[c++]) {
      const uint8_t* const from = stage_slot_[p] + kStage * offset;
      uint8_t* const to =
          bin.block.data() + records_per_chunk_ * offset + bin.filled * columns_.width[c];
#if CHAOS_BINNER_HAS_NT_STORES
      if (stream_ && n == kStage) {
        const auto* s = reinterpret_cast<const __m128i*>(from);
        auto* d = reinterpret_cast<__m128i*>(to);
        for (uint64_t k = 0; k < kStage * columns_.width[c] / 16; ++k) {
          _mm_stream_si128(d + k, _mm_load_si128(s + k));
        }
        continue;
      }
#endif
      std::memcpy(to, from, n * columns_.width[c]);
    }
    bin.filled += n;
    stage_count_[p] = 0;
    if (bin.filled == records_per_chunk_) {
      Park(p);
    } else {
      stage_limit_[p] =
          static_cast<uint8_t>(std::min<uint64_t>(kStage, records_per_chunk_ - bin.filled));
    }
  }

  void ParkPartialFills() {
    for (PartitionId p = 0; p < bins_.size(); ++p) {
      if (stage_count_[p] != 0) {
        Flush(p);  // below its limit, so the block stays part-filled
      }
      if (bins_[p].filled != 0) {
        Park(p);
      }
    }
  }

  // Finishes the partition's fill block as a pending chunk.
  void Park(PartitionId p) {
#if CHAOS_BINNER_HAS_NT_STORES
    if (stream_) {
      // Drain the write-combining buffers before the payload is published:
      // NT stores are weakly ordered, and the chunk may be consumed on
      // another thread.
      _mm_sfence();
    }
#endif
    Bin& bin = bins_[p];
    const auto count = static_cast<uint32_t>(bin.filled);
    parked_records_ += count;
    Chunk chunk;
    chunk.index = next_index_++;
    chunk.model_bytes = count * record_wire_;
    chunk.count = count;
    chunk.payload_bytes = count * columns_.stride();
    chunk.layout =
        format_ == Format::kEdgeSoA ? ChunkLayout::kEdgeSoA : ChunkLayout::kUpdateSoA;
    if (size_wire_) {
      chunk.dst_varint_bytes = bin.wire.varint_bytes();
    }
    if (count == records_per_chunk_) {
      // Full block: the in-place fill already is the payload; the next
      // flush leases a fresh block.
      chunk.data = std::move(bin.block).ToShared();
    } else {
      // Tail chunk: move each column from its capacity-based offset in the
      // fill block to its count-based one in an exact-count payload. Rare —
      // only FlushAll parks part-filled blocks.
      std::shared_ptr<uint8_t> payload = arena_->LeaseShared(chunk.payload_bytes);
      uint64_t offset = 0;
      for (uint32_t c = 0; c < columns_.count; offset += columns_.width[c++]) {
        std::memcpy(payload.get() + count * offset,
                    bin.block.data() + records_per_chunk_ * offset, count * columns_.width[c]);
      }
      chunk.data = std::shared_ptr<const void>(payload, payload.get());
    }
    bin = Bin{};
    stage_limit_[p] = FirstLimit();
    pending_.emplace_back(p, std::move(chunk));
  }

  const Partitioning* parts_;
  uint64_t record_wire_;
  uint64_t records_per_chunk_;
  Format format_;
  Columns columns_;
  // True when every flush is a full stage of streaming stores (SSE2
  // present and records_per_chunk_ a kStage multiple).
  bool stream_;
  bool size_wire_ = false;
  RecordArena* arena_ = nullptr;
  std::unique_ptr<RecordArena> own_arena_;
  std::vector<Bin> bins_;
  // The stage slab, each partition's slot in it, and the byte-wide stage
  // fill counts and flush limits (the whole partition set's counts share
  // one or two cache lines).
  RecordArena::Block stage_;
  std::vector<uint8_t*> stage_slot_;
  std::vector<uint8_t> stage_count_;
  std::vector<uint8_t> stage_limit_;
  // Drained front-to-back by FlushPending; vector + head cursor instead of
  // a deque so steady-state parking reuses capacity.
  std::vector<std::pair<PartitionId, Chunk>> pending_;
  size_t pending_head_ = 0;
  uint64_t next_index_ = 0;
  uint64_t parked_records_ = 0;
};

}  // namespace chaos

#endif  // CHAOS_CORE_RECORD_BINNER_H_
