// The update-set chunk layout (ChunkLayout::kUpdateSoA) and its reader.
//
// Update sets (kUpdatesEven/kUpdatesOdd) are the other half of the hot
// streaming path: every gather superstep reads every update chunk, and the
// scatter/gather emit loops write every record through RecordBinner. Stored
// AoS, each UpdateRecord<U> would stride sizeof(UpdateRecord<U>) — 16 bytes
// for a 4-byte value because of alignment padding — and the gather loop
// could not vectorize across the struct. Update chunks instead pack two
// regions into one payload (model_bytes, the simulated footprint, is the
// record count times the wire width either way):
//
//   offset 0            : VertexId dst[count]
//   offset 8 * count    : U        value[count]   (packed at sizeof(U))
//
// payload_bytes == count * (8 + sizeof(U)) — for 4-byte values that is 12
// bytes per record instead of 16. The value region starts at a multiple of
// 8, so it is naturally aligned for any U with alignof(U) <= 8 given an
// 8-byte-or-better base (arena payloads guarantee 64; core/record_arena.h).
// The GasProgram concept (core/gas.h) requires that alignment of every
// update value, so this is the only layout of update sets, update
// snapshots and the preprocess degree sets.
//
// Unlike edges — whose record type the untyped engine core knows — update
// values are program-defined, so the view is untemplated and parameterized
// by the value width; typed readers (the kernels) reinterpret the packed
// value region, cold paths materialize records via At<U>().
#ifndef CHAOS_CORE_UPDATE_CHUNK_VIEW_H_
#define CHAOS_CORE_UPDATE_CHUNK_VIEW_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "core/gas.h"
#include "core/record_arena.h"
#include "graph/types.h"
#include "storage/chunk.h"
#include "util/common.h"

namespace chaos {

// Transposes `n` AoS update records into the SoA payload layout above.
// `out` must hold (8 + sizeof(U)) * n bytes and be at least 8-byte aligned.
template <typename U>
inline void TransposeUpdatesToSoa(const UpdateRecord<U>* aos, uint32_t n,
                                  uint8_t* out) {
  CHAOS_DCHECK(reinterpret_cast<uintptr_t>(out) % alignof(VertexId) == 0);
  auto* dst = reinterpret_cast<VertexId*>(out);
  auto* value = reinterpret_cast<U*>(out + 8ull * n);
  for (uint32_t i = 0; i < n; ++i) {
    dst[i] = aos[i].dst;
    value[i] = aos[i].value;
  }
}

// Builds a kUpdateSoA chunk from a host-side record vector. `arena` may be
// null (host-side callers without an engine); the payload is then a
// directly allocated aligned block.
template <typename U>
inline Chunk MakeSoaUpdateChunk(uint64_t index, uint64_t model_bytes,
                                const std::vector<UpdateRecord<U>>& records,
                                RecordArena* arena) {
  Chunk c;
  c.index = index;
  c.model_bytes = model_bytes;
  c.count = static_cast<uint32_t>(records.size());
  c.payload_bytes = records.size() * (8ull + sizeof(U));
  c.layout = ChunkLayout::kUpdateSoA;
  if (!records.empty()) {
    std::shared_ptr<uint8_t> payload = AlignedPayload(c.payload_bytes, arena);
    TransposeUpdatesToSoa(records.data(), c.count, payload.get());
    c.data = std::shared_ptr<const void>(payload, payload.get());
  }
  return c;
}

// Zero-copy reader over a kUpdateSoA chunk. Hot loops run over the raw
// dst and value arrays; cold readers (re-binning, tests) use At<U>.
// `value_bytes` is sizeof(U) for the owning program's update value.
class UpdateChunkView {
 public:
  UpdateChunkView(const Chunk& c, uint64_t value_bytes)
      : count_(c.count), value_bytes_(value_bytes) {
    if (count_ == 0) {
      return;
    }
    CHAOS_CHECK(c.data != nullptr);
    CHAOS_CHECK(c.layout == ChunkLayout::kUpdateSoA);
    CHAOS_DCHECK(c.payload_bytes == count_ * (8ull + value_bytes_));
    const auto* base = static_cast<const uint8_t*>(c.data.get());
    dst_ = reinterpret_cast<const VertexId*>(base);
    values_ = base + 8ull * count_;
  }

  uint32_t size() const { return count_; }

  // values_as<U>() is the packed value region, cast to the program's type.
  const VertexId* dst() const { return dst_; }
  template <typename U>
  const U* values_as() const {
    CHAOS_DCHECK(sizeof(U) == value_bytes_);
    return reinterpret_cast<const U*>(values_);
  }

  // Materializes one record (cold paths / tests).
  template <typename U>
  UpdateRecord<U> At(uint32_t i) const {
    CHAOS_DCHECK(i < count_);
    UpdateRecord<U> r;
    r.dst = dst_[i];
    std::memcpy(&r.value, values_ + i * sizeof(U), sizeof(U));
    return r;
  }

 private:
  uint32_t count_ = 0;
  uint64_t value_bytes_ = 0;
  const VertexId* dst_ = nullptr;
  const uint8_t* values_ = nullptr;
};

}  // namespace chaos

#endif  // CHAOS_CORE_UPDATE_CHUNK_VIEW_H_
