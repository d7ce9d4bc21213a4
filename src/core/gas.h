// The edge-centric GAS programming model (paper §2).
//
// A program defines the vertex state, the update value carried over edges,
// the per-vertex accumulator, and a small POD global state reduced at every
// gather barrier (a Pregel-style aggregator, used for convergence detection
// and multi-phase algorithms).
//
// Core model (all ten benchmark algorithms):
//   Scatter(src)  -> updates along out-edges
//   Gather(upd)   -> fold into destination accumulator
//   Apply(accum)  -> new vertex value (merged into gather at the master, §4)
//
// Extended model (paper footnote 2; used by MCST):
//   * Scatter may address updates to arbitrary vertices (redirection).
//   * Gather and Apply may emit updates consumed by the *next* superstep's
//     gather (request/response pointer chasing).
#ifndef CHAOS_CORE_GAS_H_
#define CHAOS_CORE_GAS_H_

#include <concepts>
#include <cstdint>
#include <type_traits>

#include "graph/types.h"

namespace chaos {

// Wrapper the engine stores in update chunks: destination plus the
// program-defined value. POD by construction.
template <typename U>
struct UpdateRecord {
  VertexId dst;
  U value;
};

// Compile-time description every GAS program must satisfy. Emitters are
// passed as generic callables (no virtual dispatch on the per-edge path):
//   emit(VertexId dst, const UpdateValue& value)
// Output sinks collect program results that are not vertex state (e.g. MSF
// edges): sink(const OutputRecord&).
template <typename P>
concept GasProgram = requires(const P p) {
  typename P::VertexState;
  typename P::UpdateValue;
  typename P::Accumulator;
  typename P::GlobalState;
  typename P::OutputRecord;
  requires std::is_trivially_copyable_v<typename P::VertexState>;
  requires std::is_trivially_copyable_v<typename P::UpdateValue>;
  requires std::is_trivially_copyable_v<typename P::Accumulator>;
  requires std::is_trivially_copyable_v<typename P::GlobalState>;
  requires std::is_trivially_copyable_v<typename P::OutputRecord>;
  // Update chunks pack values right after the 8-byte dst column
  // (core/update_chunk_view.h), so a value may need at most 8-byte alignment.
  requires alignof(typename P::UpdateValue) <= 8;
  { P::kNeedsOutDegrees } -> std::convertible_to<bool>;
  { P::kName } -> std::convertible_to<const char*>;
  { p.InitGlobal(uint64_t{}) } -> std::same_as<typename P::GlobalState>;
  { p.InitLocal() } -> std::same_as<typename P::GlobalState>;
  { p.InitAccum() } -> std::same_as<typename P::Accumulator>;
};

// Convenience empty types for programs that do not use a feature.
struct NoOutput {};
struct NoGlobal {};

// Modeled wire size of one update record: destination id at the input
// graph's id width plus the program's value payload.
template <typename U>
uint64_t UpdateWireBytes(uint64_t vertex_id_wire_bytes) {
  return vertex_id_wire_bytes + sizeof(U);
}

}  // namespace chaos

#endif  // CHAOS_CORE_GAS_H_
