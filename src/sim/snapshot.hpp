// Machine snapshot serialization: a MachineState (either ISA) to and
// from a self-describing byte blob, so a run can be frozen mid-flight,
// written to disk, and resumed on *any* conformant backend — the seam
// behind make_engine(kind, image, snapshot) and the fuzz driver's
// crash artifacts.
//
// Format (all integers little-endian, independent of host endianness):
//
//   offset  size  field
//   0       8     magic "ART9SNAP"
//   8       2     version (currently 2; version 1 blobs are rejected)
//   10      1     ISA tag: 0 = ART-9, 1 = rv32
//   11      ...   payload (per ISA, below)
//   end-8   8     FNV-1a 64 checksum of every preceding byte
//
// ART-9 payload: i64 pc, 9 × i16 registers, u64 TDM reads, u64 TDM
// writes, u32 row count, then (u32 row, i16 value) per non-zero TDM row
// in ascending row order.
//
// rv32 payload: u32 pc, 32 × u32 registers, u64 RAM byte size, u32
// chunk count, then (u32 index, min(64, size − 64·index) RAM bytes) per
// 64-byte RAM chunk that holds a non-zero byte, in ascending index
// order.  The RAM size is part of the state (restore adopts it) and is
// capped at 2^32 bytes, the rv32 address space.
//
// Both memories are sparse-encoded: a fresh memory is all-zero, so only
// the touched rows / chunks travel, and a blob costs O(touched state).
//
// Every blob is canonical — equal states serialize to identical bytes —
// and deserialize_snapshot accepts only canonical blobs: rows and
// chunks strictly ascending and in range, no all-zero row or chunk, a
// chunk count within ⌈size/64⌉, rv32 x0 zero.  So
// serialize(deserialize(b)) == b for every accepted blob b.
//
// Code is deliberately NOT part of a snapshot: a snapshot resumes
// against the same program image it was taken under (the TIM is
// immutable — self-modifying code is out of scope repo-wide).
//
// deserialize_snapshot rejects malformed input with SimError("snapshot:
// ...") — bad magic, unknown version or ISA tag, truncation, trailing
// bytes, out-of-range or non-canonical rows / chunks, 9-trit values out
// of range, an over-cap RAM size (before allocating it), and checksum
// mismatch — locked by tests/sim/snapshot_test.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/engine.hpp"

namespace art9::sim {

/// 64-bit FNV-1a: the snapshot checksum, and (through serve) the hash
/// behind image ids and job state digests.  Chain ranges through `hash`.
/// Corruption detection, not authentication.
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
[[nodiscard]] uint64_t fnv1a_64(const void* data, std::size_t size,
                                uint64_t hash = kFnvOffset) noexcept;

/// Serializes `state` (either ISA) into the blob format above.  Throws
/// SimError for an rv32 RAM over the 2^32-byte cap.
[[nodiscard]] std::vector<uint8_t> serialize_snapshot(const MachineState& state);

/// Parses a blob back into a MachineState.  Throws SimError("snapshot:
/// ...") naming the violation on any malformed or non-canonical input.
[[nodiscard]] MachineState deserialize_snapshot(const uint8_t* data, std::size_t size);
[[nodiscard]] MachineState deserialize_snapshot(const std::vector<uint8_t>& blob);

}  // namespace art9::sim
