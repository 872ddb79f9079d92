// Eager full-program pre-decode: the one dispatch table every pre-decoded
// ART-9 kind runs from.  The program is decoded once, up front, into one
// 30-byte row per 9-trit TIM address (row = pc + 9841 mod 3^9):
//
//  * a dense DispatchKind: rows that hold no code carry `kInvalid` and
//    dispatch to the trap path like any other opcode, and the HALT
//    convention (`JAL x, 0`) is folded to `kHalt`;
//  * precomputed `next_pc`/`next_row` and branch/JAL `taken_pc`/
//    `taken_row`, so control flow never re-encodes a PC;
//  * the operand word (the ANDI/ADDI/LUI/LI immediate, validated and
//    pre-encoded at load time, or the JAL/JALR link) in both encodings:
//    plane pairs (`word()`) for the packed backends, and a Word9
//    (`word9`) for the reference TALU of the functional simulator and
//    the reference pipeline.  Its 9 bytes are kept because a prototype
//    that decoded the planes at each use ran kFunctional about 3.5 %
//    slower.
//
// The source instructions stay on the cold side (`instruction(row)`, for
// observer streams and pipeline traces), as in Rv32DecodedImage.  An
// image is immutable after construction and carries a copy of its source
// Program, so any number of simulators (SimulationService workers too)
// can share one.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "isa/instruction.hpp"
#include "isa/program.hpp"
#include "sim/memory.hpp"
#include "ternary/bct.hpp"
#include "ternary/word.hpp"

namespace art9::sim {

struct SuperblockPlan;  // sim/superblock.hpp — the block translation tier

/// Dense handler index for the pre-decoded dispatch switch.  The first 24
/// values mirror isa::Opcode exactly (same numeric order); the two extra
/// kinds make validity and the halt convention ordinary dispatch targets.
enum class DispatchKind : uint8_t {
  kMv,
  kPti,
  kNti,
  kSti,
  kAnd,
  kOr,
  kXor,
  kAdd,
  kSub,
  kSr,
  kSl,
  kComp,
  kAndi,
  kAddi,
  kSri,
  kSli,
  kLui,
  kLi,
  kBeq,
  kBne,
  kJal,
  kJalr,
  kLoad,
  kStore,
  kHalt,     // JAL x, 0 folded at decode time
  kInvalid,  // uninitialised TIM row — traps on dispatch
};

/// The opcode a code row's kind decodes from (kHalt is a JAL); kInvalid
/// rows hold no code and have none.
[[nodiscard]] constexpr isa::Opcode opcode_of(DispatchKind kind) noexcept {
  return kind == DispatchKind::kHalt ? isa::Opcode::kJal : static_cast<isa::Opcode>(kind);
}

/// One pre-decoded TIM row.  Every 9-trit quantity is a small integer or
/// a plane pair: all balanced PCs fit int16_t and all row indices
/// uint16_t.
struct PackedOp {
  uint16_t word_neg = 0;   // operand word planes: immediate (ANDI/ADDI/LUI/LI)
  uint16_t word_pos = 0;   //   or link (JAL/JALR); zero for other kinds
  int16_t imm = 0;         // numeric immediate (ADDI/SRI/SLI/JALR/LOAD/STORE/branches)
  DispatchKind kind = DispatchKind::kInvalid;
  uint8_t ta = 0;
  uint8_t tb = 0;
  int8_t bcond = 0;        // balanced branch condition value
  int16_t pc = 0;          // balanced address of this row
  int16_t next_pc = 0;     // wrap(pc + 1)
  uint16_t next_row = 0;   // row_of(next_pc)
  int16_t taken_pc = 0;    // wrap(pc + imm), read by BEQ/BNE/JAL
  uint16_t taken_row = 0;  // row_of(taken_pc)
  // The same operand word in the reference encoding:
  //   kAndi/kAddi — the 9-trit immediate operand;
  //   kLui        — the complete result word {imm4, 00000};
  //   kLi         — imm5 in trits [4:0], zeros above;
  //   kJal/kJalr  — the link, wrap(pc + 1).
  ternary::Word9 word9;

  /// The operand word as planes.
  [[nodiscard]] ternary::BctWord9 word() const noexcept {
    return ternary::BctWord9::from_planes_unchecked(word_neg, word_pos);
  }
};
static_assert(sizeof(PackedOp) <= 32, "PackedOp must stay cache-lean");

class DecodedImage {
 public:
  /// Decodes (and validates) the whole program.  Throws sim::SimError if
  /// the program does not fit the TIM (more than 3^9 instructions, or an
  /// entry or data word outside the 9-trit range), or if an ANDI/ADDI/
  /// LUI/LI instruction carries an immediate outside its format's range
  /// (the four forms whose immediates are pre-encoded into words) — at
  /// load time, not on first execution.  Other formats' immediates are
  /// used numerically and are not range-checked here.
  explicit DecodedImage(const isa::Program& program);

  /// Row access by dense row index (0 .. kRows-1).
  [[nodiscard]] const PackedOp& row(std::size_t r) const noexcept { return rows_[r]; }

  /// Raw row-table base pointer for the hot loops (kRows entries).
  [[nodiscard]] const PackedOp* rows_data() const noexcept { return rows_.data(); }

  /// The source instruction of a row (observer streams, pipeline traces)
  /// — cold-side data, not part of the dispatch row.  A row that holds no
  /// code yields `isa::Instruction{}`.
  [[nodiscard]] const isa::Instruction& instruction(std::size_t r) const noexcept;

  /// The superblock translation (straight-line blocks, fused macro-ops,
  /// per-block stat deltas) for the superblock backend.  Built lazily on
  /// first use (thread-safe); defined in sim/superblock.cpp.
  [[nodiscard]] const SuperblockPlan& superblocks() const;

  /// Row index of a balanced PC (same bijection as the memory hardware).
  [[nodiscard]] static std::size_t row_of(int64_t pc) noexcept {
    return TernaryMemory::row_of(pc);
  }

  /// Fetch by balanced PC (pays the address fold — hot loops should chase
  /// the precomputed next_row/taken_row instead).
  [[nodiscard]] const PackedOp& fetch(int64_t pc) const noexcept { return rows_[row_of(pc)]; }

  /// The source program (entry point, data image, symbols) — what a
  /// simulator needs to reset architectural state.
  [[nodiscard]] const isa::Program& program() const noexcept { return program_; }

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  isa::Program program_;
  std::vector<PackedOp> rows_;
  mutable std::once_flag superblocks_once_;
  // shared_ptr: SuperblockPlan stays an incomplete type in this header.
  mutable std::shared_ptr<const SuperblockPlan> superblocks_;
};

/// Decodes `program` into a shareable image.
[[nodiscard]] std::shared_ptr<const DecodedImage> decode(const isa::Program& program);

}  // namespace art9::sim
