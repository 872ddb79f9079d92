// Eager full-program pre-decode for the RV32 baseline simulator — the
// binary-side mirror of sim::DecodedImage (the dispatch-table design the
// ART-9 side converged on in PR 1, and the one fast pre-decoded binary
// emulators such as libriscv use).
//
// The seed rv32 loop fetch-decoded lazily: every step paid a range check,
// a modulo, and a division just to find the instruction, and recomputed
// pc+4 / pc+imm / link values that never change.  An Rv32DecodedImage
// decodes the whole program once, up front, into one row per instruction
// word:
//
//  * a dense Rv32Dispatch kind (mirroring Rv32Op, plus kTrap) replaces
//    the per-fetch range check — out-of-program control flow lands on a
//    shared trap row and faults like any other dispatch target;
//  * next_pc/next_row and branch/JAL taken_pc/taken_row are precomputed,
//    so sequential flow and static control flow never divide by 4 again;
//  * the JAL/JALR link value (pc + 4), the LUI result (imm << 12), the
//    complete AUIPC result (pc + (imm << 12)) and the shift amounts of
//    SLLI/SRLI/SRAI are folded into one per-row operand word;
//  * malformed encodings (register or immediate fields outside their
//    format's range) are rejected at load time with Rv32SimError instead
//    of surfacing mid-run.
//
// An Rv32DecodedImage is immutable after construction and carries a copy
// of its source Rv32Program, so any number of simulator instances
// (including sim::SimulationService worker threads) can share one image
// concurrently.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "rv32/rv32_program.hpp"

namespace art9::rv32 {

struct Rv32SuperblockPlan;  // rv32/rv32_superblock.hpp — the block translation tier

/// Raised on rv32 architectural errors (fetch outside the program,
/// out-of-range memory traffic, malformed encodings at load).
class Rv32SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Dense handler index for the pre-decoded rv32 dispatch switch.  The
/// first kNumRv32Ops values mirror Rv32Op exactly (same numeric order);
/// kTrap makes "fetch outside the program" an ordinary dispatch target.
enum class Rv32Dispatch : uint8_t {
  kLui,
  kAuipc,
  kJal,
  kJalr,
  kBeq,
  kBne,
  kBlt,
  kBge,
  kBltu,
  kBgeu,
  kLb,
  kLh,
  kLw,
  kLbu,
  kLhu,
  kSb,
  kSh,
  kSw,
  kAddi,
  kSlti,
  kSltiu,
  kXori,
  kOri,
  kAndi,
  kSlli,
  kSrli,
  kSrai,
  kAdd,
  kSub,
  kSll,
  kSlt,
  kSltu,
  kXor,
  kSrl,
  kSra,
  kOr,
  kAnd,
  kFence,
  kEcall,
  kEbreak,
  kMul,
  kMulh,
  kMulhsu,
  kMulhu,
  kDiv,
  kDivu,
  kRem,
  kRemu,
  kTrap,  // fetch outside the program — faults on dispatch
};
static_assert(static_cast<int>(Rv32Dispatch::kTrap) == kNumRv32Ops,
              "Rv32Dispatch must mirror Rv32Op with kTrap appended");

/// One pre-decoded rv32 instruction row: 28 bytes, so a hot loop holds
/// two-plus rows per cache line (the source Rv32Instruction stays on the
/// image's cold side — observers and timing models fetch it by row).
struct Rv32DecodedOp {
  Rv32Dispatch kind = Rv32Dispatch::kTrap;
  uint8_t rd = 0;
  uint8_t rs1 = 0;
  uint8_t rs2 = 0;
  // Kind-dependent precomputed operand:
  //   kLui          — the complete result (imm << 12);
  //   kAuipc        — the complete result (pc + (imm << 12));
  //   kSlli/kSrli/kSrai — the shift amount (imm & 31);
  //   all others    — the sign-extended immediate as uint32_t.
  uint32_t imm_u = 0;
  uint32_t next_pc = 0;    // pc + 4
  uint32_t next_row = 0;   // row of next_pc (the trap row when outside)
  uint32_t taken_pc = 0;   // branch/JAL target (pc + imm)
  uint32_t taken_row = 0;  // row of taken_pc (the trap row when outside)
  uint32_t link = 0;       // pc + 4, the JAL/JALR rd value
};
static_assert(sizeof(Rv32DecodedOp) == 28, "Rv32DecodedOp must stay cache-lean");

class Rv32DecodedImage {
 public:
  /// Decodes (and validates) the whole program.  Throws Rv32SimError if
  /// any instruction carries a field outside its format's encodable
  /// range — at load time, not on first execution.
  explicit Rv32DecodedImage(const Rv32Program& program);

  /// Row access by dense row index (0 .. rows()-1, plus the trap row).
  [[nodiscard]] const Rv32DecodedOp& row(std::size_t r) const noexcept { return rows_[r]; }

  /// Raw row-table base pointer for the simulators' hot loops (rows() + 1
  /// entries, the trap row last).
  [[nodiscard]] const Rv32DecodedOp* rows_data() const noexcept { return rows_.data(); }

  /// The source instruction of a code row (observer streams, timing
  /// models) — cold-side data, not part of the dispatch row.  Only code
  /// rows carry one: the trap row (which row_of() can hand out) throws
  /// std::out_of_range here.
  [[nodiscard]] const Rv32Instruction& instruction(std::size_t r) const {
    return program_.code.at(r);
  }

  /// Number of instruction rows (the trap row sits at index rows()).
  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size() - 1; }

  /// The shared trap row index: every out-of-program or misaligned
  /// control-flow target resolves here and faults on dispatch.
  [[nodiscard]] uint32_t trap_row() const noexcept {
    return static_cast<uint32_t>(rows_.size() - 1);
  }

  /// Row index of a byte PC: dense for in-program 4-aligned addresses,
  /// the trap row for everything else (JALR and data-dependent targets).
  [[nodiscard]] uint32_t row_of(uint32_t pc) const noexcept {
    const uint32_t off = pc - entry_;  // wraps for pc < entry -> huge -> trap
    return off % 4 == 0 && off / 4 < rows() ? off / 4 : trap_row();
  }

  /// The source program (entry point, data image, symbols) — what a
  /// simulator needs to reset architectural state.
  [[nodiscard]] const Rv32Program& program() const noexcept { return program_; }

  [[nodiscard]] uint32_t entry() const noexcept { return entry_; }

  /// The superblock translation (straight-line blocks, fused load+ALU
  /// pairs, per-block retire deltas) for the rv32 superblock backend.  Built
  /// lazily on first use (thread-safe); defined in rv32_superblock.cpp.
  [[nodiscard]] const Rv32SuperblockPlan& superblocks() const;

  /// Heap bytes the image holds once its superblock plan is built (built
  /// here if it is not yet): the rows, the retained program and the plan,
  /// each allocation charged with allocator overhead — the ImageCache
  /// charge.  Defined in rv32_superblock.cpp.
  [[nodiscard]] std::size_t resident_bytes() const;

 private:
  Rv32Program program_;
  uint32_t entry_;
  std::vector<Rv32DecodedOp> rows_;  // code rows + one trailing trap row
  mutable std::once_flag superblocks_once_;
  // shared_ptr: Rv32SuperblockPlan stays an incomplete type in this header.
  mutable std::shared_ptr<const Rv32SuperblockPlan> superblocks_;
};

/// Decodes `program` into a shareable image.
[[nodiscard]] std::shared_ptr<const Rv32DecodedImage> decode(const Rv32Program& program);

}  // namespace art9::rv32
