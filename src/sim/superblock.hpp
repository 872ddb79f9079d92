// Superblock translation tier — the single-machine packed ART-9 backend
// (EngineKind::kSuperblock, and kPacked under its historical name).
//
// State is the plane-packed SWAR datapath: a packed TRF (nine BctWord9),
// a packed TDM (sim::PackedMemory) and the image's dispatch rows, read
// through their pre-packed immediate and link planes.  An instruction-at-
// a-time loop over those rows would still pay per *instruction*: one
// budget check, one row chase, one retire increment and (for memory ops)
// one counter bump per step.  The superblock tier translates the decoded image once
// more, at load time, into straight-line superblocks (the move libriscv
// makes in decode_bytecodes.cpp / threaded_bytecodes.hpp):
//
//  * every TIM row gets a block describing the straight-line run that
//    starts there (so dynamic JALR targets and snapshot restores can
//    enter anywhere without mid-block entry logic), body length capped
//    at kMaxBlockInstructions;
//  * macro-op fusion inside blocks, on the pairs the software framework
//    emits: LUI+LI (wide constants) collapses to one kLui slot carrying
//    the result planes precomputed at translation time, COMP+BEQ/BNE
//    (every branch) becomes a kCmpBranch terminator, LOAD+dependent ALU
//    op (spill reloads) becomes one kLoadOp dispatch;
//  * retire counts and TDM access counters are precomputed per block and
//    committed once per block by the terminator, not per instruction;
//  * block-chained dispatch: each terminator carries the successor block
//    row for the not-taken/unconditional path, so the hot loop is
//    block-to-block (computed goto on GNU, a portable step() fallback
//    otherwise) and only checks the budget at block boundaries.
//
// Budget exactness: the fast loop only *enters* a block when the whole
// block fits the remaining budget; a partial block is stepped per
// instruction instead.  run() therefore honours max_steps exactly —
// including intermediate fused-pair states — which is what keeps
// SimulationService slice accounting and the conformance suite's
// tiny-budget contract bit-identical to the golden model.
//
// The plan is built lazily and thread-safely off the shared image
// (DecodedImage::superblocks()), so any number of SuperblockSimulator
// instances share one translation.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "isa/program.hpp"
#include "sim/decoded_image.hpp"
#include "sim/machine.hpp"
#include "ternary/bct.hpp"

namespace art9::sim {

/// Handler index of the superblock inner loop.  The first 18 values
/// mirror DispatchKind's data-processing kinds exactly (same numeric
/// order) so translation of an unfused body op is a cast; the rest are
/// the memory ops, the fused LOAD+ALU pair, and the block terminators.
/// Constant fusion needs no kind of its own: it is a kLui whose operand
/// planes the translation precomputed.
enum class SuperOpKind : uint8_t {
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
  kLoad,
  kStore,
  kLoadOp,  // fused LOAD + dependent register ALU op in one dispatch, retires 2
  // Terminators (exactly one per block, last op of the block):
  kBranch,       // BEQ/BNE (sense in flags)
  kCmpBranch,    // fused COMP + BEQ/BNE, retires 2
  kJal,          // unconditional jump with link
  kJalr,         // dynamic target; self-jump is the halt convention
  kFallthrough,  // block split at the length cap — chain to next_row
  kHalt,         // JAL x, 0 folded at decode time
  kTrap,         // uninitialised TIM row
};

/// One slot of the flat superop stream: body ops and terminators share
/// the layout (22 bytes) so the inner loop walks one array.
struct SuperOp {
  uint16_t word_neg = 0;  // imm/link planes, or a fused constant
  uint16_t word_pos = 0;
  int16_t imm = 0;     // numeric immediate (ADDI/SRI/SLI/JALR/LOAD/STORE)
  SuperOpKind kind = SuperOpKind::kTrap;
  uint8_t ta = 0;
  uint8_t tb = 0;
  int8_t bcond = 0;  // balanced branch condition (kBranch/kCmpBranch)
  // Fused second op of kLoadOp (restricted to register-only ALU kinds):
  uint8_t kind2 = 0;  // DispatchKind value, kMv..kComp
  uint8_t ta2 = 0;
  uint8_t tb2 = 0;  // always the load's ta (the dependence being fused)
  uint8_t flags = 0;
  int16_t pc = 0;          // this op's balanced address
  uint16_t self_row = 0;   // this op's row (halt/trap position commit)
  uint16_t next_row = 0;   // terminator: not-taken / fallthrough successor
  uint16_t taken_row = 0;  // terminator: branch/JAL target block

  static constexpr uint8_t kFlagBne = 1;  // branch sense of kBranch/kCmpBranch

  /// The operand word as planes (immediate, link, or fused constant).
  [[nodiscard]] ternary::BctWord9 word() const noexcept {
    return ternary::BctWord9::from_planes_unchecked(word_neg, word_pos);
  }
};
static_assert(sizeof(SuperOp) <= 24, "SuperOp must stay cache-lean");

/// One straight-line block: a slice of the plan's op stream (body ops
/// followed by exactly one terminator) plus the precomputed per-block
/// accounting deltas the terminator commits in one shot.
struct Superblock {
  uint32_t first_op = 0;
  uint32_t retires = 0;     // instructions retired by a full pass (body +
                            // branch/jal/jalr terminator; halt/trap/
                            // fallthrough terminators retire nothing)
  uint32_t min_budget = 0;  // remaining budget required to enter: retires,
                            // +1 for halt/trap terminators (attempting the
                            // zero-retire terminator still needs headroom —
                            // the golden model reports kMaxCycles, not
                            // halt/trap, when the budget dies at its door)
  uint32_t mem_reads = 0;   // TDM counter deltas of a full pass
  uint32_t mem_writes = 0;
};

/// The whole translation: one block per TIM row over a shared op stream.
struct SuperblockPlan {
  /// Straight-line body cap, in source instructions.  Bounds worst-case
  /// plan memory and the per-block budget clamp (a partial block steps at
  /// most this many instructions on the slow path).
  static constexpr uint32_t kMaxBlockInstructions = 32;

  std::vector<Superblock> blocks;  // indexed by TIM row
  std::vector<SuperOp> ops;
  // Translation statistics (tests, introspection):
  uint32_t fused_const = 0;
  uint32_t fused_cmp_branch = 0;
  uint32_t fused_load_op = 0;
};

/// The superblock execution backend: packed TRF + packed TDM, executed by
/// the block-chained loop with packed_step() (packed_alu.hpp) as the
/// per-instruction path.  Bit-identical to the golden model in state
/// (registers, TDM contents *and* access counters, PC) and SimStats —
/// locked by the conformance suite and tests/sim/superblock_test.cpp.
class SuperblockSimulator {
 public:
  /// Decodes `program` into a private image.
  explicit SuperblockSimulator(const isa::Program& program);

  /// Runs off a shared pre-decoded image (SimulationService, differential
  /// harnesses).  `image` must be non-null.
  explicit SuperblockSimulator(std::shared_ptr<const DecodedImage> image);

  /// Executes one instruction (the per-instruction slow path — observed
  /// runs and partial-block tails).  Returns false when the HALT
  /// convention (self-jump) executes — pc() then rests on the halt
  /// instruction.
  bool step();

  /// Runs until HALT or `max_instructions` — exactly: block entry is
  /// clamped against the remaining budget, the tail is stepped per
  /// instruction.
  SimStats run(uint64_t max_instructions = 100'000'000);

  /// Row and PC are in bijection (every row carries its balanced
  /// address), so the fetch row is the single source of truth.
  [[nodiscard]] int64_t pc() const noexcept { return rows_[row_].pc; }

  /// The pre-decoded image this simulator executes.
  [[nodiscard]] const DecodedImage& image() const noexcept { return *image_; }

  /// The shared block translation (tests, introspection).
  [[nodiscard]] const SuperblockPlan& plan() const noexcept { return *plan_; }

  /// Inspection-boundary conversions: decode the packed state into the
  /// reference representation (registers, TDM contents + counters, PC),
  /// and re-pack one (snapshot restore).  restore(state()) is an exact
  /// round trip, access counters included.
  [[nodiscard]] ArchState state() const;
  void restore(const ArchState& state);

  /// Convenience accessors (decode on access).
  [[nodiscard]] ternary::Word9 reg(int index) const;
  [[nodiscard]] int64_t reg_int(int index) const;

  /// Raw packed register (tests, tracing hooks).
  [[nodiscard]] const ternary::BctWord9& reg_packed(int index) const {
    return trf_[static_cast<std::size_t>(index)];
  }

 private:
  /// The block-chained fast loop: runs whole blocks until halt, trap,
  /// budget exhaustion, or a block that no longer fits the remaining
  /// budget.  Returns the instructions executed; commits row_ and the
  /// batched TDM counters at every exit (the trap path included).
  uint64_t run_blocks(uint64_t max_instructions, bool& halted);

  std::shared_ptr<const DecodedImage> image_;
  const PackedOp* rows_;         // the image's row table (slow path / pc recovery)
  const SuperblockPlan* plan_;   // the image's block translation
  std::array<ternary::BctWord9, isa::kNumRegisters> trf_{};
  PackedMemory tdm_;
  uint32_t row_ = 0;  // current fetch row (the PC derives from it)
};

}  // namespace art9::sim
