#include "sim/decoded_image.hpp"

#include "sim/machine.hpp"

namespace art9::sim {

using isa::Instruction;
using isa::Opcode;
using ternary::Word9;

namespace {

// kind_of relies on DispatchKind mirroring isa::Opcode value-for-value;
// pin the correspondence so an Opcode reorder is a compile error here.
static_assert(static_cast<uint8_t>(Opcode::kMv) == static_cast<uint8_t>(DispatchKind::kMv));
static_assert(static_cast<uint8_t>(Opcode::kComp) == static_cast<uint8_t>(DispatchKind::kComp));
static_assert(static_cast<uint8_t>(Opcode::kBeq) == static_cast<uint8_t>(DispatchKind::kBeq));
static_assert(static_cast<uint8_t>(Opcode::kJal) == static_cast<uint8_t>(DispatchKind::kJal));
static_assert(static_cast<uint8_t>(Opcode::kStore) == static_cast<uint8_t>(DispatchKind::kStore));
static_assert(isa::kNumOpcodes == static_cast<int>(DispatchKind::kHalt));

DispatchKind kind_of(const Instruction& inst) {
  if (inst.op == Opcode::kJal && inst.imm == 0) return DispatchKind::kHalt;
  return static_cast<DispatchKind>(static_cast<uint8_t>(inst.op));
}

// Pre-encodes the immediate operand/result of the four encoding-carrying
// immediate forms, validating against the opcode's format range (imm3 for
// ANDI/ADDI, imm4 for LUI, imm5 for LI).  Throws SimError at decode time —
// previously an unencodable immediate only surfaced when the instruction
// first *executed*, throwing std::out_of_range mid-run.
Word9 encode_immediate(const Instruction& inst, int64_t pc) {
  const isa::OpcodeSpec& s = isa::spec(inst.op);
  const auto check_range = [&] {
    if (inst.imm < s.imm_min || inst.imm > s.imm_max) {
      throw SimError("malformed immediate at address " + std::to_string(pc) + ": " +
                     isa::to_string(inst));
    }
  };
  switch (inst.op) {
    case Opcode::kAndi:
    case Opcode::kAddi:
      check_range();
      return Word9::from_int(inst.imm);
    case Opcode::kLui: {
      check_range();
      Word9 w;
      w.insert(5, ternary::Word<4>::from_int(inst.imm));
      return w;
    }
    case Opcode::kLi: {
      check_range();
      Word9 w;
      w.insert(0, ternary::Word<5>::from_int(inst.imm));
      return w;
    }
    default:
      return Word9{};
  }
}

}  // namespace

DecodedImage::DecodedImage(const isa::Program& program)
    : program_(program), rows_(static_cast<std::size_t>(TernaryMemory::kRows)) {
  // Reject what would load as a different program up front: an entry or
  // data word that silently wrapped (the packed kinds place data words
  // through row_of, which folds any address), or code past the last row,
  // which would overwrite the first.  It also keeps `entry + i` below
  // from overflowing.
  check_t9_program(program);
  // Every row gets its static PC chain so even the trap path reports a
  // meaningful address; code rows additionally get decoded fields.
  // row = pc + kMaxValue (mod 3^9) is monotone, so the chain is plain
  // arithmetic — no per-row 9-trit wrap round trips.
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    PackedOp& op = rows_[r];
    const int64_t pc = static_cast<int64_t>(r) - Word9::kMaxValue;
    op.pc = static_cast<int16_t>(pc);
    op.next_pc = static_cast<int16_t>(pc == Word9::kMaxValue ? Word9::kMinValue : pc + 1);
    op.next_row = static_cast<uint16_t>(r + 1 == rows_.size() ? 0 : r + 1);
  }
  for (std::size_t i = 0; i < program.code.size(); ++i) {
    const Instruction& inst = program.code[i];
    const int64_t pc = ArchState::wrap(program.entry + static_cast<int64_t>(i));
    PackedOp& op = rows_[row_of(pc)];
    op.kind = kind_of(inst);
    op.imm = static_cast<int16_t>(inst.imm);
    op.ta = static_cast<uint8_t>(inst.ta);
    op.tb = static_cast<uint8_t>(inst.tb);
    op.bcond = static_cast<int8_t>(inst.bcond.value());
    const int64_t taken_pc = ArchState::wrap(pc + inst.imm);
    op.taken_pc = static_cast<int16_t>(taken_pc);
    op.taken_row = static_cast<uint16_t>(row_of(taken_pc));
    const bool is_jump = op.kind == DispatchKind::kJal || op.kind == DispatchKind::kJalr;
    op.word9 = is_jump ? Word9::from_int_wrapped(pc + 1) : encode_immediate(inst, pc);
    const ternary::BctWord9 planes = ternary::BctWord9::encode(op.word9);
    op.word_neg = static_cast<uint16_t>(planes.neg_plane());
    op.word_pos = static_cast<uint16_t>(planes.pos_plane());
  }
}

const Instruction& DecodedImage::instruction(std::size_t r) const noexcept {
  static const Instruction kNoCode{};
  const std::size_t i = code_index(r, row_of(program_.entry));
  return i < program_.code.size() ? program_.code[i] : kNoCode;
}

std::shared_ptr<const DecodedImage> decode(const isa::Program& program) {
  return std::make_shared<const DecodedImage>(program);
}

}  // namespace art9::sim
