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
  // Reject out-of-range entries and data words up front: `entry + i`
  // below must not overflow, and an image whose entry or data silently
  // wrapped would load as a different program on every kind — the packed
  // kinds place data words through row_of, which folds any address.
  check_t9_address(program.entry, "entry");
  for (const isa::DataWord& d : program.data) check_t9_address(d.address, "data-word");
  // Every row gets its static PC chain so even the trap path reports a
  // meaningful address; program rows additionally get decoded fields.
  // row = pc + kMaxValue (mod 3^9) is monotone, so the chain is plain
  // arithmetic — no per-row 9-trit wrap round trips.
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    DecodedOp& op = rows_[r];
    op.pc = static_cast<int64_t>(r) - Word9::kMaxValue;
    op.next_pc = op.pc == Word9::kMaxValue ? Word9::kMinValue : op.pc + 1;
    op.next_row = r + 1 == rows_.size() ? 0 : static_cast<uint32_t>(r + 1);
  }
  for (std::size_t i = 0; i < program.code.size(); ++i) {
    const int64_t pc = ArchState::wrap(program.entry + static_cast<int64_t>(i));
    DecodedOp& op = rows_[row_of(pc)];
    op.inst = program.code[i];
    op.kind = kind_of(op.inst);
    op.writes_ta = isa::spec(op.inst.op).writes_ta;
    op.taken_pc = ArchState::wrap(pc + op.inst.imm);
    op.taken_row = static_cast<uint32_t>(row_of(op.taken_pc));
    op.link = Word9::from_int_wrapped(pc + 1);
    op.imm_word = encode_immediate(op.inst, pc);
  }
}

const PackedOp* DecodedImage::packed_rows() const {
  // The packed TIM mirrors every row in 24-byte plane-pair form; built
  // once, on the first packed-backend use, so reference-only simulators
  // never pay the mirror's memory or encode pass.
  std::call_once(packed_once_, [this] {
    packed_rows_.resize(rows_.size());
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      const DecodedOp& op = rows_[r];
      PackedOp& p = packed_rows_[r];
      const bool is_jump = op.kind == DispatchKind::kJal || op.kind == DispatchKind::kJalr;
      const ternary::BctWord9 word = ternary::BctWord9::encode(is_jump ? op.link : op.imm_word);
      p.word_neg = static_cast<uint16_t>(word.neg_plane());
      p.word_pos = static_cast<uint16_t>(word.pos_plane());
      p.imm = static_cast<int16_t>(op.inst.imm);
      p.kind = op.kind;
      p.ta = static_cast<uint8_t>(op.inst.ta);
      p.tb = static_cast<uint8_t>(op.inst.tb);
      p.bcond = static_cast<int8_t>(op.inst.bcond.value());
      p.pc = static_cast<int16_t>(op.pc);
      p.next_pc = static_cast<int16_t>(op.next_pc);
      p.next_row = static_cast<uint16_t>(op.next_row);
      p.taken_pc = static_cast<int16_t>(op.taken_pc);
      p.taken_row = static_cast<uint16_t>(op.taken_row);
    }
  });
  return packed_rows_.data();
}

std::shared_ptr<const DecodedImage> decode(const isa::Program& program) {
  return std::make_shared<const DecodedImage>(program);
}

}  // namespace art9::sim
