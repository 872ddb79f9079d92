#include "sim/talu.hpp"

#include <stdexcept>
#include <string>

namespace art9::sim {

using isa::Instruction;
using isa::Opcode;
using ternary::Word9;

int shift_amount(const Word9& w) noexcept {
  return w[1].level() * 3 + w[0].level();
}

Word9 comp_result(const Word9& a, const Word9& b) noexcept {
  Word9 out;
  out.set(0, Word9::compare(a, b));
  return out;
}

Word9 execute(const Instruction& inst, const Word9& a, const Word9& b) {
  switch (inst.op) {
    case Opcode::kMv:
      return b;
    case Opcode::kPti:
      return ternary::pti(b);
    case Opcode::kNti:
      return ternary::nti(b);
    case Opcode::kSti:
      return ternary::sti(b);
    case Opcode::kAnd:
      return ternary::tand(a, b);
    case Opcode::kOr:
      return ternary::tor(a, b);
    case Opcode::kXor:
      return ternary::txor(a, b);
    case Opcode::kAdd:
      return a + b;
    case Opcode::kSub:
      return a - b;
    case Opcode::kSr:
      return a.shr(static_cast<std::size_t>(shift_amount(b)));
    case Opcode::kSl:
      return a.shl(static_cast<std::size_t>(shift_amount(b)));
    case Opcode::kComp:
      return comp_result(a, b);
    case Opcode::kAndi:
      return ternary::tand(a, Word9::from_int(inst.imm));
    case Opcode::kAddi:
      return a + Word9::from_int(inst.imm);
    case Opcode::kSri:
      return a.shr(static_cast<std::size_t>(inst.imm));
    case Opcode::kSli:
      return a.shl(static_cast<std::size_t>(inst.imm));
    case Opcode::kLui: {
      Word9 out;
      out.insert(5, ternary::Word<4>::from_int(inst.imm));
      return out;
    }
    case Opcode::kLi: {
      Word9 out = a;
      out.insert(0, ternary::Word<5>::from_int(inst.imm));
      return out;
    }
    default:
      throw std::logic_error("TALU: opcode has no data-processing result: " +
                             std::string(isa::mnemonic(inst.op)));
  }
}

Word9 execute(const PackedOp& op, const Word9& a, const Word9& b) {
  switch (op.kind) {
    case DispatchKind::kMv:
      return b;
    case DispatchKind::kPti:
      return ternary::pti(b);
    case DispatchKind::kNti:
      return ternary::nti(b);
    case DispatchKind::kSti:
      return ternary::sti(b);
    case DispatchKind::kAnd:
      return ternary::tand(a, b);
    case DispatchKind::kOr:
      return ternary::tor(a, b);
    case DispatchKind::kXor:
      return ternary::txor(a, b);
    case DispatchKind::kAdd:
      return a + b;
    case DispatchKind::kSub:
      return a - b;
    case DispatchKind::kSr:
      return a.shr(static_cast<std::size_t>(shift_amount(b)));
    case DispatchKind::kSl:
      return a.shl(static_cast<std::size_t>(shift_amount(b)));
    case DispatchKind::kComp:
      return comp_result(a, b);
    case DispatchKind::kAndi:
      return ternary::tand(a, op.word9);
    case DispatchKind::kAddi:
      return a + op.word9;
    case DispatchKind::kSri:
      return a.shr(static_cast<std::size_t>(op.imm));
    case DispatchKind::kSli:
      return a.shl(static_cast<std::size_t>(op.imm));
    case DispatchKind::kLui:
      return op.word9;  // the complete result, pre-built at decode
    case DispatchKind::kLi: {
      Word9 out = op.word9;  // imm5 in [4:0], zeros above
      for (std::size_t i = 5; i < ternary::Word9::kTrits; ++i) out.set(i, a[i]);
      return out;
    }
    default:
      throw std::logic_error("TALU: kind has no data-processing result: kind " +
                             std::to_string(static_cast<int>(op.kind)));
  }
}

}  // namespace art9::sim
