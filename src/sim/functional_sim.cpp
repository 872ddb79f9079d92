#include "sim/functional_sim.hpp"

#include <string>
#include <utility>

#include "sim/talu.hpp"

namespace art9::sim {

using isa::Instruction;
using isa::Opcode;
using ternary::Word9;

// ---- pre-decoded dispatch fast path ----------------------------------------

FunctionalSimulator::FunctionalSimulator(const isa::Program& program)
    : FunctionalSimulator(decode(program)) {}

FunctionalSimulator::FunctionalSimulator(std::shared_ptr<const DecodedImage> image)
    : image_(std::move(image)) {
  load_data(image_->program(), state_);
  row_ = DecodedImage::row_of(state_.pc);
}

bool FunctionalSimulator::step() {
  const PackedOp& op = image_->row(row_);
  switch (op.kind) {
    case DispatchKind::kBeq:
    case DispatchKind::kBne: {
      const bool eq = state_.trf.read(op.tb).lst().value() == op.bcond;
      const bool taken = op.kind == DispatchKind::kBeq ? eq : !eq;
      if (taken) {
        state_.pc = op.taken_pc;
        row_ = op.taken_row;
      } else {
        state_.pc = op.next_pc;
        row_ = op.next_row;
      }
      return true;
    }
    case DispatchKind::kHalt:
      return false;
    case DispatchKind::kJal:
      state_.trf.write(op.ta, op.word9);  // the link
      state_.pc = op.taken_pc;
      row_ = op.taken_row;
      return true;
    case DispatchKind::kJalr: {
      const int64_t target = ArchState::wrap(state_.trf.read(op.tb).to_int() + op.imm);
      if (target == op.pc) return false;  // self-jump = halt (no link write)
      state_.trf.write(op.ta, op.word9);
      state_.pc = target;
      row_ = DecodedImage::row_of(target);
      return true;
    }
    case DispatchKind::kLoad: {
      const int64_t addr = state_.trf.read(op.tb).to_int() + op.imm;
      state_.trf.write(op.ta, state_.tdm.read(addr));
      break;
    }
    case DispatchKind::kStore: {
      const int64_t addr = state_.trf.read(op.tb).to_int() + op.imm;
      state_.tdm.write(addr, state_.trf.read(op.ta));
      break;
    }
    case DispatchKind::kInvalid:
      throw SimError("fetch from uninitialised TIM address " + std::to_string(op.pc));
    default:
      // Data-processing opcodes (MV..LI), which all write Ta: one TALU
      // evaluation off the row (immediates already encoded — no from_int).
      state_.trf.write(op.ta, execute(op, state_.trf.read(op.ta), state_.trf.read(op.tb)));
      break;
  }
  state_.pc = op.next_pc;
  row_ = op.next_row;
  return true;
}

SimStats FunctionalSimulator::run(uint64_t max_instructions) {
  return run_steps(*this, max_instructions);
}

// ---- seed lazy decode-on-fetch baseline ------------------------------------

LazyFunctionalSimulator::LazyFunctionalSimulator(const isa::Program& program)
    : code_(program.code), entry_row_(TernaryMemory::row_of(program.entry)) {
  load_data(program, state_);  // validates the entry, code size and data addresses
}

const Instruction& LazyFunctionalSimulator::fetch(int64_t pc) const {
  const std::size_t i = code_index(TernaryMemory::row_of(pc), entry_row_);
  if (i >= code_.size()) {
    throw SimError("fetch from uninitialised TIM address " + std::to_string(pc));
  }
  return code_[i];
}

bool LazyFunctionalSimulator::step() {
  const Instruction& inst = fetch(state_.pc);
  const isa::OpcodeSpec& s = isa::spec(inst.op);
  int64_t next_pc = ArchState::wrap(state_.pc + 1);

  switch (inst.op) {
    case Opcode::kBeq:
    case Opcode::kBne: {
      const ternary::Trit lst = state_.trf.read(inst.tb).lst();
      const bool eq = lst == inst.bcond;
      const bool taken = inst.op == Opcode::kBeq ? eq : !eq;
      if (taken) next_pc = ArchState::wrap(state_.pc + inst.imm);
      break;
    }
    case Opcode::kJal: {
      if (inst.imm == 0) return false;  // HALT convention
      state_.trf.write(inst.ta, Word9::from_int_wrapped(state_.pc + 1));
      next_pc = ArchState::wrap(state_.pc + inst.imm);
      break;
    }
    case Opcode::kJalr: {
      const int64_t target = ArchState::wrap(state_.trf.read(inst.tb).to_int() + inst.imm);
      if (target == state_.pc) return false;  // self-jump = halt (no link write)
      state_.trf.write(inst.ta, Word9::from_int_wrapped(state_.pc + 1));
      next_pc = target;
      break;
    }
    case Opcode::kLoad: {
      const int64_t addr = state_.trf.read(inst.tb).to_int() + inst.imm;
      state_.trf.write(inst.ta, state_.tdm.read(addr));
      break;
    }
    case Opcode::kStore: {
      const int64_t addr = state_.trf.read(inst.tb).to_int() + inst.imm;
      state_.tdm.write(addr, state_.trf.read(inst.ta));
      break;
    }
    default: {
      const Word9& a = state_.trf.read(inst.ta);
      const Word9& b = state_.trf.read(inst.tb);
      if (s.writes_ta) state_.trf.write(inst.ta, execute(inst, a, b));
      break;
    }
  }
  state_.pc = next_pc;
  return true;
}

SimStats LazyFunctionalSimulator::run(uint64_t max_instructions) {
  return run_steps(*this, max_instructions);
}

}  // namespace art9::sim
