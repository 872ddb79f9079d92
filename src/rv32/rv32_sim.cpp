#include "rv32/rv32_sim.hpp"

#include "rv32/rv32_exec.hpp"

#include <string>
#include <utility>

namespace art9::rv32 {

// ram_load/ram_store/HostDatapath live in rv32_sim.hpp's detail namespace
// (shared with the superblock backend).
using detail::ram_load;
using detail::ram_store;
using detail::HostDatapath;

// ---------------------------------------------------------------------------
// Rv32Simulator — the pre-decoded reference model.
// ---------------------------------------------------------------------------

Rv32Simulator::Rv32Simulator(const Rv32Program& program, std::size_t ram_bytes)
    : Rv32Simulator(decode(program), ram_bytes) {}

Rv32Simulator::Rv32Simulator(std::shared_ptr<const Rv32DecodedImage> image, std::size_t ram_bytes)
    : image_(std::move(image)), ram_(ram_bytes, 0) {
  if (!image_) throw Rv32SimError("Rv32Simulator: null image");
  rows_ = image_->rows_data();
  pc_ = image_->entry();
  row_ = image_->row_of(pc_);
  for (const Rv32DataWord& d : image_->program().data) store_word(d.address, d.value);
}

uint32_t Rv32Simulator::ram_at(uint32_t address, uint32_t size) const {
  return ram_load(ram_, address, size, "load");
}

uint32_t Rv32Simulator::load_word(uint32_t address) const { return ram_at(address, 4); }

uint8_t Rv32Simulator::load_byte(uint32_t address) const {
  return static_cast<uint8_t>(ram_at(address, 1));
}

void Rv32Simulator::store_word(uint32_t address, uint32_t value) {
  ram_store(ram_, address, value, 4, "store");
}

bool Rv32Simulator::step() {
  const Rv32DecodedOp& op = rows_[row_];
  uint32_t next_pc = op.next_pc;
  uint32_t next_row = op.next_row;
  bool taken = false;

  HostDatapath dp{regs_, ram_};
  const bool more = detail::execute_rv32(dp, *image_, op, pc_, next_pc, next_row, taken);
  taken_ = taken;
  if (!more) return false;  // halt convention
  pc_ = next_pc;
  row_ = next_row;
  return true;
}

void Rv32Simulator::step_until(Rv32RunStats& stats, uint64_t max_instructions) {
  while (!stats.halted && stats.instructions < max_instructions) {
    if (!step()) {
      stats.halted = true;
      break;
    }
    ++stats.instructions;
  }
}

Rv32RunStats Rv32Simulator::run(uint64_t max_instructions) {
  Rv32RunStats stats;
  // Native hot loop: position lives in registers; pc_/row_ are committed
  // only at exit (including the trap path, so a fault leaves the
  // architectural pc on the faulting address exactly like step()).
  uint32_t pc = pc_;
  uint32_t row = row_;
  const Rv32DecodedOp* const rows = rows_;
  HostDatapath dp{regs_, ram_};
  try {
    while (stats.instructions < max_instructions) {
      const Rv32DecodedOp& op = rows[row];
      uint32_t next_pc = op.next_pc;
      uint32_t next_row = op.next_row;
      bool taken = false;
      if (!detail::execute_rv32(dp, *image_, op, pc, next_pc, next_row, taken)) {
        stats.halted = true;
        break;
      }
      pc = next_pc;
      row = next_row;
      ++stats.instructions;
    }
  } catch (...) {
    pc_ = pc;
    row_ = row;
    throw;
  }
  pc_ = pc;
  row_ = row;
  return stats;
}

// ---------------------------------------------------------------------------
// LazyRv32Simulator — the seed decode-on-fetch loop (differential baseline).
// ---------------------------------------------------------------------------

LazyRv32Simulator::LazyRv32Simulator(const Rv32Program& program, std::size_t ram_bytes)
    : code_(program.code), entry_(program.entry), ram_(ram_bytes, 0), pc_(program.entry) {
  for (const Rv32DataWord& d : program.data) store_word(d.address, d.value);
}

const Rv32Instruction& LazyRv32Simulator::fetch() const {
  if (pc_ < entry_ || (pc_ - entry_) % 4 != 0 || (pc_ - entry_) / 4 >= code_.size()) {
    throw Rv32SimError("rv32 fetch outside program at pc=" + std::to_string(pc_));
  }
  return code_[(pc_ - entry_) / 4];
}

uint32_t LazyRv32Simulator::ram_at(uint32_t address, uint32_t size) const {
  return ram_load(ram_, address, size, "load");
}

uint32_t LazyRv32Simulator::load_word(uint32_t address) const { return ram_at(address, 4); }

uint8_t LazyRv32Simulator::load_byte(uint32_t address) const {
  return static_cast<uint8_t>(ram_at(address, 1));
}

void LazyRv32Simulator::store_word(uint32_t address, uint32_t value) {
  ram_store(ram_, address, value, 4, "store");
}

bool LazyRv32Simulator::step(const Observer& observer) {
  const Rv32Instruction inst = fetch();
  const uint32_t pc = pc_;
  uint32_t next_pc = pc_ + 4;
  bool taken = false;

  auto rs1 = [&] { return regs_[static_cast<std::size_t>(inst.rs1)]; };
  auto rs2 = [&] { return regs_[static_cast<std::size_t>(inst.rs2)]; };
  auto s1 = [&] { return static_cast<int32_t>(rs1()); };
  auto s2 = [&] { return static_cast<int32_t>(rs2()); };
  auto wr = [&](uint32_t v) { set_reg(inst.rd, v); };
  const auto imm_u = static_cast<uint32_t>(inst.imm);

  switch (inst.op) {
    case Rv32Op::kLui:
      wr(static_cast<uint32_t>(inst.imm) << 12);
      break;
    case Rv32Op::kAuipc:
      wr(pc + (static_cast<uint32_t>(inst.imm) << 12));
      break;
    case Rv32Op::kJal:
      wr(pc + 4);
      next_pc = pc + imm_u;
      taken = true;
      break;
    case Rv32Op::kJalr: {
      const uint32_t target = (rs1() + imm_u) & ~1u;
      wr(pc + 4);
      next_pc = target;
      taken = true;
      break;
    }
    case Rv32Op::kBeq:
      taken = rs1() == rs2();
      if (taken) next_pc = pc + imm_u;
      break;
    case Rv32Op::kBne:
      taken = rs1() != rs2();
      if (taken) next_pc = pc + imm_u;
      break;
    case Rv32Op::kBlt:
      taken = s1() < s2();
      if (taken) next_pc = pc + imm_u;
      break;
    case Rv32Op::kBge:
      taken = s1() >= s2();
      if (taken) next_pc = pc + imm_u;
      break;
    case Rv32Op::kBltu:
      taken = rs1() < rs2();
      if (taken) next_pc = pc + imm_u;
      break;
    case Rv32Op::kBgeu:
      taken = rs1() >= rs2();
      if (taken) next_pc = pc + imm_u;
      break;
    case Rv32Op::kLb: {
      const uint32_t b = ram_at(rs1() + imm_u, 1);
      wr(static_cast<uint32_t>(static_cast<int32_t>(b << 24) >> 24));
      break;
    }
    case Rv32Op::kLh: {
      const uint32_t h = ram_at(rs1() + imm_u, 2);
      wr(static_cast<uint32_t>(static_cast<int32_t>(h << 16) >> 16));
      break;
    }
    case Rv32Op::kLw:
      wr(ram_at(rs1() + imm_u, 4));
      break;
    case Rv32Op::kLbu:
      wr(ram_at(rs1() + imm_u, 1));
      break;
    case Rv32Op::kLhu:
      wr(ram_at(rs1() + imm_u, 2));
      break;
    case Rv32Op::kSb:
      ram_store(ram_, rs1() + imm_u, rs2(), 1, "store");
      break;
    case Rv32Op::kSh:
      ram_store(ram_, rs1() + imm_u, rs2(), 2, "store");
      break;
    case Rv32Op::kSw:
      ram_store(ram_, rs1() + imm_u, rs2(), 4, "store");
      break;
    case Rv32Op::kAddi:
      wr(rs1() + imm_u);
      break;
    case Rv32Op::kSlti:
      wr(s1() < inst.imm ? 1 : 0);
      break;
    case Rv32Op::kSltiu:
      wr(rs1() < imm_u ? 1 : 0);
      break;
    case Rv32Op::kXori:
      wr(rs1() ^ imm_u);
      break;
    case Rv32Op::kOri:
      wr(rs1() | imm_u);
      break;
    case Rv32Op::kAndi:
      wr(rs1() & imm_u);
      break;
    case Rv32Op::kSlli:
      wr(rs1() << (inst.imm & 31));
      break;
    case Rv32Op::kSrli:
      wr(rs1() >> (inst.imm & 31));
      break;
    case Rv32Op::kSrai:
      wr(static_cast<uint32_t>(s1() >> (inst.imm & 31)));
      break;
    case Rv32Op::kAdd:
      wr(rs1() + rs2());
      break;
    case Rv32Op::kSub:
      wr(rs1() - rs2());
      break;
    case Rv32Op::kSll:
      wr(rs1() << (rs2() & 31));
      break;
    case Rv32Op::kSlt:
      wr(s1() < s2() ? 1 : 0);
      break;
    case Rv32Op::kSltu:
      wr(rs1() < rs2() ? 1 : 0);
      break;
    case Rv32Op::kXor:
      wr(rs1() ^ rs2());
      break;
    case Rv32Op::kSrl:
      wr(rs1() >> (rs2() & 31));
      break;
    case Rv32Op::kSra:
      wr(static_cast<uint32_t>(s1() >> (rs2() & 31)));
      break;
    case Rv32Op::kOr:
      wr(rs1() | rs2());
      break;
    case Rv32Op::kAnd:
      wr(rs1() & rs2());
      break;
    case Rv32Op::kFence:
      break;
    case Rv32Op::kEcall:
    case Rv32Op::kEbreak:
      if (observer) observer(Rv32Retired{inst, pc, false});
      return false;  // halt convention
    case Rv32Op::kMul:
      wr(rs1() * rs2());
      break;
    case Rv32Op::kMulh:
      wr(static_cast<uint32_t>((static_cast<int64_t>(s1()) * static_cast<int64_t>(s2())) >> 32));
      break;
    case Rv32Op::kMulhsu:
      wr(static_cast<uint32_t>(
          (static_cast<int64_t>(s1()) * static_cast<int64_t>(static_cast<uint64_t>(rs2()))) >> 32));
      break;
    case Rv32Op::kMulhu:
      wr(static_cast<uint32_t>((static_cast<uint64_t>(rs1()) * static_cast<uint64_t>(rs2())) >> 32));
      break;
    case Rv32Op::kDiv:
      if (rs2() == 0) {
        wr(0xffffffffu);
      } else if (s1() == INT32_MIN && s2() == -1) {
        wr(static_cast<uint32_t>(INT32_MIN));
      } else {
        wr(static_cast<uint32_t>(s1() / s2()));
      }
      break;
    case Rv32Op::kDivu:
      wr(rs2() == 0 ? 0xffffffffu : rs1() / rs2());
      break;
    case Rv32Op::kRem:
      if (rs2() == 0) {
        wr(rs1());
      } else if (s1() == INT32_MIN && s2() == -1) {
        wr(0);
      } else {
        wr(static_cast<uint32_t>(s1() % s2()));
      }
      break;
    case Rv32Op::kRemu:
      wr(rs2() == 0 ? rs1() : rs1() % rs2());
      break;
  }

  pc_ = next_pc;
  if (observer) observer(Rv32Retired{inst, pc, taken});
  return true;
}

Rv32RunStats LazyRv32Simulator::run(uint64_t max_instructions, const Observer& observer) {
  Rv32RunStats stats;
  while (stats.instructions < max_instructions) {
    if (!step(observer)) {
      stats.halted = true;
      break;
    }
    ++stats.instructions;
  }
  return stats;
}

}  // namespace art9::rv32
