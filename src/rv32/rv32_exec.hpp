// Shared execution core of the pre-decoded RV32 backends — the same
// design move as sim::detail::PipelineModel: one copy of the per-opcode
// control logic, force-inlined into both dispatch loops (Rv32Simulator's
// and the superblock tier's) over detail::HostDatapath (rv32_sim.hpp),
// the host uint32_t register file and byte RAM.
#pragma once

#include <cstdint>
#include <string>

#include "rv32/rv32_decoded_image.hpp"
#include "rv32/rv32_sim.hpp"

namespace art9::rv32::detail {

// The run loops keep their position in registers; forcing the dispatch
// switch inline (GCC/Clang) keeps it there instead of spilling the
// next_pc/next_row out-params through memory on every retire.
#if defined(__GNUC__)
#define ART9_RV32_FORCE_INLINE [[gnu::always_inline]] inline
#else
#define ART9_RV32_FORCE_INLINE inline
#endif

/// Executes one pre-decoded instruction on `dp`.  On entry `next_pc` /
/// `next_row` carry the sequential successor; control flow overwrites
/// them.  Returns false when ECALL/EBREAK retires (halt convention).
/// Throws Rv32SimError on the trap row (`pc` names the faulting address)
/// and on out-of-range memory traffic.
ART9_RV32_FORCE_INLINE bool execute_rv32(HostDatapath& dp, const Rv32DecodedImage& image,
                                         const Rv32DecodedOp& op, uint32_t pc, uint32_t& next_pc,
                                         uint32_t& next_row, bool& taken) {
  auto rs1 = [&] { return dp.read(op.rs1); };
  auto rs2 = [&] { return dp.read(op.rs2); };
  auto s1 = [&] { return static_cast<int32_t>(rs1()); };
  auto s2 = [&] { return static_cast<int32_t>(rs2()); };
  auto wr = [&](uint32_t v) { dp.write(op.rd, v); };
  auto branch = [&](bool condition) {
    taken = condition;
    if (condition) {
      next_pc = op.taken_pc;
      next_row = op.taken_row;
    }
  };
  const uint32_t imm = op.imm_u;

  switch (op.kind) {
    case Rv32Dispatch::kTrap:
      throw Rv32SimError("rv32 fetch outside program at pc=" + std::to_string(pc));
    case Rv32Dispatch::kLui:
    case Rv32Dispatch::kAuipc:
      wr(imm);  // complete result precomputed at decode
      break;
    case Rv32Dispatch::kJal:
      wr(op.link);
      next_pc = op.taken_pc;
      next_row = op.taken_row;
      taken = true;
      break;
    case Rv32Dispatch::kJalr: {
      const uint32_t target = (rs1() + imm) & ~1u;
      wr(op.link);
      next_pc = target;
      next_row = image.row_of(target);
      taken = true;
      break;
    }
    case Rv32Dispatch::kBeq:
      branch(rs1() == rs2());
      break;
    case Rv32Dispatch::kBne:
      branch(rs1() != rs2());
      break;
    case Rv32Dispatch::kBlt:
      branch(s1() < s2());
      break;
    case Rv32Dispatch::kBge:
      branch(s1() >= s2());
      break;
    case Rv32Dispatch::kBltu:
      branch(rs1() < rs2());
      break;
    case Rv32Dispatch::kBgeu:
      branch(rs1() >= rs2());
      break;
    case Rv32Dispatch::kLb: {
      const uint32_t b = dp.load(rs1() + imm, 1);
      wr(static_cast<uint32_t>(static_cast<int32_t>(b << 24) >> 24));
      break;
    }
    case Rv32Dispatch::kLh: {
      const uint32_t h = dp.load(rs1() + imm, 2);
      wr(static_cast<uint32_t>(static_cast<int32_t>(h << 16) >> 16));
      break;
    }
    case Rv32Dispatch::kLw:
      wr(dp.load(rs1() + imm, 4));
      break;
    case Rv32Dispatch::kLbu:
      wr(dp.load(rs1() + imm, 1));
      break;
    case Rv32Dispatch::kLhu:
      wr(dp.load(rs1() + imm, 2));
      break;
    case Rv32Dispatch::kSb:
      dp.store(rs1() + imm, rs2(), 1);
      break;
    case Rv32Dispatch::kSh:
      dp.store(rs1() + imm, rs2(), 2);
      break;
    case Rv32Dispatch::kSw:
      dp.store(rs1() + imm, rs2(), 4);
      break;
    case Rv32Dispatch::kAddi:
      wr(rs1() + imm);
      break;
    case Rv32Dispatch::kSlti:
      wr(s1() < static_cast<int32_t>(imm) ? 1 : 0);
      break;
    case Rv32Dispatch::kSltiu:
      wr(rs1() < imm ? 1 : 0);
      break;
    case Rv32Dispatch::kXori:
      wr(rs1() ^ imm);
      break;
    case Rv32Dispatch::kOri:
      wr(rs1() | imm);
      break;
    case Rv32Dispatch::kAndi:
      wr(rs1() & imm);
      break;
    case Rv32Dispatch::kSlli:
      wr(rs1() << imm);  // shift amount pre-masked at decode
      break;
    case Rv32Dispatch::kSrli:
      wr(rs1() >> imm);
      break;
    case Rv32Dispatch::kSrai:
      wr(static_cast<uint32_t>(s1() >> imm));
      break;
    case Rv32Dispatch::kAdd:
      wr(rs1() + rs2());
      break;
    case Rv32Dispatch::kSub:
      wr(rs1() - rs2());
      break;
    case Rv32Dispatch::kSll:
      wr(rs1() << (rs2() & 31));
      break;
    case Rv32Dispatch::kSlt:
      wr(s1() < s2() ? 1 : 0);
      break;
    case Rv32Dispatch::kSltu:
      wr(rs1() < rs2() ? 1 : 0);
      break;
    case Rv32Dispatch::kXor:
      wr(rs1() ^ rs2());
      break;
    case Rv32Dispatch::kSrl:
      wr(rs1() >> (rs2() & 31));
      break;
    case Rv32Dispatch::kSra:
      wr(static_cast<uint32_t>(s1() >> (rs2() & 31)));
      break;
    case Rv32Dispatch::kOr:
      wr(rs1() | rs2());
      break;
    case Rv32Dispatch::kAnd:
      wr(rs1() & rs2());
      break;
    case Rv32Dispatch::kFence:
      break;
    case Rv32Dispatch::kEcall:
    case Rv32Dispatch::kEbreak:
      return false;  // halt convention — caller reports the event
    case Rv32Dispatch::kMul:
      wr(rs1() * rs2());
      break;
    case Rv32Dispatch::kMulh:
      wr(static_cast<uint32_t>((static_cast<int64_t>(s1()) * static_cast<int64_t>(s2())) >> 32));
      break;
    case Rv32Dispatch::kMulhsu:
      wr(static_cast<uint32_t>(
          (static_cast<int64_t>(s1()) * static_cast<int64_t>(static_cast<uint64_t>(rs2()))) >> 32));
      break;
    case Rv32Dispatch::kMulhu:
      wr(static_cast<uint32_t>((static_cast<uint64_t>(rs1()) * static_cast<uint64_t>(rs2())) >> 32));
      break;
    case Rv32Dispatch::kDiv:
      if (rs2() == 0) {
        wr(0xffffffffu);
      } else if (s1() == INT32_MIN && s2() == -1) {
        wr(static_cast<uint32_t>(INT32_MIN));
      } else {
        wr(static_cast<uint32_t>(s1() / s2()));
      }
      break;
    case Rv32Dispatch::kDivu:
      wr(rs2() == 0 ? 0xffffffffu : rs1() / rs2());
      break;
    case Rv32Dispatch::kRem:
      if (rs2() == 0) {
        wr(rs1());
      } else if (s1() == INT32_MIN && s2() == -1) {
        wr(0);
      } else {
        wr(static_cast<uint32_t>(s1() % s2()));
      }
      break;
    case Rv32Dispatch::kRemu:
      wr(rs2() == 0 ? rs1() : rs1() % rs2());
      break;
  }
  return true;
}

}  // namespace art9::rv32::detail
