// RV32I + M instruction set model — the binary baseline of the paper.
//
// The paper's software framework starts from RV-32I assembly emitted by a
// stock compiler (paper Fig. 2) and its evaluation compares against two
// open RV32 cores: VexRiscv (RV32I, 40 instructions counting FENCE/ECALL/
// EBREAK) and PicoRV32 (RV32IM, 48 instructions) — see Table II.  This
// module provides the ISA definition, 32-bit encoding, assembler and
// functional simulator those comparisons need.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace art9::rv32 {

enum class Rv32Op : uint8_t {
  // RV32I base (37 user-level + FENCE + ECALL + EBREAK = 40).
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
  // M extension (8 more -> 48, the PicoRV32 count in Table II).
  kMul,
  kMulh,
  kMulhsu,
  kMulhu,
  kDiv,
  kDivu,
  kRem,
  kRemu,
};

inline constexpr int kNumRv32IOps = 40;
inline constexpr int kNumRv32Ops = 48;

/// Encoding format.
enum class Rv32Format : uint8_t { kR, kI, kIShift, kS, kB, kU, kJ, kSystem };

/// Timing class consumed by the cycle models.
enum class Rv32Class : uint8_t {
  kAlu,
  kLoad,
  kStore,
  kBranch,
  kJump,
  kMul,
  kDiv,
  kSystem,
};

struct Rv32Spec {
  std::string_view mnemonic;
  Rv32Format format;
  Rv32Class klass;
};

[[nodiscard]] const Rv32Spec& spec(Rv32Op op);
[[nodiscard]] std::string_view mnemonic(Rv32Op op);
[[nodiscard]] Rv32Op rv32_op_from_mnemonic(std::string_view name);

/// One decoded instruction.  `imm` is the sign-extended immediate
/// (byte offsets for branches/jumps, as in the spec).
struct Rv32Instruction {
  Rv32Op op = Rv32Op::kAddi;
  int rd = 0;
  int rs1 = 0;
  int rs2 = 0;
  int32_t imm = 0;

  friend bool operator==(const Rv32Instruction&, const Rv32Instruction&) = default;

  static Rv32Instruction nop() { return Rv32Instruction{Rv32Op::kAddi, 0, 0, 0, 0}; }
};

/// Encodes to the standard 32-bit RISC-V word.  Throws std::out_of_range
/// on malformed fields.
[[nodiscard]] uint32_t encode(const Rv32Instruction& inst);

/// Decodes a 32-bit word; throws std::invalid_argument on undefined ones.
[[nodiscard]] Rv32Instruction decode(uint32_t word);

[[nodiscard]] std::string to_string(const Rv32Instruction& inst);
std::ostream& operator<<(std::ostream& os, const Rv32Instruction& inst);

/// ABI register name (x0 -> "zero", x2 -> "sp", ...).
[[nodiscard]] std::string_view abi_name(int reg);

/// Parses "x7", "t0", "sp", ... ; throws std::invalid_argument for a
/// name that is none of these and std::out_of_range for x32..x99.
[[nodiscard]] int parse_rv32_register(std::string_view token);

}  // namespace art9::rv32
