#include "rv32/rv32_isa.hpp"

#include <algorithm>
#include <cctype>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace art9::rv32 {
namespace {

struct EncInfo {
  uint32_t opcode;  // 7-bit major opcode
  uint32_t funct3;
  uint32_t funct7;
};

constexpr uint32_t kOpLui = 0b0110111;
constexpr uint32_t kOpAuipc = 0b0010111;
constexpr uint32_t kOpJal = 0b1101111;
constexpr uint32_t kOpJalr = 0b1100111;
constexpr uint32_t kOpBranch = 0b1100011;
constexpr uint32_t kOpLoad = 0b0000011;
constexpr uint32_t kOpStore = 0b0100011;
constexpr uint32_t kOpImm = 0b0010011;
constexpr uint32_t kOpReg = 0b0110011;
constexpr uint32_t kOpMiscMem = 0b0001111;
constexpr uint32_t kOpSystem = 0b1110011;

struct Entry {
  Rv32Spec spec;
  EncInfo enc;
};

constexpr Entry kTable[kNumRv32Ops] = {
    {{"lui", Rv32Format::kU, Rv32Class::kAlu}, {kOpLui, 0, 0}},
    {{"auipc", Rv32Format::kU, Rv32Class::kAlu}, {kOpAuipc, 0, 0}},
    {{"jal", Rv32Format::kJ, Rv32Class::kJump}, {kOpJal, 0, 0}},
    {{"jalr", Rv32Format::kI, Rv32Class::kJump}, {kOpJalr, 0b000, 0}},
    {{"beq", Rv32Format::kB, Rv32Class::kBranch}, {kOpBranch, 0b000, 0}},
    {{"bne", Rv32Format::kB, Rv32Class::kBranch}, {kOpBranch, 0b001, 0}},
    {{"blt", Rv32Format::kB, Rv32Class::kBranch}, {kOpBranch, 0b100, 0}},
    {{"bge", Rv32Format::kB, Rv32Class::kBranch}, {kOpBranch, 0b101, 0}},
    {{"bltu", Rv32Format::kB, Rv32Class::kBranch}, {kOpBranch, 0b110, 0}},
    {{"bgeu", Rv32Format::kB, Rv32Class::kBranch}, {kOpBranch, 0b111, 0}},
    {{"lb", Rv32Format::kI, Rv32Class::kLoad}, {kOpLoad, 0b000, 0}},
    {{"lh", Rv32Format::kI, Rv32Class::kLoad}, {kOpLoad, 0b001, 0}},
    {{"lw", Rv32Format::kI, Rv32Class::kLoad}, {kOpLoad, 0b010, 0}},
    {{"lbu", Rv32Format::kI, Rv32Class::kLoad}, {kOpLoad, 0b100, 0}},
    {{"lhu", Rv32Format::kI, Rv32Class::kLoad}, {kOpLoad, 0b101, 0}},
    {{"sb", Rv32Format::kS, Rv32Class::kStore}, {kOpStore, 0b000, 0}},
    {{"sh", Rv32Format::kS, Rv32Class::kStore}, {kOpStore, 0b001, 0}},
    {{"sw", Rv32Format::kS, Rv32Class::kStore}, {kOpStore, 0b010, 0}},
    {{"addi", Rv32Format::kI, Rv32Class::kAlu}, {kOpImm, 0b000, 0}},
    {{"slti", Rv32Format::kI, Rv32Class::kAlu}, {kOpImm, 0b010, 0}},
    {{"sltiu", Rv32Format::kI, Rv32Class::kAlu}, {kOpImm, 0b011, 0}},
    {{"xori", Rv32Format::kI, Rv32Class::kAlu}, {kOpImm, 0b100, 0}},
    {{"ori", Rv32Format::kI, Rv32Class::kAlu}, {kOpImm, 0b110, 0}},
    {{"andi", Rv32Format::kI, Rv32Class::kAlu}, {kOpImm, 0b111, 0}},
    {{"slli", Rv32Format::kIShift, Rv32Class::kAlu}, {kOpImm, 0b001, 0b0000000}},
    {{"srli", Rv32Format::kIShift, Rv32Class::kAlu}, {kOpImm, 0b101, 0b0000000}},
    {{"srai", Rv32Format::kIShift, Rv32Class::kAlu}, {kOpImm, 0b101, 0b0100000}},
    {{"add", Rv32Format::kR, Rv32Class::kAlu}, {kOpReg, 0b000, 0b0000000}},
    {{"sub", Rv32Format::kR, Rv32Class::kAlu}, {kOpReg, 0b000, 0b0100000}},
    {{"sll", Rv32Format::kR, Rv32Class::kAlu}, {kOpReg, 0b001, 0b0000000}},
    {{"slt", Rv32Format::kR, Rv32Class::kAlu}, {kOpReg, 0b010, 0b0000000}},
    {{"sltu", Rv32Format::kR, Rv32Class::kAlu}, {kOpReg, 0b011, 0b0000000}},
    {{"xor", Rv32Format::kR, Rv32Class::kAlu}, {kOpReg, 0b100, 0b0000000}},
    {{"srl", Rv32Format::kR, Rv32Class::kAlu}, {kOpReg, 0b101, 0b0000000}},
    {{"sra", Rv32Format::kR, Rv32Class::kAlu}, {kOpReg, 0b101, 0b0100000}},
    {{"or", Rv32Format::kR, Rv32Class::kAlu}, {kOpReg, 0b110, 0b0000000}},
    {{"and", Rv32Format::kR, Rv32Class::kAlu}, {kOpReg, 0b111, 0b0000000}},
    {{"fence", Rv32Format::kSystem, Rv32Class::kSystem}, {kOpMiscMem, 0b000, 0}},
    {{"ecall", Rv32Format::kSystem, Rv32Class::kSystem}, {kOpSystem, 0b000, 0}},
    {{"ebreak", Rv32Format::kSystem, Rv32Class::kSystem}, {kOpSystem, 0b000, 1}},
    {{"mul", Rv32Format::kR, Rv32Class::kMul}, {kOpReg, 0b000, 0b0000001}},
    {{"mulh", Rv32Format::kR, Rv32Class::kMul}, {kOpReg, 0b001, 0b0000001}},
    {{"mulhsu", Rv32Format::kR, Rv32Class::kMul}, {kOpReg, 0b010, 0b0000001}},
    {{"mulhu", Rv32Format::kR, Rv32Class::kMul}, {kOpReg, 0b011, 0b0000001}},
    {{"div", Rv32Format::kR, Rv32Class::kDiv}, {kOpReg, 0b100, 0b0000001}},
    {{"divu", Rv32Format::kR, Rv32Class::kDiv}, {kOpReg, 0b101, 0b0000001}},
    {{"rem", Rv32Format::kR, Rv32Class::kDiv}, {kOpReg, 0b110, 0b0000001}},
    {{"remu", Rv32Format::kR, Rv32Class::kDiv}, {kOpReg, 0b111, 0b0000001}},
};

constexpr std::string_view kAbiNames[32] = {
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0",
    "a1",   "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5",
    "s6",   "s7", "s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
};

uint32_t ubits(int32_t v, int lo, int hi) {
  return (static_cast<uint32_t>(v) >> lo) & ((1u << (hi - lo + 1)) - 1);
}

void check_reg(int r, const char* what) {
  if (r < 0 || r > 31) {
    throw std::out_of_range(std::string("rv32 register out of range: ") + what);
  }
}

void check_imm_range(int64_t v, int64_t lo, int64_t hi, const char* what) {
  if (v < lo || v > hi) {
    throw std::out_of_range("rv32 immediate out of range for " + std::string(what) + ": " +
                            std::to_string(v));
  }
}

}  // namespace

const Rv32Spec& spec(Rv32Op op) { return kTable[static_cast<int>(op)].spec; }

std::string_view mnemonic(Rv32Op op) { return spec(op).mnemonic; }

Rv32Op rv32_op_from_mnemonic(std::string_view name) {
  static const std::unordered_map<std::string, Rv32Op> kByName = [] {
    std::unordered_map<std::string, Rv32Op> m;
    for (int i = 0; i < kNumRv32Ops; ++i) {
      m.emplace(std::string(kTable[i].spec.mnemonic), static_cast<Rv32Op>(i));
    }
    return m;
  }();
  std::string lower(name);
  for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  auto it = kByName.find(lower);
  if (it == kByName.end()) {
    throw std::invalid_argument("unknown rv32 mnemonic: " + std::string(name));
  }
  return it->second;
}

uint32_t encode(const Rv32Instruction& inst) {
  const Entry& e = kTable[static_cast<int>(inst.op)];
  const uint32_t opc = e.enc.opcode;
  const uint32_t f3 = e.enc.funct3;
  const uint32_t f7 = e.enc.funct7;
  check_reg(inst.rd, "rd");
  check_reg(inst.rs1, "rs1");
  check_reg(inst.rs2, "rs2");
  const auto rd = static_cast<uint32_t>(inst.rd);
  const auto rs1 = static_cast<uint32_t>(inst.rs1);
  const auto rs2 = static_cast<uint32_t>(inst.rs2);
  switch (e.spec.format) {
    case Rv32Format::kR:
      return (f7 << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | opc;
    case Rv32Format::kI:
      check_imm_range(inst.imm, -2048, 2047, e.spec.mnemonic.data());
      return (ubits(inst.imm, 0, 11) << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | opc;
    case Rv32Format::kIShift:
      check_imm_range(inst.imm, 0, 31, e.spec.mnemonic.data());
      return (f7 << 25) | (ubits(inst.imm, 0, 4) << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) |
             opc;
    case Rv32Format::kS:
      check_imm_range(inst.imm, -2048, 2047, e.spec.mnemonic.data());
      return (ubits(inst.imm, 5, 11) << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) |
             (ubits(inst.imm, 0, 4) << 7) | opc;
    case Rv32Format::kB:
      check_imm_range(inst.imm, -4096, 4094, e.spec.mnemonic.data());
      if (inst.imm % 2 != 0) throw std::out_of_range("branch offset must be even");
      return (ubits(inst.imm, 12, 12) << 31) | (ubits(inst.imm, 5, 10) << 25) | (rs2 << 20) |
             (rs1 << 15) | (f3 << 12) | (ubits(inst.imm, 1, 4) << 8) |
             (ubits(inst.imm, 11, 11) << 7) | opc;
    case Rv32Format::kU:
      check_imm_range(inst.imm, -524288, 524287, e.spec.mnemonic.data());
      return (ubits(inst.imm, 0, 19) << 12) | (rd << 7) | opc;
    case Rv32Format::kJ:
      check_imm_range(inst.imm, -1048576, 1048574, e.spec.mnemonic.data());
      if (inst.imm % 2 != 0) throw std::out_of_range("jump offset must be even");
      return (ubits(inst.imm, 20, 20) << 31) | (ubits(inst.imm, 1, 10) << 21) |
             (ubits(inst.imm, 11, 11) << 20) | (ubits(inst.imm, 12, 19) << 12) | (rd << 7) | opc;
    case Rv32Format::kSystem:
      if (inst.op == Rv32Op::kEbreak) return (1u << 20) | opc;
      if (inst.op == Rv32Op::kEcall) return opc;
      return (f3 << 12) | opc;  // fence (imm fields zeroed)
  }
  throw std::logic_error("unreachable");
}

namespace {

int32_t sext(uint32_t v, int bits) {
  const uint32_t m = 1u << (bits - 1);
  return static_cast<int32_t>((v ^ m) - m);
}

Rv32Op find_op(uint32_t opc, uint32_t f3, uint32_t f7, uint32_t word) {
  if (opc == kOpSystem) {
    if (word == (1u << 20 | kOpSystem)) return Rv32Op::kEbreak;
    if (word == kOpSystem) return Rv32Op::kEcall;
    throw std::invalid_argument("unsupported SYSTEM instruction");
  }
  for (int i = 0; i < kNumRv32Ops; ++i) {
    const Entry& e = kTable[i];
    if (e.enc.opcode != opc) continue;
    switch (e.spec.format) {
      case Rv32Format::kR:
        if (e.enc.funct3 == f3 && e.enc.funct7 == f7) return static_cast<Rv32Op>(i);
        break;
      case Rv32Format::kIShift:
        if (e.enc.funct3 == f3 && e.enc.funct7 == (f7 & 0b1111111)) return static_cast<Rv32Op>(i);
        break;
      case Rv32Format::kI:
      case Rv32Format::kS:
      case Rv32Format::kB:
        if (e.enc.funct3 == f3) return static_cast<Rv32Op>(i);
        break;
      case Rv32Format::kU:
      case Rv32Format::kJ:
      case Rv32Format::kSystem:
        return static_cast<Rv32Op>(i);
    }
  }
  throw std::invalid_argument("undefined rv32 encoding");
}

}  // namespace

Rv32Instruction decode(uint32_t word) {
  const uint32_t opc = word & 0x7f;
  const uint32_t f3 = (word >> 12) & 0x7;
  const uint32_t f7 = (word >> 25) & 0x7f;
  Rv32Instruction inst;
  inst.op = find_op(opc, f3, f7, word);
  const Rv32Spec& s = spec(inst.op);
  inst.rd = static_cast<int>((word >> 7) & 0x1f);
  inst.rs1 = static_cast<int>((word >> 15) & 0x1f);
  inst.rs2 = static_cast<int>((word >> 20) & 0x1f);
  switch (s.format) {
    case Rv32Format::kR:
      break;
    case Rv32Format::kI:
      inst.rs2 = 0;
      inst.imm = sext(word >> 20, 12);
      break;
    case Rv32Format::kIShift:
      inst.rs2 = 0;
      inst.imm = static_cast<int32_t>((word >> 20) & 0x1f);
      break;
    case Rv32Format::kS:
      inst.rd = 0;
      inst.imm = sext(((word >> 25) << 5) | ((word >> 7) & 0x1f), 12);
      break;
    case Rv32Format::kB: {
      inst.rd = 0;
      const uint32_t imm = (((word >> 31) & 1) << 12) | (((word >> 7) & 1) << 11) |
                           (((word >> 25) & 0x3f) << 5) | (((word >> 8) & 0xf) << 1);
      inst.imm = sext(imm, 13);
      break;
    }
    case Rv32Format::kU:
      inst.rs1 = inst.rs2 = 0;
      inst.imm = sext(word >> 12, 20);
      break;
    case Rv32Format::kJ: {
      inst.rs1 = inst.rs2 = 0;
      const uint32_t imm = (((word >> 31) & 1) << 20) | (((word >> 12) & 0xff) << 12) |
                           (((word >> 20) & 1) << 11) | (((word >> 21) & 0x3ff) << 1);
      inst.imm = sext(imm, 21);
      break;
    }
    case Rv32Format::kSystem:
      inst.rd = inst.rs1 = inst.rs2 = 0;
      inst.imm = 0;
      break;
  }
  return inst;
}

std::string to_string(const Rv32Instruction& inst) {
  const Rv32Spec& s = spec(inst.op);
  std::ostringstream os;
  os << s.mnemonic << ' ';
  switch (s.format) {
    case Rv32Format::kR:
      os << abi_name(inst.rd) << ", " << abi_name(inst.rs1) << ", " << abi_name(inst.rs2);
      break;
    case Rv32Format::kI:
      if (spec(inst.op).klass == Rv32Class::kLoad || inst.op == Rv32Op::kJalr) {
        os << abi_name(inst.rd) << ", " << inst.imm << '(' << abi_name(inst.rs1) << ')';
      } else {
        os << abi_name(inst.rd) << ", " << abi_name(inst.rs1) << ", " << inst.imm;
      }
      break;
    case Rv32Format::kIShift:
      os << abi_name(inst.rd) << ", " << abi_name(inst.rs1) << ", " << inst.imm;
      break;
    case Rv32Format::kS:
      os << abi_name(inst.rs2) << ", " << inst.imm << '(' << abi_name(inst.rs1) << ')';
      break;
    case Rv32Format::kB:
      os << abi_name(inst.rs1) << ", " << abi_name(inst.rs2) << ", " << inst.imm;
      break;
    case Rv32Format::kU:
      os << abi_name(inst.rd) << ", " << inst.imm;
      break;
    case Rv32Format::kJ:
      os << abi_name(inst.rd) << ", " << inst.imm;
      break;
    case Rv32Format::kSystem:
      break;
  }
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Rv32Instruction& inst) {
  return os << to_string(inst);
}

std::string_view abi_name(int reg) {
  if (reg < 0 || reg > 31) throw std::out_of_range("rv32 register out of range");
  return kAbiNames[reg];
}

int parse_rv32_register(std::string_view token) {
  std::string t(token);
  for (char& c : t) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  // "x" and one or two digits; x32..x99 are out of range.
  if ((t.size() == 2 || t.size() == 3) && t[0] == 'x' &&
      std::all_of(t.begin() + 1, t.end(), [](char c) { return c >= '0' && c <= '9'; })) {
    const int n = std::stoi(t.substr(1));
    check_reg(n, t.c_str());
    return n;
  }
  if (t == "fp") return 8;
  for (int i = 0; i < 32; ++i) {
    if (t == kAbiNames[i]) return i;
  }
  throw std::invalid_argument("unknown rv32 register '" + std::string(token) + "'");
}

}  // namespace art9::rv32
