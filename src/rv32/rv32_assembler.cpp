#include "rv32/rv32_assembler.hpp"

#include <limits>
#include <stdexcept>
#include <string>
#include <tuple>

namespace art9::rv32 {
namespace {

using assembly::bits32;
using assembly::iequals;
using assembly::Statement;

bool fits_addi(int64_t v) { return v >= -2048 && v <= 2047; }

/// Branch pseudo-ops: `op rs, target` compares rs with x0 and `op a, b,
/// target` compares a with b; `swap` exchanges the compared registers.
struct BranchAlias {
  std::string_view name;
  Rv32Op op;
  std::size_t registers;
  bool swap;
};

constexpr BranchAlias kBranchAliases[] = {
    {"beqz", Rv32Op::kBeq, 1, false}, {"bnez", Rv32Op::kBne, 1, false},
    {"bltz", Rv32Op::kBlt, 1, false}, {"bgez", Rv32Op::kBge, 1, false},
    {"bgtz", Rv32Op::kBlt, 1, true},  {"blez", Rv32Op::kBge, 1, true},
    {"ble", Rv32Op::kBge, 2, true},   {"bgt", Rv32Op::kBlt, 2, true},
    {"bleu", Rv32Op::kBgeu, 2, true}, {"bgtu", Rv32Op::kBltu, 2, true},
};

class Rv32Assembler final : public assembly::TwoPassAssembler {
 public:
  Rv32Assembler() : TwoPassAssembler(/*data_word_size=*/4) {}

  Rv32Program run(std::string_view source) {
    Layout layout = assemble(source);
    program_.symbols = std::move(layout.symbols);
    program_.entry = static_cast<uint32_t>(layout.entry);
    return std::move(program_);
  }

 private:
  int64_t instruction_size(const Statement& st) override {
    if (iequals(st.head, "la")) return 8;
    if (!iequals(st.head, "li")) return 4;
    // A constant known here that fits addi takes one instruction; a label
    // or a later .equ reserves the lui+addi pair, and pass 2 emits the pair.
    st.expect_operands(2);
    const std::optional<int64_t> v = constant(st.operands[1]);
    return v && fits_addi(*v) ? 4 : 8;
  }

  void instruction(const Statement& st) override {
    const auto is = [&](std::string_view name) { return iequals(st.head, name); };
    const auto reg = [&](std::size_t i) { return parse_rv32_register(st.operands[i]); };
    const auto target = [&](std::size_t i) { return bits32(offset(st, st.operands[i])); };
    const auto memory = [&](std::size_t i) {
      const auto [imm, base] = memory_operand(st.operands[i]);
      return std::pair{bits32(imm), parse_rv32_register(base)};
    };

    // --- pseudo-instructions ---
    if (is("nop")) return push(Rv32Instruction::nop());
    if (is("halt")) return push({Rv32Op::kEbreak, 0, 0, 0, 0});
    if (is("ret")) return push({Rv32Op::kJalr, 0, 1, 0, 0});
    if (is("mv")) {
      st.expect_operands(2);
      return push({Rv32Op::kAddi, reg(0), reg(1), 0, 0});
    }
    if (is("li") || is("la")) {
      st.expect_operands(2);
      const int rd = reg(0);
      const int64_t v = value(st.operands[1]);
      if (st.size == 4) return push({Rv32Op::kAddi, rd, 0, 0, static_cast<int32_t>(v)});
      return push_lui_addi(rd, v);
    }
    if (is("j") || is("call")) {
      st.expect_operands(1);
      return push({Rv32Op::kJal, is("call") ? 1 : 0, 0, 0, target(0)});
    }
    if (is("jr")) {
      st.expect_operands(1);
      return push({Rv32Op::kJalr, 0, reg(0), 0, 0});
    }
    for (const BranchAlias& alias : kBranchAliases) {
      if (!is(alias.name)) continue;
      st.expect_operands(alias.registers + 1);
      const int a = reg(0);
      const int b = alias.registers == 2 ? reg(1) : 0;
      const int32_t off = target(alias.registers);
      return push({alias.op, 0, alias.swap ? b : a, alias.swap ? a : b, off});
    }

    // --- real instructions ---
    Rv32Instruction inst;
    inst.op = rv32_op_from_mnemonic(st.head);
    const Rv32Spec& s = spec(inst.op);
    switch (s.format) {
      case Rv32Format::kR:
        st.expect_operands(3);
        inst.rd = reg(0);
        inst.rs1 = reg(1);
        inst.rs2 = reg(2);
        break;
      case Rv32Format::kI:
      case Rv32Format::kIShift:
        if (st.operands.size() == 2 && (s.klass == Rv32Class::kLoad || inst.op == Rv32Op::kJalr)) {
          inst.rd = reg(0);  // rd, imm(rs1)
          std::tie(inst.imm, inst.rs1) = memory(1);
          break;
        }
        st.expect_operands(3);
        inst.rd = reg(0);
        inst.rs1 = reg(1);
        inst.imm = bits32(value(st.operands[2]));
        break;
      case Rv32Format::kS:
        st.expect_operands(2);
        inst.rs2 = reg(0);
        std::tie(inst.imm, inst.rs1) = memory(1);
        break;
      case Rv32Format::kB:
        st.expect_operands(3);
        inst.rs1 = reg(0);
        inst.rs2 = reg(1);
        inst.imm = target(2);
        break;
      case Rv32Format::kU:
        st.expect_operands(2);
        inst.rd = reg(0);
        inst.imm = bits32(value(st.operands[1]));
        break;
      case Rv32Format::kJ:
        st.expect_operands(2);
        inst.rd = reg(0);
        inst.imm = target(1);
        break;
      case Rv32Format::kSystem:
        break;
    }
    push(inst);
  }

  void data_word(int64_t address, int64_t word) override {
    if (address < 0 || address > std::numeric_limits<uint32_t>::max()) {
      throw std::out_of_range("data address " + std::to_string(address) +
                              " outside the 32-bit address space");
    }
    program_.data.push_back(
        Rv32DataWord{static_cast<uint32_t>(address), static_cast<uint32_t>(bits32(word))});
  }

  void push(const Rv32Instruction& inst) {
    program_.image.push_back(encode(inst));
    program_.code.push_back(inst);
  }

  /// The lui+addi pair materialising any 32-bit value (modulo 2^32).
  void push_lui_addi(int rd, int64_t wide) {
    const int32_t v = bits32(wide);
    int32_t lo = v & 0xfff;
    if (lo >= 2048) lo -= 4096;
    const auto hi =
        static_cast<int32_t>(static_cast<uint32_t>(v) - static_cast<uint32_t>(lo)) >> 12;
    push({Rv32Op::kLui, rd, 0, 0, hi});
    push({Rv32Op::kAddi, rd, rd, 0, lo});
  }

  Rv32Program program_;
};

}  // namespace

Rv32Program assemble_rv32(std::string_view source) { return Rv32Assembler().run(source); }

}  // namespace art9::rv32
