#include "isa/assembler.hpp"

#include <stdexcept>
#include <string>

#include "isa/encoding.hpp"

namespace art9::isa {
namespace {

using assembly::bits32;
using assembly::iequals;
using assembly::Statement;
using ternary::Trit;
using ternary::Word9;

bool in_word_range(int64_t v) { return v >= Word9::kMinValue && v <= Word9::kMaxValue; }

int parse_register(std::string_view tok) {
  if (tok.size() == 2 && (tok[0] == 'T' || tok[0] == 't') && tok[1] >= '0' && tok[1] <= '8') {
    return tok[1] - '0';
  }
  throw std::invalid_argument("expected register T0..T8, got '" + std::string(tok) + "'");
}

Trit parse_bcond(std::string_view tok) {
  if (tok == "+" || tok == "+1" || tok == "1" || iequals(tok, "P")) return ternary::kTritP;
  if (tok == "0" || iequals(tok, "Z")) return ternary::kTritZ;
  if (tok == "-" || tok == "-1" || iequals(tok, "N")) return ternary::kTritN;
  throw std::invalid_argument("expected branch condition -,0,+ got '" + std::string(tok) + "'");
}

class Art9Assembler final : public assembly::TwoPassAssembler {
 public:
  Art9Assembler() : TwoPassAssembler(/*data_word_size=*/1) {}

  Program run(std::string_view source) {
    Layout layout = assemble(source);
    program_.symbols = std::move(layout.symbols);
    program_.entry = layout.entry;
    return std::move(program_);
  }

 private:
  int64_t instruction_size(const Statement& st) override {
    return iequals(st.head, "LIMM") ? 2 : 1;
  }

  void instruction(const Statement& st) override {
    const auto reg = [&](std::size_t i) { return parse_register(st.operands[i]); };
    // Pseudo-instructions first.
    if (iequals(st.head, "NOP") || iequals(st.head, "HALT")) {
      st.expect_operands(0);
      push(iequals(st.head, "NOP") ? Instruction::nop() : Instruction::halt());
      return;
    }
    if (iequals(st.head, "LIMM")) {
      st.expect_operands(2);
      const int ta = reg(0);
      const int64_t v = value(st.operands[1]);
      if (!in_word_range(v)) {
        throw std::out_of_range("LIMM value out of 9-trit range: " + std::to_string(v));
      }
      const Word9 w = Word9::from_int(v);
      push({Opcode::kLui, ta, 0, ternary::kTritZ, static_cast<int>(w.slice<4>(5).to_int())});
      push({Opcode::kLi, ta, 0, ternary::kTritZ, static_cast<int>(w.slice<5>(0).to_int())});
      return;
    }

    Instruction inst;
    inst.op = opcode_from_mnemonic(st.head);
    switch (spec(inst.op).format) {
      case Format::kRBinary:
      case Format::kRUnary:
        st.expect_operands(2);
        inst.ta = reg(0);
        inst.tb = reg(1);
        break;
      case Format::kImm3:
      case Format::kShiftImm:
      case Format::kLui:
      case Format::kLi:
        st.expect_operands(2);
        inst.ta = reg(0);
        inst.imm = bits32(value(st.operands[1]));
        break;
      case Format::kBranch:
        st.expect_operands(3);
        inst.tb = reg(0);
        inst.bcond = parse_bcond(st.operands[1]);
        inst.imm = bits32(offset(st, st.operands[2]));
        break;
      case Format::kJal:
        st.expect_operands(2);
        inst.ta = reg(0);
        inst.imm = bits32(offset(st, st.operands[1]));
        break;
      case Format::kMem:
        if (st.operands.size() == 2) {  // Ta, imm(Tb)
          inst.ta = reg(0);
          const auto [imm, base] = memory_operand(st.operands[1]);
          inst.imm = bits32(imm);
          inst.tb = parse_register(base);
          break;
        }
        [[fallthrough]];  // Ta, Tb, imm
      case Format::kJalr:
        st.expect_operands(3);
        inst.ta = reg(0);
        inst.tb = reg(1);
        inst.imm = bits32(value(st.operands[2]));
        break;
    }
    push(inst);
  }

  void data_address(int64_t address) override {
    if (!in_word_range(address)) {
      throw std::out_of_range("data address " + std::to_string(address) +
                              " outside the TDM [-9841, 9841]");
    }
  }

  void data_word(int64_t address, int64_t word) override {
    if (!in_word_range(word)) {
      throw std::out_of_range(".word value out of 9-trit range: " + std::to_string(word));
    }
    data_address(address);
    program_.data.push_back(DataWord{address, Word9::from_int(word)});
  }

  void push(const Instruction& inst) {
    program_.image.push_back(encode(inst));
    program_.code.push_back(inst);
  }

  Program program_;
};

}  // namespace

Program assemble(std::string_view source) { return Art9Assembler().run(source); }

}  // namespace art9::isa
