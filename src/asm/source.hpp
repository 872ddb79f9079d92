// The assembly dialect shared by the ART-9 and RV32 assemblers, and the
// two-pass front end that reads it.
//
// Syntax (one statement per line; ';' or '#' starts a comment):
//
//   label:                 bind `label` to the current address of the
//                          current section (several labels may share a line)
//   .text / .data          switch section (code / data)
//   .org <expr>            set the current section address; in .text only
//                          before the first instruction, where it is the entry
//   .equ NAME, <expr>      define a constant
//   .word <expr>[, ...]    emit initialised data words (.data only)
//   .zero <count>          reserve <count> data words, which read zero
//                          (data memory starts zeroed; .data only)
//   MNEMONIC operands      an instruction of the ISA
//
// Directives, mnemonics and registers are case-insensitive.  Operands are
// split at top-level commas.  Expressions take decimal and 0x literals,
// symbols, + - *, unary +/- and parentheses nested at most 256 deep; they
// are evaluated in int64 and fail rather than wrap ("expression overflows
// 64 bits").  Pass 1 evaluates .org, .equ and .zero against the constants
// defined above them; pass 2 evaluates everything else against every
// label and constant.  A misplaced statement (an unknown directive,
// .word/.zero outside .data, an instruction inside it) reserves no space
// and fails in pass 2 at its line, in line order with the instruction
// errors; layout errors (bad or duplicate labels, .org/.equ/.zero
// operands) fail at once in pass 1.  A branch target that is a bare
// identifier is a label (the assembler forms the offset from the
// instruction to it); anything else is a raw offset.  Memory operands are
// `imm(reg)`, the immediate defaulting to 0.
//
// Each ISA subclasses TwoPassAssembler and supplies only what differs: its
// mnemonics, registers and pseudo-ops (instruction_size, instruction), the
// range of its data addresses and words (data_address, data_word) and
// their size in address units.
// Every diagnostic, including what a hook throws, leaves as an AsmError
// carrying the 1-based line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace art9::assembly {

/// Assembly diagnostics carry the 1-based source line.
class AsmError : public std::runtime_error {
 public:
  AsmError(int line, const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ": " + message), line_(line) {}

  [[nodiscard]] int line() const noexcept { return line_; }

 private:
  int line_;
};

/// ASCII case-insensitive equality (mnemonics, directives, registers).
[[nodiscard]] bool iequals(std::string_view a, std::string_view b) noexcept;

/// `value` as a 32-bit field: values in [-2^31, 2^32) keep their low 32
/// bits (read as signed); wider ones throw std::out_of_range.
[[nodiscard]] int32_t bits32(int64_t value);

/// One instruction or data directive as pass 1 laid it out.  The views
/// point into the source text, which outlives the assembly.
struct Statement {
  enum class Kind : uint8_t { kInstruction, kWord, kZero, kMisplaced };

  Kind kind = Kind::kInstruction;
  int line = 0;
  std::string_view head;                   // mnemonic or directive as written
  std::vector<std::string_view> operands;  // trimmed
  int64_t address = 0;                     // section address
  int64_t size = 0;                        // address units reserved in pass 1
  std::string misplaced;                   // kMisplaced: the diagnostic pass 2 raises

  /// Throws std::invalid_argument unless there are exactly `n` operands.
  void expect_operands(std::size_t n) const;
};

class TwoPassAssembler {
 public:
  /// What the passes leave besides the emitted code and data.
  struct Layout {
    std::map<std::string, int64_t> symbols;  // labels and .equ constants
    int64_t entry = 0;                       // the .text .org, else 0
  };

 protected:
  /// `data_word_size`: address units per .word/.zero word.
  explicit TwoPassAssembler(int64_t data_word_size) : data_word_size_(data_word_size) {}

  /// Runs both passes over `source`; throws AsmError on the first diagnostic.
  Layout assemble(std::string_view source);

  /// Pass 1: the address units instruction `st` occupies.  Only constants
  /// defined above it are known (see constant()).
  virtual int64_t instruction_size(const Statement& st) = 0;
  /// Pass 2: emits instruction `st` in the `st.size` units pass 1 reserved.
  virtual void instruction(const Statement& st) = 0;
  /// Pass 2: throws unless a data word can live at `address`.  A .zero
  /// reservation is checked at its first and last word and emits nothing.
  virtual void data_address(int64_t address) = 0;
  /// Pass 2: emits one .word data word, range-checking it and (through
  /// data_address) its address.
  virtual void data_word(int64_t address, int64_t value) = 0;

  /// Evaluates `text` against every label and constant.
  [[nodiscard]] int64_t value(std::string_view text) const;
  /// Evaluates `text` against the constants defined so far; nullopt when
  /// it names anything else (a label or a later constant).
  [[nodiscard]] std::optional<int64_t> constant(std::string_view text) const;
  /// Branch/jump offset from `st`: to the label a bare identifier names,
  /// else the offset expression itself.
  [[nodiscard]] int64_t offset(const Statement& st, std::string_view text) const;
  /// Splits `imm(reg)` into the evaluated immediate and the register token.
  [[nodiscard]] std::pair<int64_t, std::string_view> memory_operand(std::string_view text) const;

 private:
  enum class Section { kText, kData };

  void pass1_line(std::string_view line, int line_no);
  /// Applies a directive; true for the statements pass 2 handles: .word,
  /// .zero and misplaced ones.
  bool directive(Statement& st);
  void define(const std::string& name, int64_t value, bool is_constant);
  void pass2(const Statement& st);

  const int64_t data_word_size_;
  Layout layout_;
  std::map<std::string, int64_t> constants_;
  std::vector<Statement> statements_;
  Section section_ = Section::kText;
  int64_t text_address_ = 0;
  int64_t data_address_ = 0;
  bool code_started_ = false;
};

}  // namespace art9::assembly
