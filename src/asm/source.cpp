#include "asm/source.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <new>

namespace art9::assembly {
namespace {

bool is_space(char c) { return std::isspace(static_cast<unsigned char>(c)) != 0; }

/// Marks `st` misplaced: it reserves no space, and pass 2 raises `message`
/// when it reaches the line.
void misplace(Statement& st, std::string message) {
  st.kind = Statement::Kind::kMisplaced;
  st.misplaced = std::move(message);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
  return s;
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

bool is_identifier(std::string_view s) {
  return !s.empty() && is_ident_start(s.front()) && std::all_of(s.begin(), s.end(), is_ident_char);
}

[[noreturn]] void overflow() { throw std::out_of_range("expression overflows 64 bits"); }

int64_t checked_add(int64_t a, int64_t b) {
  int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out)) overflow();
  return out;
}

int64_t checked_sub(int64_t a, int64_t b) {
  int64_t out = 0;
  if (__builtin_sub_overflow(a, b, &out)) overflow();
  return out;
}

int64_t checked_mul(int64_t a, int64_t b) {
  int64_t out = 0;
  if (__builtin_mul_overflow(a, b, &out)) overflow();
  return out;
}

/// Operands split at top-level commas (commas inside parentheses do not
/// split), each trimmed.
std::vector<std::string_view> split_operands(std::string_view s) {
  std::vector<std::string_view> out;
  if (s.empty()) return out;
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '(') {
      ++depth;
    } else if (s[i] == ')') {
      --depth;
    } else if (s[i] == ',' && depth == 0) {
      out.push_back(trim(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  out.push_back(trim(s.substr(start)));
  return out;
}

// Grammar: sum     := product (('+' | '-') product)*
//          product := factor ('*' factor)*
//          factor  := INT | IDENT | '(' sum ')' | ('+' | '-') factor
class Evaluator {
 public:
  /// With `unresolved` set, a symbol missing from `symbols` reads as 0 and
  /// sets *unresolved instead of throwing.
  Evaluator(std::string_view text, const std::map<std::string, int64_t>& symbols,
            bool* unresolved = nullptr)
      : text_(text), symbols_(symbols), unresolved_(unresolved) {}

  int64_t run() {
    const int64_t v = sum();
    skip_space();
    if (pos_ != text_.size()) {
      throw std::invalid_argument("trailing characters in expression: '" + std::string(text_) + "'");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 256;

  void skip_space() {
    while (pos_ < text_.size() && is_space(text_[pos_])) ++pos_;
  }

  char peek() {
    skip_space();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  int64_t sum() {
    int64_t v = product();
    for (char op = peek(); op == '+' || op == '-'; op = peek()) {
      ++pos_;
      const int64_t rhs = product();
      v = op == '+' ? checked_add(v, rhs) : checked_sub(v, rhs);
    }
    return v;
  }

  int64_t product() {
    int64_t v = factor();
    while (peek() == '*') {
      ++pos_;
      v = checked_mul(v, factor());
    }
    return v;
  }

  int64_t factor() {
    const char c = peek();
    if (c == '+' || c == '-' || c == '(') {
      // Each sign or parenthesis recurses once; the cap keeps a hostile
      // source from running the stack out.
      if (++depth_ > kMaxDepth) throw std::invalid_argument("expression nests too deep");
      ++pos_;
      int64_t v = 0;
      if (c == '(') {
        v = sum();
        if (peek() != ')') throw std::invalid_argument("missing ')' in expression");
        ++pos_;
      } else {
        v = factor();
        if (c == '-') v = checked_sub(0, v);
      }
      --depth_;
      return v;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) return literal();
    if (is_ident_start(c)) return symbol();
    throw std::invalid_argument("malformed expression: '" + std::string(text_) + "'");
  }

  /// Decimal, or hex after "0x".
  int64_t literal() {
    int64_t base = 10;
    if (text_.substr(pos_, 2) == "0x" || text_.substr(pos_, 2) == "0X") {
      base = 16;
      pos_ += 2;
    }
    const std::size_t first = pos_;
    int64_t v = 0;
    for (; pos_ < text_.size(); ++pos_) {
      const char c = static_cast<char>(std::tolower(static_cast<unsigned char>(text_[pos_])));
      const int64_t digit = std::isdigit(static_cast<unsigned char>(c)) ? c - '0'
                            : c >= 'a' && c <= 'f'                      ? c - 'a' + 10
                                                                        : base;
      if (digit >= base) break;
      v = checked_add(checked_mul(v, base), digit);
    }
    if (pos_ == first) throw std::invalid_argument("malformed hex literal");
    return v;
  }

  int64_t symbol() {
    const std::size_t first = pos_;
    while (pos_ < text_.size() && is_ident_char(text_[pos_])) ++pos_;
    const std::string name(text_.substr(first, pos_ - first));
    const auto it = symbols_.find(name);
    if (it != symbols_.end()) return it->second;
    if (unresolved_ == nullptr) throw std::invalid_argument("undefined symbol '" + name + "'");
    *unresolved_ = true;
    return 0;
  }

  std::string_view text_;
  const std::map<std::string, int64_t>& symbols_;
  bool* unresolved_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool iequals(std::string_view a, std::string_view b) noexcept {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin(), [](char x, char y) {
           return std::tolower(static_cast<unsigned char>(x)) ==
                  std::tolower(static_cast<unsigned char>(y));
         });
}

int32_t bits32(int64_t value) {
  if (value < std::numeric_limits<int32_t>::min() || value > std::numeric_limits<uint32_t>::max()) {
    throw std::out_of_range("value " + std::to_string(value) + " does not fit in 32 bits");
  }
  return static_cast<int32_t>(static_cast<uint32_t>(value));
}

void Statement::expect_operands(std::size_t n) const {
  if (operands.size() != n) {
    throw std::invalid_argument(std::string(head) + " expects " + std::to_string(n) +
                                " operand(s), got " + std::to_string(operands.size()));
  }
}

TwoPassAssembler::Layout TwoPassAssembler::assemble(std::string_view source) {
  int line_no = 0;
  try {
    for (std::size_t pos = 0; pos <= source.size();) {
      const std::size_t eol = std::min(source.find('\n', pos), source.size());
      pass1_line(source.substr(pos, eol - pos), ++line_no);
      pos = eol + 1;
    }
    for (const Statement& st : statements_) {
      line_no = st.line;
      pass2(st);
    }
  } catch (const std::bad_alloc&) {
    throw;
  } catch (const std::exception& e) {
    // Lexing, layout and the ISA hooks throw plain std exceptions; this is
    // where each gets its line.
    throw AsmError(line_no, e.what());
  }
  return std::move(layout_);
}

void TwoPassAssembler::pass1_line(std::string_view line, int line_no) {
  line = trim(line.substr(0, line.find_first_of(";#")));
  for (std::size_t colon = line.find(':'); colon != std::string_view::npos;
       colon = line.find(':')) {
    const std::string_view label = trim(line.substr(0, colon));
    if (!is_identifier(label)) throw std::invalid_argument("bad label '" + std::string(label) + "'");
    define(std::string(label), section_ == Section::kText ? text_address_ : data_address_, false);
    line = trim(line.substr(colon + 1));
  }
  if (line.empty()) return;

  Statement st;
  st.line = line_no;
  const auto gap = static_cast<std::size_t>(std::find_if(line.begin(), line.end(), is_space) -
                                            line.begin());
  st.head = line.substr(0, gap);
  st.operands = split_operands(trim(line.substr(gap)));
  if (st.head.front() == '.') {
    if (!directive(st)) return;
  } else if (section_ == Section::kData) {
    misplace(st, "instructions are not allowed in .data");
  } else {
    st.address = text_address_;
    st.size = instruction_size(st);
    text_address_ = checked_add(text_address_, st.size);
    code_started_ = true;
  }
  statements_.push_back(std::move(st));
}

bool TwoPassAssembler::directive(Statement& st) {
  const std::string_view name = st.head;
  if (iequals(name, ".text") || iequals(name, ".data")) {
    section_ = iequals(name, ".text") ? Section::kText : Section::kData;
    return false;
  }
  if (iequals(name, ".org")) {
    st.expect_operands(1);
    const int64_t address = Evaluator(st.operands[0], constants_).run();
    if (section_ == Section::kData) {
      data_address_ = address;
    } else if (code_started_) {
      throw std::invalid_argument(".org after code is not supported");
    } else {
      text_address_ = layout_.entry = address;
    }
    return false;
  }
  if (iequals(name, ".equ")) {
    if (st.operands.size() != 2) throw std::invalid_argument(".equ takes NAME, value");
    if (!is_identifier(st.operands[0])) {
      throw std::invalid_argument("bad .equ name '" + std::string(st.operands[0]) + "'");
    }
    define(std::string(st.operands[0]), Evaluator(st.operands[1], constants_).run(), true);
    return false;
  }

  if (iequals(name, ".word")) {
    st.kind = Statement::Kind::kWord;
  } else if (iequals(name, ".zero")) {
    st.kind = Statement::Kind::kZero;
  } else {
    misplace(st, "unknown directive '" + std::string(name) + "'");
    return true;
  }
  if (section_ != Section::kData) {
    misplace(st, std::string(name) + " requires .data");
    return true;
  }
  int64_t words = static_cast<int64_t>(st.operands.size());
  if (st.kind == Statement::Kind::kZero) {
    st.expect_operands(1);
    words = Evaluator(st.operands[0], constants_).run();
    if (words < 0) throw std::out_of_range(".zero count must be non-negative");
  }
  st.address = data_address_;
  st.size = checked_mul(words, data_word_size_);
  data_address_ = checked_add(data_address_, st.size);
  return true;
}

void TwoPassAssembler::define(const std::string& name, int64_t value, bool is_constant) {
  if (!layout_.symbols.emplace(name, value).second) {
    throw std::invalid_argument("duplicate symbol '" + name + "'");
  }
  if (is_constant) constants_.emplace(name, value);
}

void TwoPassAssembler::pass2(const Statement& st) {
  if (st.kind == Statement::Kind::kMisplaced) throw std::invalid_argument(st.misplaced);
  if (st.kind == Statement::Kind::kInstruction) {
    instruction(st);
    return;
  }
  if (st.kind == Statement::Kind::kZero) {
    // Data memory starts zeroed, so a reservation only needs its ends to
    // be addressable (both ISAs' data ranges are intervals).
    if (st.size > 0) {
      data_address(st.address);
      data_address(st.address + st.size - data_word_size_);
    }
    return;
  }
  for (std::size_t i = 0; i < st.operands.size(); ++i) {
    data_word(st.address + static_cast<int64_t>(i) * data_word_size_, value(st.operands[i]));
  }
}

int64_t TwoPassAssembler::value(std::string_view text) const {
  return Evaluator(text, layout_.symbols).run();
}

std::optional<int64_t> TwoPassAssembler::constant(std::string_view text) const {
  bool unresolved = false;
  const int64_t v = Evaluator(text, constants_, &unresolved).run();
  return unresolved ? std::nullopt : std::optional<int64_t>(v);
}

int64_t TwoPassAssembler::offset(const Statement& st, std::string_view text) const {
  if (!is_identifier(text)) return value(text);
  const auto it = layout_.symbols.find(std::string(text));
  if (it == layout_.symbols.end()) {
    throw std::invalid_argument("undefined label '" + std::string(text) + "'");
  }
  return checked_sub(it->second, st.address);
}

std::pair<int64_t, std::string_view> TwoPassAssembler::memory_operand(std::string_view text) const {
  const std::size_t open = text.find('(');
  const std::size_t close = text.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos || close < open) {
    throw std::invalid_argument("expected imm(reg) memory operand");
  }
  const std::string_view imm = trim(text.substr(0, open));
  return {imm.empty() ? 0 : value(imm), trim(text.substr(open + 1, close - open - 1))};
}

}  // namespace art9::assembly
