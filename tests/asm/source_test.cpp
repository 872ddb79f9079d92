// The shared assembly dialect (asm/source.hpp) read by both assemblers:
// one table of directive-and-label sources run through isa::assemble and
// rv32::assemble_rv32, and a mutation property over the corpus — every
// broken line fails as an AsmError that names a line of the source.
#include "asm/source.hpp"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "core/benchmarks.hpp"
#include "isa/assembler.hpp"
#include "rv32/rv32_assembler.hpp"
#include "xlat/framework.hpp"

namespace art9::assembly {
namespace {

static_assert(std::is_same_v<isa::AsmError, rv32::Rv32AsmError>);
static_assert(std::is_same_v<isa::AsmError, AsmError>);

/// A source in the common subset (directives, labels, nop, halt) and what
/// both assemblers must make of it: the diagnostic's line, or the value
/// of `symbol` (instructions and data words are 1 address unit on ART-9
/// and 4 bytes on RV32).
struct DialectRow {
  const char* source;
  int error_line;  // 0: assembles
  const char* symbol = nullptr;
  int64_t art9 = 0;
  int64_t rv32 = 0;
};

const DialectRow kDialect[] = {
    // Labels bind at the current address of the current section, also
    // directly before a directive.
    {"nop\nend:\n.data\n.word end\n", 0, "end", 1, 4},
    {"nop\n.data\nd:\n.text\nhalt\n", 0, "d", 0, 0},
    {".data\n.word 7\nx:\n.org 20\n.word x\n", 0, "x", 1, 4},
    {"nop\nk:\n.equ K, 3\nhalt\n", 0, "k", 1, 4},
    {"start: .org 3\nnop\n", 0, "start", 0, 0},
    // Missing operands are located diagnostics.
    {".data\n.zero\n", 2},
    {".org\nnop\n", 1},
    {"nop\n.data\n.org\n", 3},
    {".data\n.zero 2, 3\n", 2},
    // Expressions fail rather than overflow.
    {".equ K, 3037000500*3037000500\n", 1},
    {".equ K, 99999999999999999999\n", 1},
    {".equ K, 0x10000000000000000\n", 1},
    {".equ K, -9223372036854775807 - 2\n", 1},
    {".equ M, -9223372036854775807 - 1\n.equ N, -M\n", 2},
    {"nop\n.data\n.word 9223372036854775807 + 1\n", 3},
    {".org 9223372036854775807\nnop\n", 2},
    // The ART-9 rules, now for both: a non-negative .zero count, an
    // identifier for .equ, one operand for .org, data words that fit.
    {".data\n.zero -3\n", 2},
    {".equ 1x, 3\n", 1},
    {".org 4, 8\nnop\n", 1},
    {".data\n.word 0x1ffffffff\n", 2},
    {".data\n.org 0x100000004\n.word 1\n", 3},
    // Hex literals, in either case of the prefix and the digits.
    {".equ K, 0x1F\n", 0, "K", 31, 31},
    {".equ K, 0X10 + 0xa * 2\n", 0, "K", 36, 36},
    {".DATA\nw: .WORD 1, 2\n.Org 0x9\n.zero 1\nv:\n", 0, "v", 10, 13},
};

template <typename Assemble>
void expect_row(const DialectRow& row, Assemble assemble, int64_t expected, const char* isa) {
  SCOPED_TRACE(std::string(isa) + ": " + row.source);
  try {
    const auto program = assemble(row.source);
    EXPECT_EQ(row.error_line, 0) << "assembled; expected an error";
    if (row.error_line == 0 && row.symbol != nullptr) {
      EXPECT_EQ(program.symbol(row.symbol), expected);
    }
  } catch (const AsmError& e) {
    EXPECT_EQ(e.line(), row.error_line) << e.what();
  }
}

TEST(AsmDialect, BothAssemblersReadOneGrammar) {
  for (const DialectRow& row : kDialect) {
    expect_row(row, [](const char* s) { return isa::assemble(s); }, row.art9, "art9");
    expect_row(row, [](const char* s) { return rv32::assemble_rv32(s); }, row.rv32, "rv32");
  }
}

TEST(AsmDialect, DataWordsLandAtTheirAddresses) {
  // .zero reserves without emitting: data memory starts zeroed.
  const isa::Program a = isa::assemble(".data\n.org 0x10\n.word 0x20, -1\n.zero 1\nz:\n");
  ASSERT_EQ(a.data.size(), 2u);
  EXPECT_EQ(a.data[1].address, 17);
  EXPECT_EQ(a.data[1].value.to_int(), -1);
  EXPECT_EQ(a.data[0].value.to_int(), 32);
  EXPECT_EQ(a.symbol("z"), 19);

  const rv32::Rv32Program r =
      rv32::assemble_rv32(".data\n.org 0x10\n.word 0xffffffff, -1\n.zero 1\nz:\n");
  ASSERT_EQ(r.data.size(), 2u);
  EXPECT_EQ(r.data[0], (rv32::Rv32DataWord{16, 0xffffffffu}));
  EXPECT_EQ(r.data[1], (rv32::Rv32DataWord{20, 0xffffffffu}));
  EXPECT_EQ(r.symbol("z"), 28);
}

TEST(AsmDialect, ZeroReservesWithoutMaterialisingWords) {
  // Regression: pass 2 emitted every .zero word, so a 21-byte source
  // could ask for 2^30 - 1 of them (gigabytes of assembler memory).  The
  // reservation is range-checked at both ends instead.
  const rv32::Rv32Program r = rv32::assemble_rv32(".data\n.zero 1073741823\nend:\n");
  EXPECT_TRUE(r.data.empty());
  EXPECT_EQ(r.symbol("end"), 4294967292);
  EXPECT_THROW((void)rv32::assemble_rv32(".data\n.org 0xfffffffc\n.zero 2\n"), AsmError);
  EXPECT_NO_THROW((void)rv32::assemble_rv32(".data\n.org 0xfffffffc\n.zero 1\n"));
  EXPECT_THROW((void)isa::assemble(".data\n.org -9842\n.zero 1\n"), AsmError);
  EXPECT_NO_THROW((void)isa::assemble(".data\n.org -9841\n.zero 19683\n"));
}

TEST(AsmDialect, MisplacedStatementsFailInLineOrder) {
  // Regression: pass 1 raised a misplaced statement (an unknown directive,
  // .word/.zero outside .data, an instruction inside it) before pass 2
  // reached an earlier line's error, so a later line was reported first.
  const auto line_of = [](auto assemble, const char* source) {
    try {
      static_cast<void>(assemble(source));
    } catch (const AsmError& e) {
      return e.line();
    }
    return 0;
  };
  const auto art9 = [](const char* s) { return isa::assemble(s); };
  const auto rv32 = [](const char* s) { return rv32::assemble_rv32(s); };
  EXPECT_EQ(line_of(art9, "BOGUS T1\n.data\nNOP\n"), 1);
  EXPECT_EQ(line_of(art9, "ADD T1, T9\n.word 3\n"), 1);
  EXPECT_EQ(line_of(art9, "NOP 1\n.bogus\n"), 1);
  EXPECT_EQ(line_of(rv32, "bogus x1\n.data\naddi x1, x1, 1\n"), 1);
  EXPECT_EQ(line_of(rv32, "addi x1, x99, 1\n.zero 2\n"), 1);
  // Alone, each still fails at its own line.
  EXPECT_EQ(line_of(art9, "NOP\n.data\nNOP\n"), 3);
  EXPECT_EQ(line_of(art9, "NOP\n.word 3\n"), 2);
  EXPECT_EQ(line_of(rv32, "nop\n.bogus 1\nnop\n"), 2);
  EXPECT_EQ(line_of(rv32, "nop\n.zero 2\n"), 2);
}

TEST(AsmDialect, NestingIsCappedNotRecursedToTheEnd) {
  const auto nested = [](int depth, const std::string& open, const std::string& close) {
    std::string text = ".equ K, ";
    for (int i = 0; i < depth; ++i) text += open;
    text += "1";
    for (int i = 0; i < depth; ++i) text += close;
    return text + "\n";
  };
  EXPECT_EQ(isa::assemble(nested(256, "(", ")")).symbol("K"), 1);
  EXPECT_EQ(rv32::assemble_rv32(nested(256, "-", "")).symbol("K"), 1);
  for (const std::string& source :
       {nested(257, "(", ")"), nested(100000, "(", ")"), nested(100000, "-", "")}) {
    EXPECT_THROW((void)isa::assemble(source), AsmError);
    EXPECT_THROW((void)rv32::assemble_rv32(source), AsmError);
  }
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t eol; (eol = text.find('\n', start)) != std::string::npos; start = eol + 1) {
    lines.push_back(text.substr(start, eol - start));
  }
  if (start < text.size()) lines.push_back(text.substr(start));
  return lines;
}

/// `line` without its last comma-separated operand, or without all of its
/// operands when it has one.
std::string drop_last_operand(const std::string& line) {
  const std::size_t comma = line.rfind(',');
  if (comma != std::string::npos) return line.substr(0, comma);
  const std::size_t head = line.find_first_not_of(" \t");
  const std::size_t gap = line.find_first_of(" \t", head == std::string::npos ? 0 : head);
  return gap == std::string::npos ? line : line.substr(0, gap);
}

/// Every line of `source`, with its last operand dropped and cut in half,
/// either assembles or fails with an AsmError naming a line of the text.
template <typename Assemble>
void expect_mutants_located(const std::string& source, Assemble assemble) {
  const std::vector<std::string> lines = split_lines(source);
  const auto count = static_cast<int>(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (const std::string& mutant : {drop_last_operand(lines[i]), lines[i].substr(0, lines[i].size() / 2)}) {
      if (mutant == lines[i]) continue;
      std::vector<std::string> text = lines;
      text[i] = mutant;
      std::string joined;
      for (const std::string& line : text) joined += line + '\n';
      try {
        (void)assemble(joined);
      } catch (const AsmError& e) {
        EXPECT_GE(e.line(), 1) << e.what();
        EXPECT_LE(e.line(), count) << e.what();
      } catch (const std::exception& e) {
        ADD_FAILURE() << "line " << i + 1 << " '" << mutant << "' escaped: " << e.what();
      }
    }
  }
}

TEST(AsmDialect, CorpusMutantsFailWithALine) {
  for (const core::BenchmarkSources* bench : core::all_benchmarks()) {
    SCOPED_TRACE(bench->name);
    expect_mutants_located(bench->rv32, [](const std::string& s) { return rv32::assemble_rv32(s); });
    const std::string art9 = xlat::to_assembly_text(
        xlat::SoftwareFramework().translate(rv32::assemble_rv32(bench->rv32)).program);
    expect_mutants_located(art9, [](const std::string& s) { return isa::assemble(s); });
  }
}

}  // namespace
}  // namespace art9::assembly
