// The software-level compiling framework in action (paper Fig. 2):
// RV-32I assembly in, ART-9 assembly out, with per-stage statistics and
// a differential run proving the translation preserved the semantics.
//
//   $ ./examples/translate_rv32
#include <cstdio>
#include <memory>

#include "rv32/rv32_assembler.hpp"
#include "rv32/rv32_sim.hpp"
#include "sim/engine.hpp"
#include "xlat/framework.hpp"

int main() {
  using namespace art9;

  // A compiler-shaped RV-32I fragment: GCD of two constants by repeated
  // subtraction, result stored to memory.
  const char* rv32_source = R"(
    li   a0, 252
    li   a1, 105
gcd:
    beq  a0, a1, done
    blt  a0, a1, swap
    sub  a0, a0, a1
    j    gcd
swap:
    sub  a1, a1, a0
    j    gcd
done:
    sw   a0, 64(zero)
    ebreak
)";

  std::printf("--- RV-32I input -------------------------------------------\n%s\n", rv32_source);

  const rv32::Rv32Program rv_program = rv32::assemble_rv32(rv32_source);
  xlat::SoftwareFramework framework;
  const xlat::TranslationResult result = framework.translate(rv_program);

  std::printf("--- ART-9 output (instruction mapping + operand conversion\n");
  std::printf("--- + redundancy checking) ---------------------------------\n");
  std::printf("%s\n", xlat::to_assembly_text(result.program).c_str());

  std::printf("--- statistics ---------------------------------------------\n");
  std::printf("rv32 instructions      : %zu (%lld bit cells)\n", result.stats.rv32_instructions,
              static_cast<long long>(rv_program.memory_cells()));
  std::printf("art9 instructions      : %zu (%lld trit cells)\n",
              result.stats.final_instructions,
              static_cast<long long>(result.program.memory_cells()));
  std::printf("expansion ratio        : %.2fx\n", result.stats.expansion_ratio());
  std::printf("removed by redundancy  : %zu\n", result.stats.removed_redundant);
  std::printf("spilled registers      : %zu\n", result.stats.spilled_registers);
  for (int reg : {10, 11}) {
    std::printf("x%-2d lives in           : %s\n", reg, result.location(reg).to_string().c_str());
  }

  // Differential proof.
  rv32::Rv32Simulator rv(rv_program);
  rv.run();
  const auto t9 = sim::make_engine(sim::EngineKind::kFunctional, sim::decode(result.program));
  const sim::RunResult t9_result = t9->run({});
  const auto rv_gcd = static_cast<int32_t>(rv.load_word(64));
  const auto t9_gcd = t9_result.state.art9().tdm.peek(64).to_int();
  std::printf("\ngcd(252, 105) -> rv32: %d, art9: %lld (both should be 21)\n", rv_gcd,
              static_cast<long long>(t9_gcd));
  return (rv_gcd == 21 && t9_gcd == 21) ? 0 : 1;
}
