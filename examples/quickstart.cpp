// Quickstart: assemble a small ART-9 program, run it through the unified
// sim::Engine facade on every ART-9 backend — three functional models and
// the cycle-accurate 5-stage pipeline — then run the same computation as
// RV32 assembly through the same facade (the cross-ISA seam the paper's
// baseline comparison rides).
//
//   $ ./examples/quickstart
#include <cstdio>
#include <memory>

#include "isa/assembler.hpp"
#include "isa/disassembler.hpp"
#include "rv32/rv32_assembler.hpp"
#include "sim/engine.hpp"

int main() {
  using namespace art9;

  // Sum the integers 1..100 in balanced ternary.
  const char* source = R"(
; sum = 1 + 2 + ... + 100
main:
    LIMM T1, 100     ; counter (LUI/LI pair)
    LIMM T2, 0       ; sum
    LIMM T3, 0       ; zero, for the loop test
loop:
    ADD  T2, T1      ; sum += counter
    ADDI T1, -1
    MV   T4, T1
    COMP T4, T3      ; T4 = sign(counter)
    BNE  T4, 0, loop
    HALT
)";

  const isa::Program program = isa::assemble(source);
  std::printf("assembled %zu instructions (%lld trit cells)\n\n", program.code.size(),
              static_cast<long long>(program.memory_cells()));
  std::printf("%s\n", isa::disassemble(program).c_str());

  // One decoded image, shared by every engine.
  const std::shared_ptr<const sim::DecodedImage> image = sim::decode(program);

  // Same program, same API, five ART-9 backends.
  std::printf("%-16s %14s %12s %8s\n", "engine", "instructions", "cycles", "sum");
  for (sim::EngineKind kind : sim::art9_engine_kinds()) {
    std::unique_ptr<sim::Engine> engine = sim::make_engine(kind, image);
    const sim::RunResult r = engine->run({});
    std::printf("%-16s %14llu %12llu %8lld\n",
                std::string(sim::engine_kind_name(kind)).c_str(),
                static_cast<unsigned long long>(r.stats.instructions),
                static_cast<unsigned long long>(r.stats.cycles),
                static_cast<long long>(r.state.art9().trf.read(2).to_int()));
  }

  // The same computation as RV32 assembly on the rv32 kinds — the binary
  // baseline behind the same facade (rv32_packed is the rv32 engine under
  // its historical name).
  const auto rv_image = rv32::decode(rv32::assemble_rv32(R"(
    li   a0, 100      # counter
    li   a1, 0        # sum
loop:
    add  a1, a1, a0
    addi a0, a0, -1
    bnez a0, loop
    ebreak
)"));
  for (sim::EngineKind kind : sim::rv32_engine_kinds()) {
    std::unique_ptr<sim::Engine> engine = sim::make_engine(kind, rv_image);
    const sim::RunResult r = engine->run({});
    std::printf("%-16s %14llu %12llu %8u\n",
                std::string(sim::engine_kind_name(kind)).c_str(),
                static_cast<unsigned long long>(r.stats.instructions),
                static_cast<unsigned long long>(r.stats.cycles), r.state.rv32().regs[11]);
  }

  // The retired-instruction observer: count taken loop iterations.
  std::unique_ptr<sim::Engine> observed = sim::make_engine(sim::EngineKind::kPacked, image);
  uint64_t branches = 0;
  observed->set_observer([&](const sim::Retired& r) {
    if (r.art9().op == isa::Opcode::kBne) ++branches;
  });
  const sim::RunResult r = observed->run({});
  std::printf("\nsum(1..100)   = %lld (expected 5050)\n",
              static_cast<long long>(r.state.art9().trf.read(2).to_int()));
  std::printf("loop branches = %llu (observer on the packed engine)\n",
              static_cast<unsigned long long>(branches));

  // The pipeline engine also carries the microarchitectural accounting.
  std::unique_ptr<sim::Engine> cpu = sim::make_engine(sim::EngineKind::kPipeline, image);
  const sim::RunResult p = cpu->run({});
  std::printf("pipeline      = %llu cycles, CPI %.3f, %llu taken-branch bubbles\n",
              static_cast<unsigned long long>(p.stats.cycles), p.stats.cpi(),
              static_cast<unsigned long long>(p.stats.flush_taken_branch));
  return r.state.art9().trf.read(2).to_int() == 5050 ? 0 : 1;
}
