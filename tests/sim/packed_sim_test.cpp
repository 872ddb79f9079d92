// The `packed` engine kind through the facade: make_engine(kPacked)
// builds the superblock engine over the plane-packed datapath under its
// historical name.  Checks the kind's decode-time immediate validation,
// trap parity with the reference path, and the inspection-boundary
// accessors.  The same cases against SuperblockSimulator itself live in
// superblock_test.cpp; corpus-wide bit-identity across backends lives in
// the parameterized engine conformance suite (engine_conformance_test.cpp).
#include <gtest/gtest.h>

#include "isa/assembler.hpp"
#include "sim/engine.hpp"

namespace art9::sim {
namespace {

TEST(PackedSim, UninitialisedFetchTrapsLikeReference) {
  // Fall off the end of a program with no halt: both kinds must throw.
  isa::Program program;
  program.code.push_back(isa::Instruction{isa::Opcode::kAddi, 1, 0, ternary::kTritZ, 1});
  program.entry = 0;
  auto reference = make_engine(EngineKind::kFunctional, decode(program));
  auto packed = make_engine(EngineKind::kPacked, decode(program));
  EXPECT_EQ(packed->kind(), EngineKind::kPacked);
  EXPECT_TRUE(reference->step());
  EXPECT_TRUE(packed->step());
  EXPECT_THROW(static_cast<void>(reference->step()), SimError);
  EXPECT_THROW(static_cast<void>(packed->step()), SimError);
  EXPECT_EQ(packed->state(), reference->state());
}

TEST(PackedSim, MalformedImmediateThrowsAtDecodeTime) {
  // ADDI's imm3 range is [-13, 13]; 500 is unencodable.  Building the
  // image must reject it before anything runs.
  isa::Program program;
  program.code.push_back(isa::Instruction{isa::Opcode::kAddi, 1, 0, ternary::kTritZ, 500});
  program.code.push_back(isa::Instruction::halt());
  program.entry = 0;
  EXPECT_THROW(static_cast<void>(make_engine(EngineKind::kPacked, decode(program))), SimError);
  // Same for the other pre-encoded immediate forms.
  for (isa::Opcode op : {isa::Opcode::kAndi, isa::Opcode::kLui, isa::Opcode::kLi}) {
    isa::Program p;
    p.code.push_back(isa::Instruction{op, 1, 0, ternary::kTritZ, 10'000});
    p.entry = 0;
    EXPECT_THROW(static_cast<void>(make_engine(EngineKind::kPacked, decode(p))), SimError)
        << isa::mnemonic(op);
  }
}

TEST(PackedSim, InspectionAccessorsDecodeOnDemand) {
  auto engine =
      make_engine(EngineKind::kPacked, decode(isa::assemble("LIMM T1, -4567\nHALT\n")));
  const RunResult result = engine->run();
  EXPECT_EQ(result.halt, HaltReason::kHalted);
  const ternary::Word9 t1 = engine->state().art9().trf.read(1);
  EXPECT_EQ(t1.to_int(), -4567);
  EXPECT_EQ(t1, ternary::Word9::from_int(-4567));
  EXPECT_EQ(result.state.art9().trf.read(1), t1);
}

}  // namespace
}  // namespace art9::sim
