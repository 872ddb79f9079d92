// Cycle-accurate simulator of the 5-stage pipelined ART-9 core
// (paper Fig. 4): IF -> ID -> EX -> MEM -> WB.
//
// Modelled microarchitecture (paper §IV-B):
//  * synchronous single-port TIM and TDM; TRF with two asynchronous read
//    ports and one synchronous write port;
//  * hazard detection unit (HDU) in ID;
//  * forwarding multiplexers feeding the TALU from the EX/MEM and MEM/WB
//    pipeline registers (ALU-use hazards never stall);
//  * branch-target calculator + condition checker in ID, with a dedicated
//    one-trit forwarding path for the condition (so a COMP immediately
//    before its branch costs no stall);
//  * the only hardware-inserted stalls are load-use interlocks and the
//    single squashed fetch after a taken branch/jump — exactly the two
//    cases the paper reports.
//
// Every mechanism has an ablation switch in PipelineConfig so the
// ablation bench can price each design decision.
//
// The control logic (latches, HDU, forwarding selects, squash/stall
// accounting) lives in the shared detail::PipelineModel template
// (pipeline_model.hpp); this header instantiates it with the *reference
// datapath* — ternary::Word9 payloads over the RegFile and the
// TernaryMemory (a row decoded at each LOAD, encoded at each STORE), the
// golden cycle-accurate model.  packed_pipeline.hpp instantiates the same
// control logic over plane-packed words.
#pragma once

#include <cstdint>
#include <memory>

#include "isa/program.hpp"
#include "sim/pipeline_model.hpp"
#include "sim/talu.hpp"
#include "ternary/word.hpp"

namespace art9::sim {
namespace detail {

/// Reference datapath policy: Word9 latched payloads, the architectural
/// RegFile/TernaryMemory, and the reference TALU.
class ReferencePipelineDatapath {
 public:
  using Word = ternary::Word9;

  explicit ReferencePipelineDatapath(const DecodedImage& image) {
    load_data(image.program(), state);
  }

  /// The architectural state, exposed by reference through
  /// PipelineSimulator::state().
  ArchState state;

  [[nodiscard]] int64_t pc() const noexcept { return state.pc; }
  void set_pc(int64_t pc) noexcept { state.pc = pc; }

  /// Snapshot/restore seam (PipelineModel::checkpoint/restore_state):
  /// the reference datapath's architectural state is the state itself.
  [[nodiscard]] ArchState arch_state() const { return state; }
  void load_state(const ArchState& s) { state = s; }

  [[nodiscard]] Word read_reg(int index) const { return state.trf.read(index); }
  void write_reg(int index, const Word& value) { state.trf.write(index, value); }

  [[nodiscard]] Word mem_load(const Word& address) { return state.tdm.read(address.to_int()); }
  void mem_store(const Word& address, const Word& value) {
    state.tdm.write(address.to_int(), value);
  }

  /// Balanced LST value in {-1, 0, +1} (branch condition compare).
  [[nodiscard]] static int lst(const Word& w) noexcept { return w.lst().value(); }

  /// EX evaluations: the pre-decoded TALU, wrapped address adds, the
  /// row's link word in trits, and the JALR target calculator.
  [[nodiscard]] static Word alu(const PackedOp& op, const Word& a, const Word& b) {
    return execute(op, a, b);
  }
  [[nodiscard]] static Word addr_word(const Word& base, int imm) {
    return Word::from_int_wrapped(base.to_int() + imm);
  }
  [[nodiscard]] static Word link(const PackedOp& op) noexcept { return op.word9; }
  [[nodiscard]] static int64_t jalr_target(const Word& base, int imm) {
    return ArchState::wrap(base.to_int() + imm);
  }
};

}  // namespace detail

class PipelineSimulator : public detail::PipelineModel<detail::ReferencePipelineDatapath> {
 public:
  explicit PipelineSimulator(const isa::Program& program, PipelineConfig config = {});

  /// Runs off a shared pre-decoded image (batch sweeps, ablation benches).
  /// `image` must be non-null.
  explicit PipelineSimulator(std::shared_ptr<const DecodedImage> image,
                             PipelineConfig config = {});

  [[nodiscard]] const ArchState& state() const noexcept { return datapath().state; }

  [[nodiscard]] const ternary::Word9& reg(int index) const { return state().trf.read(index); }
  [[nodiscard]] int64_t reg_int(int index) const { return state().trf.read(index).to_int(); }
};

}  // namespace art9::sim
