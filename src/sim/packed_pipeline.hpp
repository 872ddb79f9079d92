// Plane-packed cycle-accurate pipeline — the SWAR datapath under the
// 5-stage control logic.
//
// Instantiates the shared detail::PipelineModel (pipeline_model.hpp) with
// a datapath whose every latched payload is a ternary::BctWord9 plane
// pair: a packed TRF (nine plane-pair words), the TDM (sim::TernaryMemory,
// moved row by row as the plane pairs it stores) and the image's rows
// supplying pre-packed immediates and link words (their `word()` planes —
// the reference datapath reads the same rows' Word9).
// The forwarding muxes, the one-trit condition bypass and the EX TALU
// (packed_alu.hpp, the cells the superblock tier and the fleet run) all
// operate on planes — no std::array<Trit, 9> is touched between reset and
// halt; only the nine registers are decoded at the inspection boundary
// (state()).
//
// Because the HDU/stall/squash logic is the *same template* the reference
// PipelineSimulator runs, cycle counts, stall/squash/prediction
// accounting, CycleTrace streams and retired-instruction observer streams
// are bit-identical to the reference pipeline on every PipelineConfig
// combination — locked by tests/sim/packed_pipeline_test.cpp and
// trace_golden_test.cpp.  Selectable through the sim::Engine facade as
// EngineKind::kPackedPipeline.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "isa/program.hpp"
#include "sim/packed_alu.hpp"
#include "sim/pipeline_model.hpp"
#include "ternary/bct.hpp"
#include "ternary/packed.hpp"

namespace art9::sim {
namespace detail {

/// Packed datapath policy: BctWord9 latched payloads, a packed TRF, the
/// TernaryMemory TDM, and the branchless plane/table TALU.
class PackedPipelineDatapath {
 public:
  using Word = ternary::BctWord9;

  explicit PackedPipelineDatapath(const DecodedImage& image) {
    for (const isa::DataWord& d : image.program().data) tdm_.poke(d.address, d.value);
    pc_ = image.program().entry;
  }

  [[nodiscard]] int64_t pc() const noexcept { return pc_; }
  void set_pc(int64_t pc) noexcept { pc_ = pc; }

  [[nodiscard]] Word read_reg(int index) const noexcept {
    return trf_[static_cast<std::size_t>(index)];
  }
  void write_reg(int index, const Word& value) noexcept {
    trf_[static_cast<std::size_t>(index)] = value;
  }

  [[nodiscard]] Word mem_load(const Word& address) noexcept {
    return tdm_.read_row(packed_tdm_row(address, 0));
  }
  void mem_store(const Word& address, const Word& value) noexcept {
    tdm_.write_row(packed_tdm_row(address, 0), value);
  }

  /// Balanced LST value in {-1, 0, +1} (branch condition compare).
  [[nodiscard]] static int lst(const Word& w) noexcept { return w.lst_value(); }

  /// EX evaluations on planes: the packed TALU, branchless wrapped address
  /// adds, the pre-packed link word, and the JALR target calculator.
  [[nodiscard]] static Word alu(const PackedOp& op, const Word& a, const Word& b) {
    return packed_alu(op.kind, a, b, op);
  }
  [[nodiscard]] static Word addr_word(const Word& base, int imm) noexcept {
    return ternary::packed::add_int(base, imm);
  }
  [[nodiscard]] static Word link(const PackedOp& op) noexcept { return op.word(); }
  [[nodiscard]] static int64_t jalr_target(const Word& base, int imm) noexcept {
    return packed_jalr_target(base, imm);
  }

  /// Snapshot/restore seam (PipelineModel::checkpoint/restore_state):
  /// the registers decoded and the TDM copied as it is (contents and
  /// counters), and the exact inverse.
  [[nodiscard]] ArchState arch_state() const;
  void load_state(const ArchState& s);

 private:
  std::array<Word, isa::kNumRegisters> trf_{};
  TernaryMemory tdm_;
  int64_t pc_ = 0;
};

}  // namespace detail

class PackedPipelineSimulator : public detail::PipelineModel<detail::PackedPipelineDatapath> {
 public:
  explicit PackedPipelineSimulator(const isa::Program& program, PipelineConfig config = {});

  /// Runs off a shared pre-decoded image (SimulationService, ablation
  /// sweeps).  `image` must be non-null.
  explicit PackedPipelineSimulator(std::shared_ptr<const DecodedImage> image,
                                   PipelineConfig config = {});

  /// Architectural snapshot (registers, TDM contents + access counters,
  /// PC).
  [[nodiscard]] ArchState state() const { return datapath().arch_state(); }
};

}  // namespace art9::sim
