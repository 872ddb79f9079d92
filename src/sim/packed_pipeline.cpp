#include "sim/packed_pipeline.hpp"

#include <utility>

namespace art9::sim {
namespace detail {

using Word = PackedPipelineDatapath::Word;

Word PackedPipelineDatapath::alu(const DecodedOp& dop, const Word& a, const Word& b) const {
  const PackedOp& op = packed(dop);
  return packed_alu(op.kind, a, b, op);
}

ArchState PackedPipelineDatapath::unpack_state() const {
  ArchState out;
  for (int i = 0; i < isa::kNumRegisters; ++i) {
    out.trf.write(i, trf_[static_cast<std::size_t>(i)].decode());
  }
  out.tdm = tdm_.unpack();
  out.pc = pc_;
  return out;
}

void PackedPipelineDatapath::load_state(const ArchState& s) {
  for (int i = 0; i < isa::kNumRegisters; ++i) {
    trf_[static_cast<std::size_t>(i)] = Word::encode(s.trf.read(i));
  }
  tdm_ = PackedMemory{};
  for (int64_t addr = -ternary::Word9::kMaxValue; addr <= ternary::Word9::kMaxValue; ++addr) {
    const ternary::Word9& w = s.tdm.peek(addr);
    if (w == ternary::Word9{}) continue;  // zero rows match the default
    tdm_.poke(addr, ternary::BctWord9::encode(w));
  }
  tdm_.set_counters(s.tdm.reads(), s.tdm.writes());
  pc_ = s.pc;
}

}  // namespace detail

PackedPipelineSimulator::PackedPipelineSimulator(const isa::Program& program,
                                                 PipelineConfig config)
    : PackedPipelineSimulator(decode(program), config) {}

PackedPipelineSimulator::PackedPipelineSimulator(std::shared_ptr<const DecodedImage> image,
                                                 PipelineConfig config)
    : PipelineModel(std::move(image), config) {}

}  // namespace art9::sim
