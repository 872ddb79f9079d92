#include "sim/packed_pipeline.hpp"

#include <utility>

namespace art9::sim {
namespace detail {

using Word = PackedPipelineDatapath::Word;

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
  tdm_ = PackedMemory::pack(s.tdm);
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
