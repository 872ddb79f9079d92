// Sobel filter on the ternary core: translate the benchmark, run it on the
// pipeline, and render input/output as ASCII intensity maps.
//
//   $ ./examples/sobel_demo
#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "core/benchmarks.hpp"
#include "rv32/rv32_assembler.hpp"
#include "sim/engine.hpp"
#include "xlat/framework.hpp"

namespace {

void render(const char* title, const std::vector<int32_t>& image, int width, int32_t max_value) {
  static const char kRamp[] = " .:-=+*#%@";
  std::printf("%s\n", title);
  for (std::size_t i = 0; i < image.size(); ++i) {
    const int32_t v = image[i];
    const int level = static_cast<int>((static_cast<int64_t>(v) * 9) / (max_value ? max_value : 1));
    std::printf("%c%c", kRamp[level < 0 ? 0 : (level > 9 ? 9 : level)],
                kRamp[level < 0 ? 0 : (level > 9 ? 9 : level)]);
    if ((i + 1) % static_cast<std::size_t>(width) == 0) std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace art9;

  const core::BenchmarkSources& bench = core::sobel();
  xlat::SoftwareFramework framework;
  const xlat::TranslationResult xl =
      framework.translate(rv32::assemble_rv32(bench.rv32));

  const std::unique_ptr<sim::Engine> cpu =
      sim::make_engine(sim::EngineKind::kPipeline, sim::decode(xl.program));
  const sim::RunResult result = cpu->run({});
  const sim::SimStats& stats = result.stats;

  render("input image:", core::sobel_input(), core::kSobelDim, 40);

  // Read the interior gradient image back out of the ternary data memory.
  const int inner = core::kSobelDim - 2;
  std::vector<int32_t> out;
  int32_t max_value = 1;
  for (int i = 0; i < inner * inner; ++i) {
    const auto v = static_cast<int32_t>(
        result.state.art9().tdm.peek(core::kSobelOutAddr + static_cast<int64_t>(i) * 4).to_int());
    out.push_back(v);
    if (v > max_value) max_value = v;
  }
  render("gradient magnitude (|Gx| + |Gy|), computed on the ART-9 core:", out, inner, max_value);

  const std::vector<int32_t> expected = core::sobel_expected();
  const bool ok = std::equal(out.begin(), out.end(), expected.begin());
  std::printf("pipeline cycles: %llu, instructions: %llu, matches host reference: %s\n",
              static_cast<unsigned long long>(stats.cycles),
              static_cast<unsigned long long>(stats.instructions), ok ? "yes" : "NO");
  return ok ? 0 : 1;
}
