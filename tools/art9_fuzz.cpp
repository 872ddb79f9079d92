// art9-fuzz — the libFuzzer-free driver for the differential fuzz
// harness (src/fuzz/harness.hpp): runs the same six oracles the
// coverage-guided fuzz_differential target runs, but from a portable
// seeded RNG — the deterministic CI smoke path — or by replaying saved
// input files (libFuzzer crash artifacts, minimized repros).
//
//   art9-fuzz [--seed N] [--runs N] [--mode art9|rv32|xlat|raw|snapshot|api]
//             [--artifact-dir DIR] [--quiet]
//   art9-fuzz <input-file>...
//
// On a divergence the offending input bytes are written to the artifact
// directory (default ".") as fuzz-repro-<seed>-<index>.bin and the exit
// status is 1; a clean sweep exits 0.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/harness.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: art9-fuzz [--seed N] [--runs N]\n"
               "                 [--mode art9|rv32|xlat|raw|snapshot|api]\n"
               "                 [--artifact-dir DIR] [--quiet]\n"
               "       art9-fuzz <input-file>...\n"
               "Runs the differential fuzz harness from a seeded RNG (default seed 1,\n"
               "1000 runs), or replays saved fuzzer inputs.  --mode pins every case to\n"
               "one oracle; otherwise the input bytes choose.  Exits 1 on divergence.\n");
  return 2;
}

int mode_index(const std::string& name) {
  if (name == "art9") return 0;
  if (name == "rv32") return 1;
  if (name == "xlat") return 2;
  if (name == "raw") return 3;
  if (name == "snapshot") return 4;
  if (name == "api") return 5;
  return -1;
}

bool write_artifact(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

int replay_files(const std::vector<std::string>& paths) {
  int failures = 0;
  for (const std::string& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "art9-fuzz: cannot read %s\n", path.c_str());
      return 2;
    }
    const std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                     std::istreambuf_iterator<char>());
    const art9::fuzz::FuzzResult result = art9::fuzz::run_fuzz_case(bytes.data(), bytes.size());
    if (result.ok) {
      std::printf("%s: OK [%s]\n", path.c_str(), result.mode.c_str());
    } else {
      std::printf("%s: DIVERGENCE [%s] %s\n", path.c_str(), result.mode.c_str(),
                  result.detail.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 1;
  uint64_t runs = 1000;
  int forced_mode = -1;
  std::string artifact_dir = ".";
  bool quiet = false;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--runs" && i + 1 < argc) {
      runs = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--mode" && i + 1 < argc) {
      forced_mode = mode_index(argv[++i]);
      if (forced_mode < 0) return usage();
    } else if (arg == "--artifact-dir" && i + 1 < argc) {
      artifact_dir = argv[++i];
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      files.push_back(arg);
    }
  }

  if (!files.empty()) return replay_files(files);

  uint64_t failures = 0;
  for (uint64_t i = 0; i < runs; ++i) {
    std::vector<uint8_t> input = art9::fuzz::seeded_input(seed, i);
    // The mode selector is the first input byte (taken modulo 6).
    if (forced_mode >= 0 && !input.empty()) input[0] = static_cast<uint8_t>(forced_mode);
    const art9::fuzz::FuzzResult result = art9::fuzz::run_fuzz_case(input.data(), input.size());
    if (result.ok) continue;
    ++failures;
    const std::string path =
        artifact_dir + "/fuzz-repro-" + std::to_string(seed) + "-" + std::to_string(i) + ".bin";
    std::fprintf(stderr, "DIVERGENCE at seed=%llu index=%llu [%s]\n  %s\n",
                 static_cast<unsigned long long>(seed), static_cast<unsigned long long>(i),
                 result.mode.c_str(), result.detail.c_str());
    if (write_artifact(path, input)) {
      std::fprintf(stderr, "  repro written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "  (could not write repro to %s)\n", path.c_str());
    }
  }
  if (!quiet || failures != 0) {
    std::printf("art9-fuzz: %llu runs, %llu divergences (seed=%llu)\n",
                static_cast<unsigned long long>(runs), static_cast<unsigned long long>(failures),
                static_cast<unsigned long long>(seed));
  }
  return failures == 0 ? 0 : 1;
}
