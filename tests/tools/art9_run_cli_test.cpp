// art9-run CLI contract: usage errors exit 2, --help documents the full
// exit-code table on stdout and exits 0, and real programs exit with
// their outcome's code (solo jobs of both ISAs and a fleet cohort that
// spills into a second packed word).  The binary path arrives via
// the ART9_RUN_BIN compile definition (a $<TARGET_FILE:art9-run>
// generator expression), so the test follows the build tree wherever
// ctest runs.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

#include "isa/assembler.hpp"
#include "isa/image_io.hpp"

namespace {

struct RunOutput {
  int exit_code = -1;
  std::string stdout_text;
};

/// Runs `command` (stderr folded into stdout), capturing output + status.
RunOutput run(const std::string& command) {
  RunOutput out;
  std::FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return out;
  std::array<char, 512> buf{};
  while (std::fgets(buf.data(), buf.size(), pipe) != nullptr) out.stdout_text += buf.data();
  const int status = pclose(pipe);
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

TEST(Art9RunCli, NoArgumentsIsAUsageError) {
  EXPECT_EQ(run(ART9_RUN_BIN).exit_code, 2);
}

TEST(Art9RunCli, UnknownFlagIsAUsageError) {
  EXPECT_EQ(run(std::string(ART9_RUN_BIN) + " --no-such-flag").exit_code, 2);
}

TEST(Art9RunCli, UnknownEngineIsAUsageError) {
  EXPECT_EQ(run(std::string(ART9_RUN_BIN) + " --engine=warp prog.t9").exit_code, 2);
}

TEST(Art9RunCli, HelpExitsZeroAndDocumentsTheExitCodeTable) {
  const RunOutput help = run(std::string(ART9_RUN_BIN) + " --help");
  EXPECT_EQ(help.exit_code, 0);
  EXPECT_NE(help.stdout_text.find("usage: art9-run"), std::string::npos);
  // The full outcome -> exit-code table must be documented.
  for (const char* row : {"0  completed", "3  trapped", "4  budget_exhausted",
                          "5  deadline_exceeded", "6  cancelled", "7  faulted",
                          "1  load/internal error", "2  usage error"}) {
    EXPECT_NE(help.stdout_text.find(row), std::string::npos) << "missing: " << row;
  }
}

TEST(Art9RunCli, MissingInputFileIsALoadError) {
  EXPECT_EQ(run(std::string(ART9_RUN_BIN) + " /nonexistent/prog.t9").exit_code, 1);
}

TEST(Art9RunCli, SuperblockEngineNamesParse) {
  // Both superblock kinds must be accepted by --engine= (exit 1 = the
  // parse succeeded and only the input file load failed; an unknown
  // engine would exit 2 before touching the file).
  EXPECT_EQ(run(std::string(ART9_RUN_BIN) + " --engine=superblock /nonexistent/prog.t9").exit_code,
            1);
  EXPECT_EQ(
      run(std::string(ART9_RUN_BIN) + " --engine=rv32_superblock /nonexistent/prog.s").exit_code,
      1);
}

TEST(Art9RunCli, HelpDocumentsTheSuperblockEngines) {
  const RunOutput help = run(std::string(ART9_RUN_BIN) + " --help");
  EXPECT_NE(help.stdout_text.find("superblock"), std::string::npos);
  EXPECT_NE(help.stdout_text.find("rv32_superblock"), std::string::npos);
}

TEST(Art9RunCli, FleetEngineNameParses) {
  // Exit 1 = the engine name parsed and only the input load failed.
  EXPECT_EQ(run(std::string(ART9_RUN_BIN) + " --engine=fleet /nonexistent/prog.t9").exit_code, 1);
}

TEST(Art9RunCli, LanesRequiresTheFleetEngine) {
  // --lanes maps onto submit_cohort, which only packs fleet jobs: any
  // other engine is a usage error, caught before the input is touched.
  EXPECT_EQ(
      run(std::string(ART9_RUN_BIN) + " --engine=packed --lanes 4 /nonexistent/prog.t9").exit_code,
      2);
  EXPECT_EQ(run(std::string(ART9_RUN_BIN) + " --lanes 4 /nonexistent/prog.t9").exit_code, 2);
}

TEST(Art9RunCli, LanesRejectsTheRecoveryControls) {
  // Cohort lanes share one packed word, so the per-job recovery
  // machinery (checkpoints, retries, fault drills) cannot apply.
  EXPECT_EQ(run(std::string(ART9_RUN_BIN) +
                " --engine=fleet --lanes 4 --retries 2 /nonexistent/prog.t9")
                .exit_code,
            2);
  EXPECT_EQ(run(std::string(ART9_RUN_BIN) +
                " --engine=fleet --lanes 4 --checkpoint-every 100 /nonexistent/prog.t9")
                .exit_code,
            2);
  EXPECT_EQ(run(std::string(ART9_RUN_BIN) +
                " --engine=fleet --lanes 4 --fault-at 10 /nonexistent/prog.t9")
                .exit_code,
            2);
}

TEST(Art9RunCli, LanesMustBePositive) {
  EXPECT_EQ(
      run(std::string(ART9_RUN_BIN) + " --engine=fleet --lanes -3 /nonexistent/prog.t9").exit_code,
      2);
}

TEST(Art9RunCli, HelpDocumentsTheFleetCohortMode) {
  const RunOutput help = run(std::string(ART9_RUN_BIN) + " --help");
  EXPECT_NE(help.stdout_text.find("fleet"), std::string::npos);
  EXPECT_NE(help.stdout_text.find("--lanes"), std::string::npos);
}

// --- success paths: real programs, one per exit-code class ------------------

/// A per-process scratch directory for the programs the cases below write.
class Art9RunPrograms : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { std::filesystem::create_directories(dir()); }
  static void TearDownTestSuite() { std::filesystem::remove_all(dir()); }

  static std::filesystem::path dir() {
    return std::filesystem::temp_directory_path() /
           ("art9_run_cli_test." + std::to_string(::getpid()));
  }

  /// Assembles ART-9 `source` into a .t9 image; returns its path.
  static std::string art9_image(const std::string& name, const std::string& source) {
    const std::string path = (dir() / (name + ".t9")).string();
    art9::isa::write_image_file(art9::isa::assemble(source), path);
    return path;
  }

  /// Writes RV32 assembly `source` to a .s file; returns its path.
  static std::string rv32_source(const std::string& name, const std::string& source) {
    const std::string path = (dir() / (name + ".s")).string();
    std::ofstream(path) << source;
    return path;
  }

  static RunOutput art9_run(const std::string& args) {
    return run(std::string(ART9_RUN_BIN) + " " + args);
  }
};

TEST_F(Art9RunPrograms, HaltingProgramCompletes) {
  const RunOutput out = art9_run(art9_image("halt", "LIMM T1, 42\nHALT\n"));
  EXPECT_EQ(out.exit_code, 0) << out.stdout_text;
  EXPECT_NE(out.stdout_text.find("outcome=completed"), std::string::npos) << out.stdout_text;
}

TEST_F(Art9RunPrograms, SpentBudgetExitsFour) {
  const std::string loop = art9_image("loop", "loop:\n  ADDI T1, 1\n  JAL T0, loop\n");
  const RunOutput out = art9_run("--engine=superblock --max-cycles 100 " + loop);
  EXPECT_EQ(out.exit_code, 4) << out.stdout_text;
  EXPECT_NE(out.stdout_text.find("instructions=100"), std::string::npos) << out.stdout_text;
}

TEST_F(Art9RunPrograms, TrapExitsThree) {
  // No HALT: execution falls off the program into uninitialised TIM.
  const RunOutput out = art9_run("--engine=functional " + art9_image("trap", "ADDI T1, 1\n"));
  EXPECT_EQ(out.exit_code, 3) << out.stdout_text;
  EXPECT_NE(out.stdout_text.find("outcome=trapped"), std::string::npos) << out.stdout_text;
}

TEST_F(Art9RunPrograms, FleetLanesSpanTwoCohorts) {
  // 33 lanes: one full 32-lane cohort plus a 1-lane one.
  const std::string halt = art9_image("fleet", "LIMM T1, 42\nHALT\n");
  const RunOutput out = art9_run("--engine=fleet --lanes 33 " + halt);
  EXPECT_EQ(out.exit_code, 0) << out.stdout_text;
  std::size_t lanes = 0;
  for (std::size_t at = out.stdout_text.find("lane="); at != std::string::npos;
       at = out.stdout_text.find("lane=", at + 1)) {
    ++lanes;
  }
  EXPECT_EQ(lanes, 33u) << out.stdout_text;
  EXPECT_TRUE(out.stdout_text.ends_with("completed=33\n")) << out.stdout_text;
}

TEST_F(Art9RunPrograms, Rv32RegisterDump) {
  const std::string prog = rv32_source("li", "li a0, 5\nebreak\n");
  const RunOutput out = art9_run("--engine=rv32_superblock --dump-regs " + prog);
  EXPECT_EQ(out.exit_code, 0) << out.stdout_text;
  EXPECT_NE(out.stdout_text.find("x10 (a0  ) = 0x00000005 = 5"), std::string::npos)
      << out.stdout_text;
}

}  // namespace
