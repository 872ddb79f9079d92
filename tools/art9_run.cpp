// art9-run — execute a program on any simulation engine through the
// unified cross-ISA sim::Engine facade, scheduled as one
// SimulationService job so the CLI reports the structured JobOutcome
// (and exposes the service's deadline / checkpoint-retry / fault-drill
// controls).
//
//   art9-run program.t9 [--engine=lazy|functional|packed|superblock|fleet|pipeline|
//                                  pipeline_packed]
//            [--lanes N] [--max-cycles N] [--dump-regs] [--dump-mem LO HI]
//            [--no-forwarding] [--branch-in-ex] [--stats] [--trace N]
//            [--deadline-ms N] [--checkpoint-every N] [--retries N]
//            [--fault-at N] [--fault-seed N]
//   art9-run program.s  --engine=rv32|rv32_superblock|rv32_packed [--max-cycles N]
//            [--dump-regs] [--dump-mem LO HI] [...same service flags]
//
// ART-9 engines consume a .t9 image; the rv32 engines consume RV32I(+M)
// assembly text (the same dialect the benchmark corpus is written in).
//
// Exit codes, one per outcome class:
//   0 completed   3 trapped            4 budget_exhausted
//   5 deadline_exceeded   6 cancelled   7 faulted
//   1 load/internal error   2 usage error
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "isa/image_io.hpp"
#include "rv32/rv32_assembler.hpp"
#include "sim/engine.hpp"
#include "sim/fault_injection.hpp"
#include "sim/service.hpp"
#include "sim/trace.hpp"

namespace {

// `help` routes the same text to stdout with exit 0 (--help); every
// misuse goes to stderr with exit 2.
int usage(bool help = false) {
  std::fprintf(help ? stdout : stderr,
               "usage: art9-run <program.t9>\n"
               "                [--engine=lazy|functional|packed|superblock|fleet|pipeline|\n"
               "                           pipeline_packed]\n"
               "                [--lanes N]\n"
               "                [--max-cycles N] [--dump-regs] [--dump-mem LO HI]\n"
               "                [--no-forwarding] [--branch-in-ex] [--stats] [--trace N]\n"
               "                [--deadline-ms N] [--checkpoint-every N] [--retries N]\n"
               "                [--fault-at N] [--fault-seed N]\n"
               "       art9-run <program.s> --engine=rv32|rv32_superblock|rv32_packed\n"
               "                [--max-cycles N] [--dump-regs] [--dump-mem LO HI]\n"
               "engine defaults to pipeline (the cycle-accurate model); pipeline_packed is\n"
               "the same 5-stage model on plane-packed words; superblock and\n"
               "rv32_superblock run the block translation tier (fused macro-ops,\n"
               "block-chained dispatch) over the fastest functional datapath of each\n"
               "ISA, and packed is the superblock engine under its historical name;\n"
               "fleet runs the bit-sliced backend (32 machines per plane word) —\n"
               "pair it with --lanes N to run N copies of the program as one\n"
               "service cohort, reporting a per-lane outcome summary and exiting\n"
               "with the worst lane's code (--lanes needs --engine=fleet and is\n"
               "incompatible with the checkpoint/retry/fault flags); --trace and the\n"
               "microarchitecture switches apply to the pipeline engines only.\n"
               "The rv32 engines assemble RV32I(+M) source (rv32_packed holds its words\n"
               "as 21-trit plane pairs) and dump x-registers / RAM words.\n"
               "--deadline-ms / --checkpoint-every / --retries wire the SimulationService\n"
               "per-job controls; --fault-at / --fault-seed inject a deterministic\n"
               "transient fault (a recovery drill: pair with --checkpoint-every and\n"
               "--retries).  The exit code encodes the outcome class: 0 completed,\n"
               "3 trapped, 4 budget_exhausted, 5 deadline_exceeded, 6 cancelled,\n"
               "7 faulted (1 = load error, 2 = usage).\n"
               "Exit codes:\n"
               "  0  completed          program reached its halt convention\n"
               "  3  trapped            the program itself trapped (SimError)\n"
               "  4  budget_exhausted   --max-cycles spent before halting\n"
               "  5  deadline_exceeded  --deadline-ms cut the run short\n"
               "  6  cancelled          job cancelled before resolution\n"
               "  7  faulted            injected fault outran --retries\n"
               "  1  load/internal error      2  usage error\n");
  return help ? 0 : 2;
}

int outcome_exit_code(art9::sim::JobOutcome outcome) {
  switch (outcome) {
    case art9::sim::JobOutcome::kCompleted: return 0;
    case art9::sim::JobOutcome::kTrapped: return 3;
    case art9::sim::JobOutcome::kBudgetExhausted: return 4;
    case art9::sim::JobOutcome::kDeadlineExceeded: return 5;
    case art9::sim::JobOutcome::kCancelled: return 6;
    case art9::sim::JobOutcome::kFaulted: return 7;
  }
  return 1;
}

void dump_regs(const art9::sim::MachineState& state) {
  if (state.is_rv32()) {
    for (int r = 0; r < 32; ++r) {
      std::printf("  x%-2d (%-4s) = 0x%08x = %lld\n", r,
                  std::string(art9::rv32::abi_name(r)).c_str(), state.rv32().regs[size_t(r)],
                  static_cast<long long>(static_cast<int32_t>(state.rv32().regs[size_t(r)])));
    }
    return;
  }
  for (int r = 0; r < art9::isa::kNumRegisters; ++r) {
    const auto& w = state.art9().trf.read(r);
    std::printf("  T%d = %s = %lld\n", r, w.to_string().c_str(),
                static_cast<long long>(w.to_int()));
  }
}

void dump_mem(const art9::sim::MachineState& state, int64_t lo, int64_t hi) {
  if (state.is_rv32()) {
    // Word view of the byte RAM, 4-aligned inside [lo, hi].
    const auto& ram = state.rv32().ram;
    for (int64_t a = (lo + 3) / 4 * 4; a + 3 <= hi; a += 4) {
      if (a < 0 || static_cast<std::size_t>(a) + 4 > ram.size()) continue;
      uint32_t v = 0;
      for (int b = 0; b < 4; ++b) v |= static_cast<uint32_t>(ram[size_t(a + b)]) << (8 * b);
      std::printf("  ram[%lld] = 0x%08x = %lld\n", static_cast<long long>(a), v,
                  static_cast<long long>(static_cast<int32_t>(v)));
    }
    return;
  }
  for (int64_t a = lo; a <= hi; ++a) {
    std::printf("  tdm[%lld] = %lld\n", static_cast<long long>(a),
                static_cast<long long>(state.art9().tdm.peek(a).to_int()));
  }
}

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string input;
  art9::sim::EngineKind kind = art9::sim::EngineKind::kPipeline;
  bool want_regs = false;
  bool want_stats = false;
  int64_t mem_lo = 0;
  int64_t mem_hi = -1;
  long long trace_cycles = 0;
  long long lanes = 0;  // 0 = no --lanes flag (solo job)
  uint64_t max_cycles = 100'000'000;
  long long fault_at = 0;
  long long fault_seed = 0;
  art9::sim::EngineOptions options;
  art9::sim::JobControls controls;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      return usage(true);
    } else if (arg.rfind("--engine=", 0) == 0) {
      const auto parsed = art9::sim::parse_engine_kind(arg.substr(9));
      if (!parsed) {
        std::fprintf(stderr, "art9-run: unknown engine '%s'\n", arg.substr(9).c_str());
        return usage();
      }
      kind = *parsed;
    } else if (arg == "--lanes" && i + 1 < argc) {
      lanes = std::atoll(argv[++i]);
    } else if (arg == "--max-cycles" && i + 1 < argc) {
      max_cycles = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      controls.deadline = std::chrono::milliseconds(std::atoll(argv[++i]));
    } else if (arg == "--checkpoint-every" && i + 1 < argc) {
      controls.checkpoint_every = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--retries" && i + 1 < argc) {
      controls.retries = static_cast<unsigned>(std::atoll(argv[++i]));
    } else if (arg == "--fault-at" && i + 1 < argc) {
      fault_at = std::atoll(argv[++i]);
    } else if (arg == "--fault-seed" && i + 1 < argc) {
      fault_seed = std::atoll(argv[++i]);
    } else if (arg == "--dump-regs") {
      want_regs = true;
    } else if (arg == "--stats") {
      want_stats = true;
    } else if (arg == "--dump-mem" && i + 2 < argc) {
      mem_lo = std::atoll(argv[++i]);
      mem_hi = std::atoll(argv[++i]);
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_cycles = std::atoll(argv[++i]);
    } else if (arg == "--no-forwarding") {
      options.pipeline.ex_forwarding = false;
    } else if (arg == "--branch-in-ex") {
      options.pipeline.branch_in_id = false;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (input.empty()) {
      input = arg;
    } else {
      return usage();
    }
  }
  if (input.empty()) return usage();
  if (lanes != 0) {
    // The cohort path maps straight onto SimulationService::submit_cohort,
    // which owns the same restrictions: fleet jobs only, no
    // checkpoint/retry/fault machinery inside a packed word.
    if (kind != art9::sim::EngineKind::kFleet) {
      std::fprintf(stderr, "art9-run: --lanes needs --engine=fleet\n");
      return usage();
    }
    if (lanes < 1) {
      std::fprintf(stderr, "art9-run: --lanes must be >= 1\n");
      return usage();
    }
    if (controls.checkpoint_every != 0 || controls.retries != 0 || fault_at > 0 ||
        fault_seed > 0) {
      std::fprintf(stderr,
                   "art9-run: --lanes cannot be combined with --checkpoint-every, "
                   "--retries or --fault-*\n");
      return usage();
    }
  }

  try {
    if (trace_cycles > 0) {
      options.tracer = [trace_cycles](const art9::sim::CycleTrace& t) {
        if (static_cast<long long>(t.cycle) <= trace_cycles) {
          std::printf("%s\n", art9::sim::render_trace(t).c_str());
        }
      };
    }
    // The CLI budget is the whole budget: mirror it into the pipeline
    // config so the engine's per-run cap (the tighter of the two) is
    // exactly the flag value.
    options.pipeline.max_cycles = max_cycles;
    if (fault_at > 0 || fault_seed > 0) {
      auto plan = std::make_shared<art9::sim::FaultPlan>(
          fault_at > 0
              ? art9::sim::FaultPlan{.throw_at_step = static_cast<uint64_t>(fault_at),
                                     .seed = static_cast<uint64_t>(fault_seed)}
              : art9::sim::FaultPlan::seeded(static_cast<uint64_t>(fault_seed), max_cycles));
      controls.fault = std::move(plan);
    }
    // The engine kind decides the front end: the rv32 kinds assemble
    // RV32 source, the ART-9 kinds read a .t9 image.
    const art9::sim::EngineImage image =
        art9::sim::is_rv32(kind)
            ? art9::sim::EngineImage(art9::rv32::decode(
                  art9::rv32::assemble_rv32(read_text_file(input))))
            : art9::sim::EngineImage(art9::sim::decode(art9::isa::read_image_file(input)));

    // One job through the service: the same scheduling, outcome and
    // recovery machinery the batch/network front ends use.
    art9::sim::SimulationService service(1);

    if (lanes > 1) {
      // --lanes: N copies of the program as one bit-sliced cohort.  Every
      // lane gets its own JobResult; the dump flags read lane 0 and the
      // exit code is the worst lane's outcome class.
      std::vector<art9::sim::SimulationService::Job> jobs(
          static_cast<std::size_t>(lanes),
          art9::sim::SimulationService::Job{image, kind, art9::sim::RunOptions{max_cycles},
                                            options, controls});
      const std::vector<art9::sim::JobHandle> handles = service.submit_cohort(std::move(jobs));
      int worst = 0;
      unsigned long long lanes_completed = 0;
      for (std::size_t lane = 0; lane < handles.size(); ++lane) {
        const art9::sim::JobResult& lane_result = handles[lane].result();
        std::printf("lane=%zu outcome=%s instructions=%llu\n", lane,
                    std::string(art9::sim::job_outcome_name(lane_result.outcome)).c_str(),
                    static_cast<unsigned long long>(lane_result.run.stats.instructions));
        if (!lane_result.error.empty()) {
          std::fprintf(stderr, "art9-run: lane %zu: %s\n", lane, lane_result.error.c_str());
        }
        if (lane_result.outcome == art9::sim::JobOutcome::kCompleted) ++lanes_completed;
        worst = std::max(worst, outcome_exit_code(lane_result.outcome));
      }
      std::printf("engine=%s lanes=%zu completed=%llu\n",
                  std::string(art9::sim::engine_kind_name(kind)).c_str(), handles.size(),
                  lanes_completed);
      if (want_regs) dump_regs(handles.front().result().run.state);
      if (mem_hi >= mem_lo) dump_mem(handles.front().result().run.state, mem_lo, mem_hi);
      return worst;
    }

    const art9::sim::JobHandle handle = service.submit(art9::sim::SimulationService::Job{
        image, kind, art9::sim::RunOptions{max_cycles}, options, controls});
    const art9::sim::JobResult& result = handle.result();

    const bool cycle_accurate = art9::sim::is_cycle_accurate(kind);
    std::printf("engine=%s outcome=%s instructions=%llu",
                std::string(art9::sim::engine_kind_name(kind)).c_str(),
                std::string(art9::sim::job_outcome_name(result.outcome)).c_str(),
                static_cast<unsigned long long>(result.run.stats.instructions));
    if (cycle_accurate) {
      std::printf(" cycles=%llu CPI=%.3f",
                  static_cast<unsigned long long>(result.run.stats.cycles),
                  result.run.stats.cpi());
    }
    if (result.retries > 0) {
      std::printf(" retries=%u resumed=%s", result.retries, result.resumed ? "yes" : "no");
    }
    if (controls.checkpoint_every > 0) {
      std::printf(" checkpoints=%llu", static_cast<unsigned long long>(result.checkpoints));
      if (result.corrupt_checkpoints > 0) {
        std::printf(" corrupt_checkpoints=%llu",
                    static_cast<unsigned long long>(result.corrupt_checkpoints));
      }
    }
    std::printf("\n");
    if (!result.error.empty()) std::fprintf(stderr, "art9-run: %s\n", result.error.c_str());
    if (want_stats && cycle_accurate) {
      std::printf("  load-use stalls      = %llu\n",
                  static_cast<unsigned long long>(result.run.stats.stall_load_use));
      std::printf("  branch-hazard stalls = %llu\n",
                  static_cast<unsigned long long>(result.run.stats.stall_branch_hazard));
      std::printf("  raw stalls           = %llu\n",
                  static_cast<unsigned long long>(result.run.stats.stall_raw));
      std::printf("  taken-branch flushes = %llu\n",
                  static_cast<unsigned long long>(result.run.stats.flush_taken_branch));
    }
    if (want_regs) dump_regs(result.run.state);
    if (mem_hi >= mem_lo) dump_mem(result.run.state, mem_lo, mem_hi);
    return outcome_exit_code(result.outcome);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "art9-run: %s\n", e.what());
    return 1;
  }
}
