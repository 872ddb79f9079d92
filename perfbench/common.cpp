#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <unordered_map>

#include "core/benchmarks.hpp"
#include "core/progen.hpp"
#include "rv32/rv32_assembler.hpp"
#include "rv32/rv32_sim.hpp"
#include "serve/image_cache.hpp"
#include "sim/snapshot.hpp"

namespace perfbench {

namespace sim = art9::sim;
namespace core = art9::core;

double now_s() {
  static const Clock::time_point kEpoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// --- Samples ----------------------------------------------------------------

double Samples::sum() const { return std::accumulate(values_.begin(), values_.end(), 0.0); }

double Samples::mean() const { return values_.empty() ? 0.0 : sum() / static_cast<double>(size()); }

double Samples::pct(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

// --- Tracer -----------------------------------------------------------------

uint64_t Tracer::Log::add(const char* name, double start, double end, uint64_t parent,
                          uint64_t job) {
  if (tracer_ == nullptr) return 0;
  const uint64_t id = tracer_->next_id();
  spans_.push_back(Span{id, parent, job, name, start, end});
  return id;
}

uint64_t Tracer::Log::reserve() { return tracer_ == nullptr ? 0 : tracer_->next_id(); }

void Tracer::Log::add_with_id(uint64_t id, const char* name, double start, double end,
                              uint64_t parent, uint64_t job) {
  if (tracer_ != nullptr) spans_.push_back(Span{id, parent, job, name, start, end});
}

uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_++;
}

void Tracer::merge(Log& log) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.insert(spans_.end(), log.spans().begin(), log.spans().end());
  log.spans().clear();
}

double Tracer::unaccounted_frac(const char* root) const {
  std::unordered_map<uint64_t, double> child_time;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_time[s.parent] += s.dur();
  }
  double total = 0.0;
  double covered = 0.0;
  for (const Span& s : spans_) {
    if (s.parent != 0 || std::string_view(s.name) != root) continue;
    total += s.dur();
    const auto it = child_time.find(s.id);
    if (it != child_time.end()) covered += it->second;
  }
  return total > 0.0 ? 1.0 - covered / total : 0.0;
}

void Tracer::write(const std::string& path) const {
  // A 30 s serve_short phase records about a million spans (most are
  // pending polls); the file keeps the first kMaxWritten of them.
  constexpr std::size_t kMaxWritten = 100'000;
  std::ofstream out(path);
  char line[256];
  for (std::size_t i = 0; i < std::min(spans_.size(), kMaxWritten); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"id\": %llu, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                  "\"parent\": %llu, \"job\": %llu}\n",
                  static_cast<unsigned long long>(s.id), s.name, s.start, s.end,
                  static_cast<unsigned long long>(s.parent), static_cast<unsigned long long>(s.job));
    out << line;
  }
}

// --- metrics ----------------------------------------------------------------

namespace {

void add_window(const PhaseStats& p, Metrics& out) {
  const auto rate = [](double n, double s) { return s > 0.0 ? n / s : 0.0; };
  out["sim_mips"] = {rate(static_cast<double>(p.instructions), p.job_time_s) / 1e6, "Minstr/s"};
  out["jobs_per_s"] = {rate(static_cast<double>(p.jobs), p.job_time_s), "1/s"};
  out["job_latency_p50_ms"] = {p.job_latency_ms.pct(0.50), "ms"};
  out["job_latency_p95_ms"] = {p.job_latency_ms.pct(0.95), "ms"};
  out["images_per_s"] = {rate(static_cast<double>(p.images), p.build_time_s), "1/s"};
  out["build_latency_p50_ms"] = {p.build_latency_ms.pct(0.50), "ms"};
  out["build_latency_p95_ms"] = {p.build_latency_ms.pct(0.95), "ms"};
  out["pipeline_cpi"] = {p.pipe_instructions > 0 ? static_cast<double>(p.pipe_cycles) /
                                                       static_cast<double>(p.pipe_instructions)
                                                 : 0.0,
                         "cycles/instr"};
}

}  // namespace

void add_end_to_end(const Windows& windows, Metrics& out) {
  std::map<std::string, Samples> per_metric;
  for (const PhaseStats& w : windows) {
    Metrics one;
    add_window(w, one);
    for (const auto& [name, metric] : one) {
      per_metric[name].add(metric.value);
      out[name].unit = metric.unit;
    }
  }
  // The host drifts over seconds (co-tenants), so each metric reports its
  // better quartile over windows: what the code sustains in the
  // quieter stretches of the run, which repeats far better across runs
  // than the mean of quiet and busy stretches.
  for (const auto& [name, samples] : per_metric) {
    const bool higher_is_better = name == "sim_mips" || name == "jobs_per_s" || name == "images_per_s";
    out[name].value = samples.pct(higher_is_better ? 0.75 : 0.25);
  }
}

void count_operations(const Windows& windows, Report& report) {
  for (const PhaseStats& w : windows) {
    report.attempted += w.attempted;
    report.failed += w.failed;
  }
}

void add_trace_metrics(double untraced_rate, double traced_rate, double unaccounted,
                       Metrics& out) {
  out["trace.unaccounted_frac"] = {unaccounted, "fraction"};
  out["trace.overhead_frac"] = {untraced_rate > 0.0 ? 1.0 - traced_rate / untraced_rate : 0.0,
                                "fraction"};
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

// --- corpus and oracle ------------------------------------------------------

std::vector<std::string> corpus_names() { return {"bubble", "gemm", "sobel", "dhrystone"}; }

std::string corpus_source(const std::string& name) {
  if (name == "bubble") return core::bubble_sort().rv32;
  if (name == "gemm") return core::gemm().rv32;
  if (name == "sobel") return core::sobel().rv32;
  return core::dhrystone().rv32;
}

std::string dhrystone_source(int iters) {
  std::string src = core::dhrystone().rv32;
  const std::string from = ".equ ITERS, " + std::to_string(core::kDhrystoneIterations) + "\n";
  const std::size_t at = src.find(from);
  if (at == std::string::npos) throw std::runtime_error("dhrystone source has no ITERS line");
  return src.replace(at, from.size(), ".equ ITERS, " + std::to_string(iters) + "\n");
}

BuiltProgram build_program(const std::string& name, const std::string& rv32_source) {
  BuiltProgram out;
  out.name = name;
  out.rv32_source = rv32_source;
  const art9::rv32::Rv32Program program = art9::rv32::assemble_rv32(rv32_source);
  out.rv32 = art9::rv32::decode(program);
  out.translation = art9::xlat::SoftwareFramework().translate(program);
  out.art9 = sim::decode(out.translation.program);
  return out;
}

std::string generated_source(std::mt19937_64& rng) {
  core::Rv32GenOptions options;
  options.min_length = 200;
  options.max_length = 400;
  options.max_registers = 8;
  return core::generate_rv32_source(rng, options);
}

uint64_t state_digest(const sim::MachineState& state) {
  const std::vector<uint8_t> blob = sim::serialize_snapshot(state);
  return art9::serve::fnv1a_64(blob.data(), blob.size());
}

namespace {

int64_t word_at(const sim::MachineState& state, uint32_t address) {
  if (state.is_rv32()) {
    const std::vector<uint8_t>& ram = state.rv32().ram;
    if (address + 4 > ram.size()) return INT64_MIN;
    uint32_t v = 0;
    for (uint32_t i = 0; i < 4; ++i) v |= static_cast<uint32_t>(ram[address + i]) << (8 * i);
    return static_cast<int32_t>(v);
  }
  return state.art9().tdm.peek(address).to_int();
}

std::string check_words(const sim::MachineState& state, uint32_t base,
                        const std::vector<int32_t>& want, const char* what) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    const int64_t got = word_at(state, base + static_cast<uint32_t>(4 * i));
    if (got != want[i]) {
      return std::string(what) + "[" + std::to_string(i) + "] = " + std::to_string(got) +
             ", host reference " + std::to_string(want[i]);
    }
  }
  return {};
}

}  // namespace

std::string check_host_reference(const std::string& name, const sim::MachineState& state) {
  if (name == "bubble") return check_words(state, core::kBubbleArrayAddr, core::bubble_expected(), "bubble");
  if (name == "gemm") return check_words(state, core::kGemmCAddr, core::gemm_expected(), "gemm C");
  if (name == "sobel") return check_words(state, core::kSobelOutAddr, core::sobel_expected(), "sobel");
  if (name.rfind("dhrystone", 0) == 0) {
    return check_words(state, core::kDhrystoneChecksumAddr, {core::dhrystone_expected_checksum()},
                       "dhrystone checksum");
  }
  return {};
}

std::string check_translation(const BuiltProgram& program, const sim::MachineState& rv32,
                              const sim::MachineState& art9) {
  const sim::ArchState& t9 = art9.art9();
  const art9::rv32::Rv32ArchState& native = rv32.rv32();
  for (int reg : {0, 10, 11, 12, 13, 14, 5, 6, 7, 18, 19}) {
    const art9::xlat::Location& loc = program.translation.location(reg);
    int64_t got = 0;
    switch (loc.kind) {
      case art9::xlat::Location::Kind::kZero: got = 0; break;
      case art9::xlat::Location::Kind::kReg:
      case art9::xlat::Location::Kind::kLink: got = t9.trf.read(loc.reg).to_int(); break;
      case art9::xlat::Location::Kind::kSpill: got = t9.tdm.peek(loc.slot).to_int(); break;
    }
    const auto want = static_cast<int32_t>(native.regs[static_cast<std::size_t>(reg)]);
    if (got != want) {
      return program.name + ": x" + std::to_string(reg) + " translated " + std::to_string(got) +
             " vs rv32 " + std::to_string(want);
    }
  }
  for (uint32_t slot = 0; slot < 16; ++slot) {
    const int64_t got = word_at(art9, slot * 4);
    const int64_t want = word_at(rv32, slot * 4);
    if (got != want) {
      return program.name + ": memory slot " + std::to_string(slot) + " translated " +
             std::to_string(got) + " vs rv32 " + std::to_string(want);
    }
  }
  return {};
}

std::unique_ptr<sim::Engine> engine_for(sim::EngineKind kind, const BuiltProgram& program) {
  sim::EngineOptions options;
  options.pipeline.max_cycles = kBudget;
  return sim::is_rv32(kind) ? sim::make_engine(kind, program.rv32, options)
                            : sim::make_engine(kind, program.art9, options);
}

sim::RunResult run_to_halt(sim::EngineKind kind, const BuiltProgram& program) {
  return engine_for(kind, program)->run({.max_steps = kBudget});
}

}  // namespace perfbench
