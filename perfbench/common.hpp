// Shared plumbing of the layered benchmark: timing, sample statistics,
// the in-memory span log, the metric table, the corpus and its
// correctness oracle.  Everything here calls the repository's public
// module APIs only; no tracing lives inside the program.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "rv32/rv32_decoded_image.hpp"
#include "sim/decoded_image.hpp"
#include "sim/engine.hpp"
#include "xlat/framework.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the process-wide epoch (the first call).
double now_s();

/// Elapsed seconds since `start` (a now_s() value).
inline double since(double start) { return now_s() - start; }

/// A bag of samples with nearest-rank percentiles.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  /// Nearest-rank percentile, p in [0, 1]; 0 when empty.
  [[nodiscard]] double pct(double p) const;
  [[nodiscard]] double median() const { return pct(0.5); }

 private:
  std::vector<double> values_;
};

/// Run parameters shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;          // a few operations per phase, one set-up
  bool corrupt_golden = false; // self-test: a wrong expected digest must fail
  std::string trace_out;       // span file written at the end (trace runs)
  unsigned nproc = 1;
};

// --- spans ------------------------------------------------------------------

/// One timed interval at a layer boundary.  `parent` is the id of the
/// span that caused it (0 = root); spans of one job share `job`.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t job = 0;
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  [[nodiscard]] double dur() const { return end - start; }
};

/// Append-only span store.  Each thread records into its own Log and
/// hands it to the Tracer when done, so recording takes no lock.
class Tracer {
 public:
  class Log {
   public:
    explicit Log(Tracer* tracer) : tracer_(tracer) {}
    [[nodiscard]] bool on() const noexcept { return tracer_ != nullptr; }
    /// Records a finished span and returns its id (0 when tracing is off).
    uint64_t add(const char* name, double start, double end, uint64_t parent, uint64_t job);
    /// Reserves an id for a span whose interval is known only later.
    uint64_t reserve();
    void add_with_id(uint64_t id, const char* name, double start, double end, uint64_t parent,
                     uint64_t job);
    std::vector<Span>& spans() { return spans_; }

   private:
    Tracer* tracer_;
    std::vector<Span> spans_;
  };

  uint64_t next_id();
  void merge(Log& log);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// 1 - Σ(child span time) / Σ(root span time) over roots named `root`.
  [[nodiscard]] double unaccounted_frac(const char* root) const;

  /// Writes one JSON object per span (name, start, end, parent, job).
  void write(const std::string& path) const;

 private:
  std::mutex mutex_;
  uint64_t next_ = 1;
  std::vector<Span> spans_;
};

// --- metrics ----------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

using Metrics = std::map<std::string, Metric>;

/// The result of one phase of a workload, from which the end-to-end
/// metrics derive identically on every workload.
struct PhaseStats {
  uint64_t jobs = 0;           // simulation jobs finished and verified
  double job_time_s = 0.0;     // the interval the jobs ran in
  uint64_t instructions = 0;   // retired by those jobs
  uint64_t pipe_cycles = 0;    // cycle-accurate jobs: simulated cycles
  uint64_t pipe_instructions = 0;
  Samples job_latency_ms;
  uint64_t images = 0;         // runnable images produced from source
  double build_time_s = 0.0;   // the interval the images were built in
  Samples build_latency_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// A phase is measured as a series of windows (epochs, cycle rounds or
/// build batches); each metric is taken per window and the better
/// quartile over windows is reported, so stretches of host interference
/// move some windows, not the result.
using Windows = std::vector<PhaseStats>;

/// Adds the end-to-end metric set (everything but setup_s/peak_rss_mb).
void add_end_to_end(const Windows& windows, Metrics& out);

/// Median over windows of `rate(window)`.
template <typename Fn>
double median_over(const Windows& windows, Fn&& rate) {
  Samples s;
  for (const PhaseStats& w : windows) s.add(rate(w));
  return s.median();
}

struct Report;

/// Adds the windows' attempted and failed operations to `report`.
void count_operations(const Windows& windows, Report& report);

/// Process high-water resident set (VmHWM), MiB.
double peak_rss_mb();

// --- corpus and oracle ------------------------------------------------------

/// One program in both runnable forms.
struct BuiltProgram {
  std::string name;
  std::string rv32_source;
  std::shared_ptr<const art9::rv32::Rv32DecodedImage> rv32;
  std::shared_ptr<const art9::sim::DecodedImage> art9;
  art9::xlat::TranslationResult translation;  // register map for the oracle
};

/// The four corpus programs, unmodified (bubble, gemm, sobel, dhrystone).
std::vector<std::string> corpus_names();
std::string corpus_source(const std::string& name);

/// Dhrystone with ITERS replaced (the checksum does not depend on it).
std::string dhrystone_source(int iters);

/// Assemble + decode (rv32) and assemble + translate + decode (ART-9).
BuiltProgram build_program(const std::string& name, const std::string& rv32_source);

/// Seeded long straight-line/loop program from the rv32 generator.
std::string generated_source(std::mt19937_64& rng);

/// FNV-1a of the canonical snapshot bytes (the art9-serve state_digest).
uint64_t state_digest(const art9::sim::MachineState& state);

/// Host-reference check of a corpus program's outputs (bubble, gemm,
/// sobel, dhrystone*) in a finished state of either ISA.  Empty string
/// when correct, else what differs.  Other programs pass trivially.
std::string check_host_reference(const std::string& name, const art9::sim::MachineState& state);

/// Translated run vs rv32 run of the same source: every register the
/// generator touches (through the register map) and the 16 data slots.
std::string check_translation(const BuiltProgram& program, const art9::sim::MachineState& rv32,
                              const art9::sim::MachineState& art9);

/// Step budget of every run here: far above any job's length, so every
/// job halts on its own.
inline constexpr uint64_t kBudget = 1'000'000'000;

/// An engine of `kind` over the program's image of matching ISA, with the
/// pipeline cycle cap lifted to kBudget.
std::unique_ptr<art9::sim::Engine> engine_for(art9::sim::EngineKind kind,
                                              const BuiltProgram& program);

/// Runs `kind` over the program's image of matching ISA to completion.
art9::sim::RunResult run_to_halt(art9::sim::EngineKind kind, const BuiltProgram& program);

/// Median of several set-up repetitions, in seconds.
template <typename Fn>
double timed_setups(const Options& options, Fn&& setup) {
  Samples times;
  const int reps = options.smoke ? 1 : 5;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    setup();
    times.add(since(t0));
  }
  return times.median();
}

// --- workloads --------------------------------------------------------------

/// What a workload run reports: end-to-end or per-layer metrics (per
/// --trace), plus the operation counts of the result line.
struct Report {
  Metrics metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void run_sim_long(const Options& options, Tracer& tracer, Report& report);
void run_serve_short(const Options& options, Tracer& tracer, Report& report);
void run_toolchain_cold(const Options& options, Tracer& tracer, Report& report);

/// The layer replays every traced run reports, whatever its workload:
/// ternary kernels, the engine x corpus matrix, engine construction,
/// state, snapshot and digest costs, the build stages, the image cache,
/// the service and the HTTP routes.  They are the only source of the
/// per-layer metrics; a workload's traced phase adds just trace.*.
void probe_layers(const Options& options, Metrics& out);

/// Runs `builds` builds of the toolchain_cold stream through a
/// default-budget ImageCache and reports the cache and build-stage
/// layer metrics.
void toolchain_layers(const Options& options, int builds, Metrics& out);

/// Sets trace.unaccounted_frac and trace.overhead_frac, the latter from
/// the workload's primary rate with tracing off and on.
void add_trace_metrics(double untraced_rate, double traced_rate, double unaccounted,
                       Metrics& out);

}  // namespace perfbench
