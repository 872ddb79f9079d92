// toolchain_cold: the software framework dominates.  One thread turns a
// seeded stream of distinct generated programs, with the four corpus
// sources recurring every fourth build, into runnable images of both
// ISAs: ImageCache::put in the rv32 and rv32_translate formats (default
// 64 MiB budget, so ART-9 images get evicted) and the first make_engine
// of rv32_superblock / superblock, which builds the superblock plan.
// No engine runs inside the build timing; each fresh image's first run
// (rv32_superblock, superblock, pipeline_packed) is timed separately as
// this workload's jobs, then checked against the rv32 run of the same
// source outside both timings.
#include "common.hpp"
#include "rv32/rv32_assembler.hpp"
#include "rv32/rv32_superblock.hpp"
#include "serve/image_cache.hpp"
#include "sim/superblock.hpp"

namespace perfbench {

namespace sim = art9::sim;
namespace serve = art9::serve;

namespace {

struct Corpus {
  std::vector<BuiltProgram> programs;
  std::vector<sim::MachineState> rv32, art9;  // golden final states
};

void setup_corpus(const Options& o, Corpus& c) {
  c = Corpus{};
  for (const std::string& name : corpus_names()) {
    BuiltProgram p = build_program(name, corpus_source(name));
    sim::RunResult rv = run_to_halt(sim::EngineKind::kRv32, p);
    sim::RunResult a9 = run_to_halt(sim::EngineKind::kFunctional, p);
    for (const sim::RunResult* r : {&rv, &a9}) {
      const std::string bad = check_host_reference(name, r->state);
      if (!bad.empty()) throw std::runtime_error("golden run: " + bad);
    }
    if (o.corrupt_golden) {
      auto regs = std::move(rv.state).rv32();
      regs.regs[10] ^= 1;
      rv.state = sim::MachineState(std::move(regs));
    }
    c.rv32.push_back(std::move(rv.state));
    c.art9.push_back(std::move(a9.state));
    c.programs.push_back(std::move(p));
  }
}

/// The pipeline kinds keep their own memory-access accounting and halt
/// PC convention, so a pipeline state matches a functional one in
/// registers and data contents (the generator's 16 slots and the spill
/// slots), not in counters or PC.
bool same_registers_and_data(const sim::MachineState& a, const sim::MachineState& b) {
  const sim::ArchState& x = a.art9();
  const sim::ArchState& y = b.art9();
  if (!(x.trf == y.trf)) return false;
  for (int64_t address = -256; address < 256; ++address) {
    if (!(x.tdm.peek(address) == y.tdm.peek(address))) return false;
  }
  return true;
}

struct CacheTimes {
  Samples put_hit, put_miss;
  // Sources for the stage replay: the first 64, then every 16th up to 256
  // (keeping all of them would grow the process by the whole stream).
  std::vector<std::string> sources;
};

constexpr int kBuildsPerWindow = 200;

/// Builds sources until `seconds` of wall time (at least `min_builds`),
/// one window per kBuildsPerWindow builds.
Windows build_stream(const Corpus& c, serve::ImageCache& cache,
                        std::mt19937_64& rng, double seconds, int min_builds, Tracer* tracer,
                        CacheTimes& times) {
  Tracer::Log log(tracer);
  Windows windows(1);
  const double t_start = now_s();
  for (int i = 0; since(t_start) < seconds || i < min_builds; ++i) {
    if (i > 0 && i % kBuildsPerWindow == 0) windows.emplace_back();
    PhaseStats& st = windows.back();
    const bool corpus = i % 4 == 3;
    const std::size_t ci = static_cast<std::size_t>(i / 4) % c.programs.size();
    const std::string source = corpus ? c.programs[ci].rv32_source : generated_source(rng);
    const std::size_t kept = times.sources.size();
    if (kept < 64 || (i % 16 == 0 && kept < 256)) times.sources.push_back(source);
    ++st.attempted;

    // --- timed build: source -> runnable images of both ISAs ---------------
    const uint64_t build = log.reserve();
    const double b0 = now_s();
    const serve::ImageCache::Put put_rv = cache.put(serve::ImageFormat::kRv32Asm, source);
    const double b1 = now_s();
    const serve::ImageCache::Put put_a9 = cache.put(serve::ImageFormat::kRv32Translate, source);
    const double b2 = now_s();
    const std::optional<sim::EngineImage> img_rv = cache.get(put_rv.id);
    const std::optional<sim::EngineImage> img_a9 = cache.get(put_a9.id);
    const double b3 = now_s();
    std::unique_ptr<sim::Engine> e_rv = sim::make_engine(sim::EngineKind::kRv32Superblock, *img_rv);
    const double b4 = now_s();
    std::unique_ptr<sim::Engine> e_a9 = sim::make_engine(sim::EngineKind::kSuperblock, *img_a9);
    const double b5 = now_s();
    st.build_latency_ms.add((b5 - b0) * 1e3);
    st.build_time_s += b5 - b0;
    st.images += 2;
    (put_rv.hit ? times.put_hit : times.put_miss).add(b1 - b0);
    (put_a9.hit ? times.put_hit : times.put_miss).add(b2 - b1);
    log.add_with_id(build, "build", b0, b5, 0, build);
    log.add("serve.cache_put.rv32", b0, b1, build, build);
    log.add("serve.cache_put.rv32_translate", b1, b2, build, build);
    log.add("serve.cache_get", b2, b3, build, build);
    log.add("sim.make_engine.rv32_superblock", b3, b4, build, build);
    log.add("sim.make_engine.superblock", b4, b5, build, build);

    // --- the first job on each fresh image --------------------------------
    std::unique_ptr<sim::Engine> e_pipe;
    std::array<sim::RunResult, 3> runs;
    for (int j = 0; j < 3; ++j) {
      const uint64_t job = log.reserve();
      const double j0 = now_s();
      if (j == 2) {
        sim::EngineOptions options;
        options.pipeline.max_cycles = kBudget;
        e_pipe = sim::make_engine(sim::EngineKind::kPackedPipeline, *img_a9, options);
      }
      sim::Engine& e = j == 0 ? *e_rv : j == 1 ? *e_a9 : *e_pipe;
      const double j1 = now_s();
      runs[j].stats = e.run_stats({.max_steps = kBudget});
      const double j2 = now_s();
      runs[j].state = e.state();
      const double j3 = now_s();
      st.job_latency_ms.add((j3 - j0) * 1e3);
      st.job_time_s += j3 - j0;
      st.instructions += runs[j].stats.instructions;
      log.add_with_id(job, "job", j0, j3, 0, job);
      log.add("sim.make_engine", j0, j1, job, job);
      log.add("sim.run_stats", j1, j2, job, job);
      log.add("sim.state", j2, j3, job, job);
    }
    st.pipe_cycles += runs[2].stats.cycles;
    st.pipe_instructions += runs[2].stats.instructions;

    // --- oracle, outside both timings ------------------------------------
    std::string why;
    for (const sim::RunResult& r : runs) {
      if (r.stats.halt != sim::HaltReason::kHalted) why = "a first run did not halt";
    }
    if (why.empty() && runs[2].stats.instructions != runs[1].stats.instructions) {
      why = "pipeline retired a different instruction count than superblock";
    } else if (why.empty() && !same_registers_and_data(runs[2].state, runs[1].state)) {
      why = "pipeline final registers or data differ from superblock";
    } else if (why.empty() && corpus) {
      if (!(runs[0].state == c.rv32[ci])) why = "rv32 state differs from golden";
      else if (!(runs[1].state == c.art9[ci])) why = "translated state differs from golden";
      else why = check_host_reference(c.programs[ci].name, runs[1].state);
    } else if (why.empty()) {
      BuiltProgram p;
      p.name = "generated program " + std::to_string(i);
      p.translation = art9::xlat::SoftwareFramework().translate_source(source);
      why = check_translation(p, runs[0].state, runs[1].state);
    }
    if (!why.empty()) {
      if (++st.failed == 1) std::fprintf(stderr, "toolchain_cold: %s\n", why.c_str());
    } else {
      st.jobs += 3;
    }
  }
  if (tracer != nullptr) tracer->merge(log);
  // A short last window would read noisier than the rest; fold it in.
  if (windows.size() > 1 && windows.back().attempted < kBuildsPerWindow / 2) {
    const PhaseStats last = windows.back();
    windows.pop_back();
    PhaseStats& w = windows.back();
    w.jobs += last.jobs;
    w.job_time_s += last.job_time_s;
    w.instructions += last.instructions;
    w.pipe_cycles += last.pipe_cycles;
    w.pipe_instructions += last.pipe_instructions;
    w.job_latency_ms.append(last.job_latency_ms);
    w.images += last.images;
    w.build_time_s += last.build_time_s;
    w.build_latency_ms.append(last.build_latency_ms);
    w.attempted += last.attempted;
    w.failed += last.failed;
  }
  return windows;
}

/// Replays the source-to-image stages (assemble, translate, decode and
/// superblock plan of both ISAs) on `sources`; per-program means.
void replay_build_stages(const std::vector<std::string>& sources, Metrics& out) {
  Samples assemble, translate, decode9, decode32, plan9, plan32;
  const art9::xlat::SoftwareFramework framework;
  for (const std::string& source : sources) {
    const double t0 = now_s();
    const art9::rv32::Rv32Program program = art9::rv32::assemble_rv32(source);
    const double t1 = now_s();
    const art9::xlat::TranslationResult xlat = framework.translate(program);
    const double t2 = now_s();
    const auto image9 = sim::decode(xlat.program);
    const double t3 = now_s();
    const auto image32 = art9::rv32::decode(program);
    const double t4 = now_s();
    (void)image9->superblocks();
    const double t5 = now_s();
    (void)image32->superblocks();
    const double t6 = now_s();
    assemble.add(t1 - t0);
    translate.add(t2 - t1);
    decode9.add(t3 - t2);
    decode32.add(t4 - t3);
    plan9.add(t5 - t4);
    plan32.add(t6 - t5);
  }
  out["rv32.assemble_us"] = {assemble.mean() * 1e6, "us"};
  out["xlat.translate_us"] = {translate.mean() * 1e6, "us"};
  out["sim.decode_us"] = {decode9.mean() * 1e6, "us"};
  out["rv32.decode_us"] = {decode32.mean() * 1e6, "us"};
  out["sim.superblock_plan_us"] = {plan9.mean() * 1e6, "us"};
  out["rv32.superblock_plan_us"] = {plan32.mean() * 1e6, "us"};
}

}  // namespace

void toolchain_layers(const Options& o, int builds, Metrics& out) {
  Corpus c;
  setup_corpus(o, c);
  serve::ImageCache cache;  // the default 64 MiB budget
  std::mt19937_64 rng(o.seed * 15485863 + 5);
  CacheTimes times;
  (void)build_stream(c, cache, rng, 0.0, builds, nullptr, times);
  const serve::ImageCache::Stats cs = cache.stats();
  out["serve.cache_put_miss_us"] = {times.put_miss.mean() * 1e6, "us"};
  out["serve.cache_put_hit_us"] = {times.put_hit.mean() * 1e6, "us"};
  out["serve.cache_hit_ratio"] = {
      static_cast<double>(cs.hits) / static_cast<double>(std::max<uint64_t>(1, cs.hits + cs.misses)),
      "fraction"};
  out["serve.cache_evictions"] = {static_cast<double>(cs.evictions), "count"};
  // Stage replay over (at most) 64 of the sources, spread over the stream.
  std::vector<std::string> sample;
  const std::size_t step = std::max<std::size_t>(1, times.sources.size() / 64);
  for (std::size_t i = 0; i < times.sources.size(); i += step) sample.push_back(times.sources[i]);
  replay_build_stages(sample, out);
}

void run_toolchain_cold(const Options& o, Tracer& tracer, Report& report) {
  Corpus c;
  const double setup_s = timed_setups(o, [&] { setup_corpus(o, c); });
  const double seconds = o.smoke ? 0.0 : (o.trace ? o.seconds / 2 : o.seconds);
  const int min_builds = o.smoke ? 8 : 1;

  serve::ImageCache cache;  // the default 64 MiB budget
  std::mt19937_64 rng(o.seed);
  CacheTimes times;
  const Windows plain = build_stream(c, cache, rng, seconds, min_builds, nullptr, times);
  count_operations(plain, report);
  if (!o.trace) {
    add_end_to_end(plain, report.metrics);
    report.metrics["setup_s"] = {setup_s, "s"};
    report.metrics["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
    return;
  }

  serve::ImageCache traced_cache;
  const Windows traced = build_stream(c, traced_cache, rng, seconds, min_builds, &tracer, times);
  count_operations(traced, report);
  const auto rate = [](const PhaseStats& p) {
    return p.build_time_s > 0.0 ? static_cast<double>(p.images) / p.build_time_s : 0.0;
  };
  add_trace_metrics(median_over(plain, rate), median_over(traced, rate),
                    tracer.unaccounted_frac("build"), report.metrics);
}

}  // namespace perfbench
