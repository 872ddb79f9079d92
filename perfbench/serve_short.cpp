// serve_short: per-job fixed cost and the HTTP front end dominate.  An
// in-process SimulationServer on loopback serves nproc/2 closed-loop
// client connections with nproc/2 service workers.  Each client uploads
// the image (a cache hit after the first), POSTs a job for one of the
// four corpus programs on a seed-drawn engine of the image's ISA, and
// busy-polls GET /v1/jobs/{id} until it is done.  Every eighth operation
// uploads a freshly generated program instead, so the image cache sees
// misses beside the hits.
//
// The server keeps every finished job's record (and its final machine
// state) for its lifetime, so the loop runs in epochs of a fixed job
// count, each on a fresh server; restarts sit outside the timed region.
#include <algorithm>
#include <atomic>
#include <thread>

#include "common.hpp"
#include "serve/image_cache.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace sim = art9::sim;
namespace serve = art9::serve;

namespace {

constexpr int kDecksPerEpoch = 8;  // 8 x 40 (program, kind) jobs per epoch
constexpr int kNewUploadEvery = 8;

/// Expected result of one (program, kind) run, computed in set-up.
struct Golden {
  uint64_t digest = 0;
  uint64_t instructions = 0;
  uint64_t cycles = 0;
};

/// `corrupt` plants a wrong digest (the self-test's failure check).
Golden make_golden(const sim::RunResult& run, bool corrupt) {
  return Golden{state_digest(run.state) ^ (corrupt ? 1u : 0u), run.stats.instructions,
                run.stats.cycles};
}

struct Setup {
  std::vector<BuiltProgram> programs;  // the four corpus programs
  std::map<std::pair<std::size_t, sim::EngineKind>, Golden> golden;
  std::unique_ptr<serve::SimulationServer> server;  // the first epoch's server
};

std::unique_ptr<serve::SimulationServer> start_server(unsigned workers) {
  serve::SimulationServer::Options options;
  options.service_threads = workers;
  auto server = std::make_unique<serve::SimulationServer>(options);
  server->start();
  return server;
}

void setup(const Options& o, unsigned workers, Setup& s) {
  s.server.reset();
  s.programs.clear();
  s.golden.clear();
  for (const std::string& name : corpus_names()) {
    s.programs.push_back(build_program(name, corpus_source(name)));
  }
  for (std::size_t p = 0; p < s.programs.size(); ++p) {
    for (sim::EngineKind kind : sim::all_engine_kinds()) {
      const sim::RunResult run = run_to_halt(kind, s.programs[p]);
      const std::string bad = check_host_reference(s.programs[p].name, run.state);
      if (run.halt != sim::HaltReason::kHalted || !bad.empty()) {
        throw std::runtime_error("golden run of " + s.programs[p].name + " on " +
                                 std::string(sim::engine_kind_name(kind)) + ": " + bad);
      }
      s.golden[{p, kind}] = make_golden(run, o.corrupt_golden);
    }
  }
  s.server = start_server(workers);
}

/// One client operation: a job on a corpus program, or (program < 0) an
/// upload of a new generated program.
struct Op {
  int program = -1;
  sim::EngineKind kind{};
  std::string source;
};

std::vector<Op> make_epoch(std::mt19937_64& rng, std::size_t programs, int decks) {
  std::vector<Op> jobs;
  for (int d = 0; d < decks; ++d) {
    for (std::size_t p = 0; p < programs; ++p) {
      for (sim::EngineKind kind : sim::all_engine_kinds()) {
        jobs.push_back(Op{static_cast<int>(p), kind, {}});
      }
    }
  }
  std::shuffle(jobs.begin(), jobs.end(), rng);
  std::vector<Op> ops;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (i % (kNewUploadEvery - 1) == kNewUploadEvery - 2) {
      ops.push_back(Op{-1, {}, generated_source(rng)});
    }
    ops.push_back(std::move(jobs[i]));
  }
  return ops;
}

class Client {
 public:
  Client(const Setup& s, uint16_t port, Tracer* tracer) : s_(s), http_("127.0.0.1", port), log_(tracer) {}

  void run(const std::vector<Op>& ops, std::atomic<std::size_t>& next, PhaseStats& st) {
    for (std::size_t i = next++; i < ops.size(); i = next++) {
      const Op& op = ops[i];
      if (op.program < 0) {
        upload(serve::ImageFormat::kRv32Translate, op.source, st);
      } else {
        job(op, st);
      }
    }
  }

  Tracer::Log& log() { return log_; }

 private:
  /// POST /v1/images; returns the image id ("" on failure).
  std::string upload(serve::ImageFormat format, const std::string& source, PhaseStats& st) {
    ++st.attempted;
    const double t0 = now_s();
    serve::HttpResponse r;
    try {
      r = http_.post("/v1/images?format=" + std::string(serve::image_format_name(format)), source,
                     "text/plain");
    } catch (const std::exception& e) {
      return fail(st, std::string("upload transport: ") + e.what());
    }
    const double t1 = now_s();
    if (r.status != 200 && r.status != 201) return fail(st, "upload status " + std::to_string(r.status));
    ++st.images;
    st.build_latency_ms.add((t1 - t0) * 1e3);
    log_.add(r.status == 200 ? "http.post_image_cached" : "http.post_image_cold", t0, t1, 0, 0);
    return art9::json::parse_json(r.body).get_string("id", "");
  }

  std::string fail(PhaseStats& st, const std::string& why) {
    if (++st.failed == 1) std::fprintf(stderr, "serve_short: %s\n", why.c_str());
    return {};
  }

  void job(const Op& op, PhaseStats& st) {
    const BuiltProgram& p = s_.programs[static_cast<std::size_t>(op.program)];
    const serve::ImageFormat format = sim::is_rv32(op.kind) ? serve::ImageFormat::kRv32Asm
                                                            : serve::ImageFormat::kRv32Translate;
    const std::string image = upload(format, p.rv32_source, st);
    if (image.empty()) return;

    ++st.attempted;
    const uint64_t job = log_.reserve();
    const double t0 = now_s();
    serve::HttpResponse r;
    try {
      r = http_.post("/v1/jobs", "{\"image\": \"" + image + "\", \"engine\": \"" +
                                     std::string(sim::engine_kind_name(op.kind)) + "\"}");
      log_.add("http.post_job", t0, now_s(), job, job);
      if (r.status != 202) {
        fail(st, "POST /v1/jobs status " + std::to_string(r.status) + " " + r.body);
        return;
      }
      const std::string target =
          "/v1/jobs/" + std::to_string(art9::json::parse_json(r.body).get_uint64("job", 0));
      for (;;) {
        const double g0 = now_s();
        r = http_.get(target);
        const double g1 = now_s();
        if (r.status != 200) {
          fail(st, "GET job status " + std::to_string(r.status));
          return;
        }
        if (r.body.find("\"state\": \"done\"") == std::string::npos) {
          log_.add("http.get_job_pending", g0, g1, job, job);
          continue;
        }
        log_.add("http.get_job_done", g0, g1, job, job);
        log_.add_with_id(job, "job", t0, g1, 0, job);
        st.job_latency_ms.add((g1 - t0) * 1e3);
        break;
      }
    } catch (const std::exception& e) {
      fail(st, std::string("job transport: ") + e.what());
      return;
    }
    const double v0 = now_s();
    verify(op, r.body, st);
    log_.add("oracle.verify", v0, now_s(), 0, job);
  }

  void verify(const Op& op, const std::string& body, PhaseStats& st) {
    const Golden& g = s_.golden.at({static_cast<std::size_t>(op.program), op.kind});
    const art9::json::JsonValue doc = art9::json::parse_json(body);
    const art9::json::JsonValue* stats = doc.find("stats");
    const uint64_t instructions = stats ? stats->get_uint64("instructions", 0) : 0;
    const uint64_t cycles = stats ? stats->get_uint64("cycles", 0) : 0;
    std::string why;
    if (doc.get_string("outcome", "") != "completed") why = "outcome " + doc.get_string("outcome", "?");
    else if (doc.get_string("state_digest", "") != serve::hex64(g.digest)) why = "state_digest differs from golden";
    else if (instructions != g.instructions) why = "instruction count differs from golden";
    else if (cycles != g.cycles) why = "cycle count differs from golden";
    if (!why.empty()) {
      fail(st, s_.programs[static_cast<std::size_t>(op.program)].name + " on " +
                   std::string(sim::engine_kind_name(op.kind)) + ": " + why);
      return;
    }
    ++st.jobs;
    st.instructions += instructions;
    if (sim::is_cycle_accurate(op.kind)) {
      st.pipe_cycles += cycles;
      st.pipe_instructions += instructions;
    }
  }

  const Setup& s_;
  serve::HttpClient http_;
  Tracer::Log log_;
};

Windows run_phase(const Options& o, Setup& s, unsigned clients, unsigned workers, double seconds,
                  Tracer* tracer) {
  Windows epochs;
  std::mt19937_64 rng(o.seed * 104729 + 3);
  const int decks = o.smoke ? 1 : kDecksPerEpoch;
  double timed = 0.0;
  do {
    std::unique_ptr<serve::SimulationServer> server =
        s.server ? std::move(s.server) : start_server(workers);
    const std::vector<Op> ops = make_epoch(rng, s.programs.size(), decks);
    std::atomic<std::size_t> next{0};
    std::vector<PhaseStats> stats(clients);
    std::vector<std::unique_ptr<Client>> conns;
    for (unsigned c = 0; c < clients; ++c) {
      conns.push_back(std::make_unique<Client>(s, server->port(), tracer));
    }
    const double t0 = now_s();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] { conns[c]->run(ops, next, stats[c]); });
    }
    for (std::thread& t : threads) t.join();
    const double dt = since(t0);
    timed += dt;
    PhaseStats dst;
    dst.job_time_s = dt;
    dst.build_time_s = dt;
    for (unsigned c = 0; c < clients; ++c) {
      if (tracer != nullptr) tracer->merge(conns[c]->log());
      const PhaseStats& src = stats[c];
      dst.jobs += src.jobs;
      dst.instructions += src.instructions;
      dst.pipe_cycles += src.pipe_cycles;
      dst.pipe_instructions += src.pipe_instructions;
      dst.job_latency_ms.append(src.job_latency_ms);
      dst.images += src.images;
      dst.build_latency_ms.append(src.build_latency_ms);
      dst.attempted += src.attempted;
      dst.failed += src.failed;
    }
    epochs.push_back(std::move(dst));
  } while (timed < seconds);
  return epochs;
}

}  // namespace

void run_serve_short(const Options& o, Tracer& tracer, Report& report) {
  const unsigned clients = std::max(1u, o.nproc / 2);
  const unsigned workers = std::max(1u, o.nproc / 2);
  Setup s;
  const double setup_s = timed_setups(o, [&] { setup(o, workers, s); });
  const double seconds = o.smoke ? 0.0 : (o.trace ? o.seconds / 2 : o.seconds);

  const Windows plain = run_phase(o, s, clients, workers, seconds, nullptr);
  count_operations(plain, report);
  if (!o.trace) {
    add_end_to_end(plain, report.metrics);
    report.metrics["setup_s"] = {setup_s, "s"};
    report.metrics["peak_rss_mb"] = {peak_rss_mb(), "MiB"};
    return;
  }

  const Windows traced = run_phase(o, s, clients, workers, seconds, &tracer);
  count_operations(traced, report);
  const auto rate = [](const PhaseStats& p) {
    return p.job_time_s > 0.0 ? static_cast<double>(p.jobs) / p.job_time_s : 0.0;
  };
  add_trace_metrics(median_over(plain, rate), median_over(traced, rate),
                    tracer.unaccounted_frac("job"), report.metrics);
}

}  // namespace perfbench
