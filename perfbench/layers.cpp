// The layer replays every traced run reports, whatever its workload:
// each one times calls into one module's public functions, on the
// corpus, so a per-layer number always has the same meaning.
#include <algorithm>
#include <thread>

#include "common.hpp"
#include "serve/image_cache.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "sim/fleet.hpp"
#include "sim/service.hpp"
#include "sim/snapshot.hpp"
#include "ternary/bitsliced.hpp"
#include "ternary/packed.hpp"

namespace perfbench {

namespace sim = art9::sim;
namespace serve = art9::serve;
namespace ternary = art9::ternary;

namespace {

/// Median seconds of `reps` calls of `fn`.
template <typename Fn>
double median_time(int reps, Fn&& fn) {
  Samples s;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    fn();
    s.add(since(t0));
  }
  return s.median();
}

void probe_ternary(const Options& o, Metrics& out) {
  std::mt19937_64 rng(o.seed);
  constexpr std::size_t kWords = 4096;
  std::vector<ternary::BctWord9> words(kWords);
  for (auto& w : words) w = ternary::packed::from_int(static_cast<int32_t>(rng() % 19683) - 9841);
  std::vector<ternary::bitsliced::SlicedWord9> sliced(kWords / 32);
  for (std::size_t i = 0; i < sliced.size(); ++i) {
    for (unsigned lane = 0; lane < 32; ++lane) {
      ternary::bitsliced::insert_lane(sliced[i], lane, words[i * 32 + lane]);
    }
  }
  const int rounds = o.smoke ? 4 : 64;
  const double packed_s = median_time(5, [&] {
    ternary::BctWord9 acc = words[0];
    for (int r = 0; r < rounds; ++r) {
      for (const auto& w : words) acc = ternary::packed::add(acc, w);
    }
    words[0] = acc;
  });
  const double sliced_s = median_time(5, [&] {
    ternary::bitsliced::SlicedWord9 acc = sliced[0];
    for (int r = 0; r < rounds; ++r) {
      for (const auto& w : sliced) acc = ternary::bitsliced::add(acc, w);
    }
    sliced[0] = acc;
  });
  const double adds = static_cast<double>(rounds) * kWords;  // lane-adds in both loops
  out["ternary.packed_add_mops"] = {adds / packed_s / 1e6, "Mop/s"};
  out["ternary.bitsliced_add_mops"] = {adds / sliced_s / 1e6, "Mop/s"};
}

/// The engine x corpus matrix, construction, state() and snapshot costs.
void probe_engines(const Options& o, const std::vector<BuiltProgram>& corpus, Metrics& out) {
  const int reps = o.smoke ? 1 : 5;
  for (const BuiltProgram& p : corpus) {
    for (sim::EngineKind kind : sim::all_engine_kinds()) {
      Samples run;
      uint64_t instructions = 0;
      for (int r = 0; r < reps; ++r) {
        std::unique_ptr<sim::Engine> e = engine_for(kind, p);
        const double t0 = now_s();
        instructions = e->run_stats({.max_steps = kBudget}).instructions;
        run.add(since(t0));
      }
      out["sim.run_mips." + std::string(sim::engine_kind_name(kind)) + "." + p.name] = {
          static_cast<double>(instructions) / run.median() / 1e6, "Minstr/s"};
    }
  }

  const BuiltProgram& dhry = corpus.back();
  const int many = o.smoke ? 3 : 41;
  for (sim::EngineKind kind : sim::all_engine_kinds()) {
    (void)engine_for(kind, dhry);  // superblock plans are built once per image
    out["sim.make_engine_us." + std::string(sim::engine_kind_name(kind))] = {
        median_time(many, [&] { (void)engine_for(kind, dhry); }) * 1e6, "us"};
  }
  struct Finished {
    const char* isa;
    sim::EngineKind kind;
  };
  for (const Finished f : {Finished{"art9", sim::EngineKind::kSuperblock},
                           Finished{"rv32", sim::EngineKind::kRv32Superblock},
                           Finished{"fleet", sim::EngineKind::kFleet}}) {
    std::unique_ptr<sim::Engine> e = engine_for(f.kind, dhry);
    (void)e->run_stats({.max_steps = kBudget});
    sim::MachineState state;
    out[std::string("sim.state_us.") + f.isa] = {
        median_time(many, [&] { state = e->state(); }) * 1e6, "us"};
    if (f.kind == sim::EngineKind::kFleet) continue;
    std::vector<uint8_t> blob;
    out[std::string("sim.snapshot_serialize_us.") + f.isa] = {
        median_time(many, [&] { blob = sim::serialize_snapshot(state); }) * 1e6, "us"};
    uint64_t digest = 0;
    out[std::string("serve.digest_us.") + f.isa] = {
        median_time(many, [&] { digest = serve::fnv1a_64(blob.data(), blob.size()); }) * 1e6,
        "us"};
    (void)digest;
  }
}

/// sim_long's engine kinds on long Dhrystone, one replay each.
void probe_long_kinds(const Options& o, Metrics& out) {
  const BuiltProgram p = build_program("dhrystone_long", dhrystone_source(o.smoke ? 500 : 9000));
  for (sim::EngineKind kind :
       {sim::EngineKind::kSuperblock, sim::EngineKind::kPacked, sim::EngineKind::kPackedPipeline,
        sim::EngineKind::kRv32Superblock, sim::EngineKind::kRv32, sim::EngineKind::kFleet}) {
    double seconds = 0.0;
    uint64_t instructions = 0;
    if (kind == sim::EngineKind::kFleet) {
      sim::FleetSimulator fleet(p.art9, sim::FleetSimulator::kMaxLanes);
      const double t0 = now_s();
      for (const auto& lane :
           fleet.advance(std::vector<uint64_t>(sim::FleetSimulator::kMaxLanes, kBudget))) {
        instructions += lane.instructions;
      }
      seconds = since(t0);
    } else {
      std::unique_ptr<sim::Engine> e = engine_for(kind, p);
      const double t0 = now_s();
      instructions = e->run_stats({.max_steps = kBudget}).instructions;
      seconds = since(t0);
    }
    out["sim.run_mips." + std::string(sim::engine_kind_name(kind)) + ".dhrystone_long"] = {
        static_cast<double>(instructions) / seconds / 1e6, "Minstr/s"};
  }
}

/// submit -> resolve through a two-worker service, less the same job
/// replayed directly (make_engine + run_stats + state()).
void probe_service(const Options& o, const std::vector<BuiltProgram>& corpus, Metrics& out) {
  sim::SimulationService service(2);
  Samples submit_us;
  Samples overhead_us;
  const int jobs = o.smoke ? 4 : 64;
  for (int i = 0; i < jobs; ++i) {
    const BuiltProgram& p = corpus[static_cast<std::size_t>(i) % corpus.size()];
    const sim::EngineKind kind =
        i % 2 == 0 ? sim::EngineKind::kSuperblock : sim::EngineKind::kRv32Superblock;
    sim::SimulationService::Job job;
    job.image = sim::is_rv32(kind) ? sim::EngineImage(p.rv32) : sim::EngineImage(p.art9);
    job.kind = kind;
    const double t0 = now_s();
    sim::JobHandle h = service.submit(job);
    const double t1 = now_s();
    h.wait();
    const double t2 = now_s();
    const double direct = median_time(3, [&] {
      std::unique_ptr<sim::Engine> e = engine_for(kind, p);
      (void)e->run_stats(job.run);
      (void)e->state();
    });
    submit_us.add((t1 - t0) * 1e6);
    overhead_us.add((t2 - t0 - direct) * 1e6);
  }
  out["service.submit_us"] = {submit_us.mean(), "us"};
  out["service.overhead_us"] = {overhead_us.median(), "us"};
}

serve::HttpRequest request(const std::string& method, const std::string& target,
                           std::string body = {}) {
  serve::HttpRequest r;
  r.method = method;
  r.target = target;
  r.version = "HTTP/1.1";
  r.body = std::move(body);
  return r;
}

/// A short closed loop over loopback: one client, bubble on rv32 and
/// translated images, busy-polling each job to done.
void probe_http(const Options& o, Metrics& out) {
  serve::SimulationServer::Options options;
  options.service_threads = 2;
  serve::SimulationServer server(options);
  server.start();
  serve::HttpClient client("127.0.0.1", server.port());
  Samples post_job, pending, done, cached, cold;
  uint64_t polls = 0;
  std::mt19937_64 rng(o.seed);
  const int jobs = o.smoke ? 4 : 48;
  for (int i = 0; i < jobs; ++i) {
    const bool rv32 = i % 2 == 0;
    const std::string format = rv32 ? "rv32" : "rv32_translate";
    if (i % 8 == 7) {
      const double t0 = now_s();
      (void)client.post("/v1/images?format=rv32_translate", generated_source(rng), "text/plain");
      cold.add(since(t0));
    }
    const double u0 = now_s();
    const serve::HttpResponse up =
        client.post("/v1/images?format=" + format, corpus_source("bubble"), "text/plain");
    (up.status == 200 ? cached : cold).add(since(u0));
    const std::string id = art9::json::parse_json(up.body).get_string("id", "");
    const double t0 = now_s();
    const serve::HttpResponse r = client.post(
        "/v1/jobs", "{\"image\": \"" + id + "\", \"engine\": \"" +
                        std::string(rv32 ? "rv32_superblock" : "superblock") + "\"}");
    post_job.add(since(t0));
    const std::string target =
        "/v1/jobs/" + std::to_string(art9::json::parse_json(r.body).get_uint64("job", 0));
    for (;;) {
      const double g0 = now_s();
      const serve::HttpResponse g = client.get(target);
      ++polls;
      if (g.body.find("\"state\": \"done\"") != std::string::npos || g.status != 200) {
        done.add(since(g0));
        break;
      }
      pending.add(since(g0));
    }
  }
  out["http.post_job_us"] = {post_job.mean() * 1e6, "us"};
  out["http.get_job_pending_us"] = {pending.mean() * 1e6, "us"};
  out["http.get_job_done_us"] = {done.mean() * 1e6, "us"};
  out["http.post_image_cached_us"] = {cached.mean() * 1e6, "us"};
  out["http.post_image_cold_us"] = {cold.mean() * 1e6, "us"};
  out["http.polls_per_job"] = {static_cast<double>(polls) / jobs, "count"};
}

/// Per-route cost of SimulationServer::handle (no socket), as
/// http.route_us.<route>, on a private server that is never started.
void measure_http_routes(const Options& o, Metrics& out) {
  serve::SimulationServer::Options options;
  options.service_threads = 2;
  serve::SimulationServer server(options);  // never started: handle() needs no socket
  const int reps = o.smoke ? 3 : 41;
  std::mt19937_64 rng(o.seed + 1);

  Samples cold;
  for (int r = 0; r < (o.smoke ? 2 : 8); ++r) {
    const serve::HttpRequest req =
        request("POST", "/v1/images?format=rv32_translate", generated_source(rng));
    const double t0 = now_s();
    (void)server.handle(req);
    cold.add(since(t0));
  }
  out["http.route_us.post_image_cold"] = {cold.median() * 1e6, "us"};

  const serve::HttpRequest upload = request("POST", "/v1/images?format=rv32", corpus_source("bubble"));
  const std::string id = art9::json::parse_json(server.handle(upload).body).get_string("id", "");
  out["http.route_us.post_image_cached"] = {
      median_time(reps, [&] { (void)server.handle(upload); }) * 1e6, "us"};

  const serve::HttpRequest post =
      request("POST", "/v1/jobs", "{\"image\": \"" + id + "\", \"engine\": \"rv32_superblock\"}");
  uint64_t last_job = 0;
  out["http.route_us.post_job"] = {median_time(reps, [&] {
                                     last_job = art9::json::parse_json(server.handle(post).body)
                                                    .get_uint64("job", 0);
                                   }) * 1e6,
                                   "us"};
  const serve::HttpRequest get_done = request("GET", "/v1/jobs/" + std::to_string(last_job));
  while (server.handle(get_done).body.find("\"state\": \"done\"") == std::string::npos) {
    std::this_thread::yield();
  }
  out["http.route_us.get_job_done"] = {
      median_time(reps, [&] { (void)server.handle(get_done); }) * 1e6, "us"};

  // A pending job to poll: long Dhrystone on the decode-on-fetch kind,
  // cancelled once timed.
  const serve::HttpRequest up_long = request("POST", "/v1/images?format=rv32_translate",
                                             dhrystone_source(9000));
  const std::string long_id =
      art9::json::parse_json(server.handle(up_long).body).get_string("id", "");
  const uint64_t long_job =
      art9::json::parse_json(
          server.handle(request("POST", "/v1/jobs",
                                "{\"image\": \"" + long_id + "\", \"engine\": \"lazy\"}"))
              .body)
          .get_uint64("job", 0);
  const serve::HttpRequest get_pending = request("GET", "/v1/jobs/" + std::to_string(long_job));
  out["http.route_us.get_job_pending"] = {
      median_time(reps, [&] { (void)server.handle(get_pending); }) * 1e6, "us"};
  (void)server.handle(request("DELETE", "/v1/jobs/" + std::to_string(long_job)));

  const serve::HttpRequest metrics = request("GET", "/v1/metrics");
  out["http.route_us.get_metrics"] = {
      median_time(reps, [&] { (void)server.handle(metrics); }) * 1e6, "us"};
}

}  // namespace

void probe_layers(const Options& o, Metrics& out) {
  probe_ternary(o, out);
  std::vector<BuiltProgram> corpus;
  for (const std::string& name : corpus_names()) {
    corpus.push_back(build_program(name, corpus_source(name)));
  }
  probe_engines(o, corpus, out);
  probe_long_kinds(o, out);
  probe_service(o, corpus, out);
  probe_http(o, out);
  measure_http_routes(o, out);
  out["http.transport_us"] = {out["http.get_job_pending_us"].value -
                                  out["http.route_us.get_job_pending"].value,
                              "us"};
  // 48 builds overflow the 64 MiB budget (ART-9 images are charged
  // ~1.9 MB), and corpus sources recur every 16 builds, so the replay
  // sees hits, misses and evictions.
  toolchain_layers(o, o.smoke ? 8 : 48, out);
}

}  // namespace perfbench
