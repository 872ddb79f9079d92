// SimulationServer: the HTTP simulation-as-a-service front end — the
// ROADMAP's "network face on SimulationService", mapping the async
// scheduler 1:1 onto a small REST surface:
//
//   POST   /v1/images?format=art9|rv32|rv32_translate
//            body = assembly text -> {"id": <content hash>, ...}
//            (ImageCache: the pipeline runs once per distinct program)
//   POST   /v1/jobs   body = {"image", "engine", "max_steps",
//            "deadline_ms", "checkpoint_every", "retries",
//            "retry_backoff_ms", "slice_steps"}
//            "engine" is any kind name of the image's ISA (art9: lazy |
//            functional | packed | superblock | fleet | pipeline |
//            pipeline_packed; rv32: rv32 | rv32_superblock |
//            rv32_packed; packed and rv32_packed are the historical
//            names of superblock and rv32), defaulting per ISA to the
//            golden model
//            -> 202 {"job": id}   (or a structured 429 admission reject)
//   GET    /v1/jobs/{id}    -> status/result JSON; the six JobOutcomes
//            carry sim::outcome_exit_code, the code art9-run exits with
//   DELETE /v1/jobs/{id}    -> cooperative cancel (idempotent; a
//            finished job answers 202 with its result unchanged)
//   GET    /v1/metrics      -> queue depth, admission counters, cache
//            hit/miss, per-outcome counters, p50/p95 wall latency
//   POST   /v1/shutdown     -> begin drain; the owning thread's wait()
//            returns once in-flight requests and jobs are resolved
//
// Admission control bounds both queue depth (max_queued_jobs over
// queued+running jobs) and the total step budget in flight
// (max_inflight_steps over the sum of admitted budgets): a request the
// service cannot take is answered with a structured 429 immediately —
// never queued unboundedly, never hung.  Per-job isolation is the
// service's outcome taxonomy: a trapping or deadline-blown tenant
// resolves its own job and nothing else.
//
// A finished job's result (outcome, stats, state_digest, pc, registers)
// is rendered once, on the resolving worker; the record then keeps only
// that text and drops its JobHandle, freeing the final MachineState.  A
// GET or DELETE of a finished job is a string concatenation, whatever
// the size of the state.  Records themselves are still kept for the
// server's lifetime.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "serve/http.hpp"
#include "serve/image_cache.hpp"
#include "sim/service.hpp"

namespace art9::serve {

class SimulationServer {
 public:
  struct Options {
    HttpServer::Options http;
    unsigned service_threads = 0;  // 0 = hardware_concurrency
    std::size_t cache_bytes = 64u << 20;

    // Admission control.
    std::size_t max_queued_jobs = 256;          // queued + running cap
    uint64_t max_inflight_steps = 1ull << 40;   // sum of admitted budgets
    uint64_t max_job_steps = 1ull << 36;        // single-job budget cap
    uint64_t default_max_steps = 100'000'000;   // when the request omits it
  };

  // (A defaulted `Options options = {}` argument trips GCC's deferred
  // parsing of nested-aggregate member initializers; the delegating
  // default constructor is the portable spelling.)
  SimulationServer() : SimulationServer(Options{}) {}
  explicit SimulationServer(Options options);
  ~SimulationServer();

  SimulationServer(const SimulationServer&) = delete;
  SimulationServer& operator=(const SimulationServer&) = delete;

  /// Binds and starts serving.  Throws std::runtime_error on bind failure.
  void start();

  [[nodiscard]] uint16_t port() const noexcept { return http_->port(); }

  /// Begins drain (also triggered by POST /v1/shutdown).  Safe from
  /// signal handlers.
  void request_stop() noexcept { http_->request_stop(); }

  /// Blocks until a stop is requested, then drains HTTP connections and
  /// (on destruction) the job queue.
  void wait() { http_->wait(); }

  void stop() { http_->stop(); }

  [[nodiscard]] bool stop_requested() const noexcept { return http_->stop_requested(); }

  /// The route dispatcher (also what the HttpServer handler calls) —
  /// public so protocol tests can drive routes without a socket.
  HttpResponse handle(const HttpRequest& request);

  /// Direct service access for tests asserting HTTP results against
  /// in-process runs.
  [[nodiscard]] sim::SimulationService& service() noexcept { return *service_; }
  [[nodiscard]] ImageCache& cache() noexcept { return cache_; }

 private:
  /// A job's body: `head`, then its state — `result` once finished.
  struct JobRecord {
    sim::JobHandle handle;  // empty once `result` is rendered
    std::string head;       // `{"job": …, "max_steps": N` — fixed at submit
    std::string result;     // `, "state": "done", …}` — set once at resolve
  };

  HttpResponse post_image(const HttpRequest& request);
  HttpResponse post_job(const HttpRequest& request);
  HttpResponse get_job(uint64_t id);
  HttpResponse delete_job(uint64_t id);
  HttpResponse get_metrics();
  HttpResponse index() const;

  /// The current body of job `id` (cancelling it first when `cancel`
  /// and it is still pending); nullopt for an unknown id.
  [[nodiscard]] std::optional<std::string> job_body(uint64_t id, bool cancel);

  Options options_;
  ImageCache cache_;

  // Admission + telemetry state.  Declared before service_ so the
  // on_complete callbacks that release admission budget during the
  // service's drain-on-destruction still find it alive.
  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, JobRecord> jobs_;
  uint64_t next_job_id_ = 1;
  std::size_t active_jobs_ = 0;       // admitted, not yet resolved
  uint64_t inflight_steps_ = 0;       // sum of admitted budgets
  uint64_t admitted_ = 0;
  uint64_t rejected_queue_full_ = 0;
  uint64_t rejected_step_budget_ = 0;
  std::vector<double> latency_ms_;    // completed-job wall latencies (ring)
  std::size_t latency_next_ = 0;

  std::unique_ptr<sim::SimulationService> service_;
  std::unique_ptr<HttpServer> http_;  // last: HTTP stops before the service drains
};

}  // namespace art9::serve
