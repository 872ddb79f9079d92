#include "serve/server.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "serve/json.hpp"
#include "sim/snapshot.hpp"

namespace art9::serve {

namespace {

using json::JsonObject;

HttpResponse json_response(int status, const JsonObject& body, bool close = false) {
  return HttpResponse{status, "application/json", body.str() + "\n", close};
}

HttpResponse error_response(int status, const std::string& error, const std::string& message) {
  JsonObject body;
  body.add("error", error);
  body.add("message", message);
  return json_response(status, body);
}

/// "/v1/jobs/{id}" -> id; nullopt when the suffix is not a plain decimal.
std::optional<uint64_t> parse_id(std::string_view suffix) {
  if (suffix.empty() || suffix.size() > 18) return std::nullopt;
  uint64_t id = 0;
  for (char c : suffix) {
    if (c < '0' || c > '9') return std::nullopt;
    id = id * 10 + static_cast<uint64_t>(c - '0');
  }
  return id;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t idx = std::min(
      samples.size() - 1, static_cast<std::size_t>(p * static_cast<double>(samples.size())));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

constexpr std::size_t kLatencyWindow = 4096;

/// `fields` rendered as the continuation of an object left open by a
/// job's head: `, "k": v, ...}`.
std::string continuation(const JsonObject& fields) {
  std::string out = fields.str();
  out.replace(0, 1, ", ");
  return out;
}

/// `{"job": id, "image": ..., "engine": ..., "max_steps": N` — the fields
/// a job's body opens with, left open for its state.
std::string job_head(uint64_t id, const std::string& image_id, sim::EngineKind kind,
                     uint64_t max_steps) {
  JsonObject head;
  head.add("job", id);
  head.add("image", image_id);
  head.add("engine", std::string(sim::engine_kind_name(kind)));
  head.add("max_steps", max_steps);
  std::string out = head.str();
  out.pop_back();
  return out;
}

/// The state of a job still in the service.
std::string pending_tail(const sim::JobHandle& handle) {
  JsonObject tail;
  tail.add("state", handle.started() ? "running" : "queued");
  return continuation(tail);
}

/// The finished job's fields, rendered once when it resolves.
std::string done_tail(const sim::JobResult& result) {
  JsonObject body;
  body.add("state", "done");
  body.add("outcome", std::string(sim::job_outcome_name(result.outcome)));
  body.add("exit_code", static_cast<int64_t>(sim::outcome_exit_code(result.outcome)));
  if (!result.error.empty()) body.add("error", result.error);
  if (result.retries > 0) {
    body.add("retries", static_cast<uint64_t>(result.retries));
    body.add("resumed", result.resumed);
  }
  if (result.checkpoints > 0) body.add("checkpoints", result.checkpoints);
  if (result.corrupt_checkpoints > 0) body.add("corrupt_checkpoints", result.corrupt_checkpoints);

  JsonObject stats;
  stats.add("instructions", result.run.stats.instructions);
  stats.add("cycles", result.run.stats.cycles);
  stats.add("halt", std::string(result.run.halt == sim::HaltReason::kHalted ? "halted"
                                                                            : "max_cycles"));
  body.add_raw("stats", stats.str());

  // The architectural result, for the deterministic outcomes: a
  // canonical-snapshot digest (bit-identity is one string compare away)
  // plus the registers and PC for human consumption.
  if (result.outcome == sim::JobOutcome::kCompleted ||
      result.outcome == sim::JobOutcome::kBudgetExhausted) {
    try {
      const std::vector<uint8_t> blob = sim::serialize_snapshot(result.run.state);
      body.add("state_digest", hex64(fnv1a_64(blob.data(), blob.size())));
      if (result.run.state.is_rv32()) {
        const auto& rv32 = result.run.state.rv32();
        body.add("pc", static_cast<uint64_t>(rv32.pc));
        body.add_raw("registers", json::int_array(rv32.regs));
      } else {
        const auto& art9 = result.run.state.art9();
        body.add("pc", static_cast<int64_t>(art9.pc));
        std::vector<int64_t> regs;
        for (int r = 0; r < isa::kNumRegisters; ++r) regs.push_back(art9.trf.read(r).to_int());
        body.add_raw("registers", json::int_array(regs));
      }
    } catch (const std::exception&) {
      // A state that cannot serialize (should not happen) just omits the
      // digest; outcome and stats still stand.
    }
  }
  return continuation(body);
}

}  // namespace

SimulationServer::SimulationServer(Options options)
    : options_(std::move(options)),
      cache_(options_.cache_bytes),
      latency_ms_(),
      service_(std::make_unique<sim::SimulationService>(options_.service_threads)) {
  latency_ms_.reserve(kLatencyWindow);
  http_ = std::make_unique<HttpServer>(options_.http,
                                       [this](const HttpRequest& request) { return handle(request); });
}

SimulationServer::~SimulationServer() { stop(); }

void SimulationServer::start() { http_->start(); }

HttpResponse SimulationServer::handle(const HttpRequest& request) {
  const std::string_view path = request.path();

  if (path == "/v1/images") {
    if (request.method != "POST") return error_response(405, "method_not_allowed", "use POST");
    return post_image(request);
  }
  if (path == "/v1/jobs") {
    if (request.method != "POST") return error_response(405, "method_not_allowed", "use POST");
    return post_job(request);
  }
  if (path.rfind("/v1/jobs/", 0) == 0) {
    const std::optional<uint64_t> id = parse_id(path.substr(9));
    if (!id) return error_response(404, "unknown_job", "malformed job id");
    if (request.method == "GET") return get_job(*id);
    if (request.method == "DELETE") return delete_job(*id);
    return error_response(405, "method_not_allowed", "use GET or DELETE");
  }
  if (path == "/v1/metrics") {
    if (request.method != "GET") return error_response(405, "method_not_allowed", "use GET");
    return get_metrics();
  }
  if (path == "/v1/shutdown") {
    if (request.method != "POST") return error_response(405, "method_not_allowed", "use POST");
    request_stop();
    JsonObject body;
    body.add("draining", true);
    return json_response(200, body, /*close=*/true);
  }
  if (path == "/") return index();
  return error_response(404, "not_found", "no route for " + std::string(path));
}

HttpResponse SimulationServer::index() const {
  JsonObject body;
  body.add("service", std::string("art9-serve"));
  body.add_raw("endpoints",
               "[\"POST /v1/images?format=art9|rv32|rv32_translate\", \"POST /v1/jobs\", "
               "\"GET /v1/jobs/{id}\", \"DELETE /v1/jobs/{id}\", \"GET /v1/metrics\", "
               "\"POST /v1/shutdown\"]");
  return json_response(200, body);
}

HttpResponse SimulationServer::post_image(const HttpRequest& request) {
  const std::string_view format_name = request.query("format");
  const std::optional<ImageFormat> format =
      format_name.empty() ? std::optional<ImageFormat>(ImageFormat::kArt9Asm)
                          : parse_image_format(format_name);
  if (!format) {
    return error_response(400, "unknown_format",
                          "format must be art9, rv32 or rv32_translate (got '" +
                              std::string(format_name) + "')");
  }
  if (request.body.empty()) return error_response(400, "empty_source", "request body is empty");

  ImageCache::Put put;
  try {
    put = cache_.put(*format, request.body);
  } catch (const std::exception& e) {
    // The pipeline rejected the source (assembler/translator/decoder
    // diagnostics carry line info) — the client's error, not ours.
    return error_response(400, "bad_source", e.what());
  }

  JsonObject body;
  body.add("id", put.id);
  body.add("format", std::string(image_format_name(*format)));
  body.add("isa", std::string(put.rv32 ? "rv32" : "art9"));
  body.add("cached", put.hit);
  return json_response(put.hit ? 200 : 201, body);
}

HttpResponse SimulationServer::post_job(const HttpRequest& request) {
  json::JsonValue doc;
  try {
    doc = json::parse_json(request.body);
    if (!doc.is_object()) throw json::JsonError("request body must be a JSON object");
  } catch (const std::exception& e) {
    return error_response(400, "bad_json", e.what());
  }

  sim::SimulationService::Job job;
  std::string image_id;
  sim::EngineKind kind{};
  uint64_t max_steps = 0;
  try {
    image_id = doc.get_string("image", "");
    if (image_id.empty()) throw json::JsonError("field 'image' is required");

    const std::optional<sim::EngineImage> image = cache_.get(image_id);
    if (!image) {
      return error_response(404, "unknown_image",
                            "image '" + image_id + "' is not in the cache (evicted or never "
                            "uploaded) — POST /v1/images again");
    }
    const bool rv32_image = image->index() == 1;

    // "engine" takes any sim::parse_engine_kind name of the image's ISA
    // — art9: lazy | functional | packed | superblock | fleet | pipeline |
    // pipeline_packed; rv32: rv32 | rv32_superblock | rv32_packed —
    // defaulting to the golden functional model of that ISA ("rv32" /
    // "functional"; pick the superblock kinds for throughput).
    const std::string engine = doc.get_string("engine", rv32_image ? "rv32" : "functional");
    const std::optional<sim::EngineKind> parsed = sim::parse_engine_kind(engine);
    if (!parsed) throw json::JsonError("unknown engine '" + engine + "'");
    kind = *parsed;
    if (sim::is_rv32(kind) != rv32_image) {
      throw json::JsonError("engine '" + engine + "' does not match the image's ISA (" +
                            (rv32_image ? "rv32" : "art9") + ")");
    }

    max_steps = doc.get_uint64("max_steps", options_.default_max_steps);
    if (max_steps == 0 || max_steps > options_.max_job_steps) {
      throw json::JsonError("max_steps must be in [1, " +
                            std::to_string(options_.max_job_steps) + "]");
    }

    job.image = *image;
    job.kind = kind;
    job.run.max_steps = max_steps;
    // The CLI mirrors the whole budget into the pipeline cap; so do we.
    job.engine.pipeline.max_cycles = max_steps;
    job.control.deadline = std::chrono::milliseconds(doc.get_uint64("deadline_ms", 0));
    job.control.checkpoint_every = doc.get_uint64("checkpoint_every", 0);
    job.control.retries = static_cast<unsigned>(doc.get_uint64("retries", 0));
    job.control.retry_backoff = std::chrono::milliseconds(doc.get_uint64("retry_backoff_ms", 0));
    job.control.slice_steps = doc.get_uint64("slice_steps", 0);
  } catch (const std::exception& e) {
    return error_response(400, "bad_request", e.what());
  }

  // Admission: reserve queue + step budget under the lock, with a
  // structured reject — never unbounded queueing.
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (active_jobs_ >= options_.max_queued_jobs) {
      ++rejected_queue_full_;
      JsonObject body;
      body.add("error", std::string("admission_queue_full"));
      body.add("message", "the service already holds " + std::to_string(active_jobs_) +
                              " unresolved jobs (limit " +
                              std::to_string(options_.max_queued_jobs) + ") — retry later");
      body.add("active_jobs", static_cast<uint64_t>(active_jobs_));
      body.add("max_queued_jobs", static_cast<uint64_t>(options_.max_queued_jobs));
      return json_response(429, body);
    }
    if (inflight_steps_ + max_steps > options_.max_inflight_steps) {
      ++rejected_step_budget_;
      JsonObject body;
      body.add("error", std::string("admission_step_budget"));
      body.add("message", "admitting " + std::to_string(max_steps) +
                              " steps would exceed the in-flight budget (" +
                              std::to_string(inflight_steps_) + " of " +
                              std::to_string(options_.max_inflight_steps) +
                              " already admitted) — retry later");
      body.add("inflight_steps", inflight_steps_);
      body.add("max_inflight_steps", options_.max_inflight_steps);
      return json_response(429, body);
    }
    ++active_jobs_;
    inflight_steps_ += max_steps;
    ++admitted_;
    id = next_job_id_++;
  }

  const auto t0 = std::chrono::steady_clock::now();
  sim::JobHandle handle;
  try {
    handle = service_->submit(std::move(job));
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mutex_);
    --active_jobs_;
    inflight_steps_ -= max_steps;
    --admitted_;
    return error_response(500, "submit_failed", e.what());
  }

  JobRecord record{handle, job_head(id, image_id, kind, max_steps), {}};
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.emplace(id, std::move(record));
  }

  // At resolve: release the admission reservation, record wall latency,
  // and render the finished fields into the record once, dropping its
  // handle.  Registered only after the record is in jobs_, because a job
  // that already resolved runs the callback inline, right here.  It runs
  // on a worker otherwise and takes only the admission mutex.
  handle.on_complete([this, id, t0, max_steps](const sim::JobResult& result) {
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
    std::string tail = done_tail(result);
    std::lock_guard<std::mutex> lock(mutex_);
    --active_jobs_;
    inflight_steps_ -= max_steps;
    if (latency_ms_.size() < kLatencyWindow) {
      latency_ms_.push_back(ms);
    } else {
      latency_ms_[latency_next_] = ms;
      latency_next_ = (latency_next_ + 1) % kLatencyWindow;
    }
    JobRecord& record = jobs_.at(id);
    record.result = std::move(tail);
    record.handle = sim::JobHandle();
  });

  return HttpResponse{202, "application/json", *job_body(id, false), false};
}

std::optional<std::string> SimulationServer::job_body(uint64_t id, bool cancel) {
  sim::JobHandle pending;
  std::string body;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return std::nullopt;
    const JobRecord& record = it->second;
    if (!record.result.empty()) return record.head + record.result + "\n";
    pending = record.handle;
    body = record.head;
  }
  if (cancel) pending.cancel();
  return body + pending_tail(pending) + "\n";
}

HttpResponse SimulationServer::get_job(uint64_t id) {
  std::optional<std::string> body = job_body(id, false);
  if (!body) return error_response(404, "unknown_job", "no job " + std::to_string(id));
  return HttpResponse{200, "application/json", std::move(*body), false};
}

HttpResponse SimulationServer::delete_job(uint64_t id) {
  std::optional<std::string> body = job_body(id, true);
  if (!body) return error_response(404, "unknown_job", "no job " + std::to_string(id));
  return HttpResponse{202, "application/json", std::move(*body), false};
}

HttpResponse SimulationServer::get_metrics() {
  const sim::SimulationService& service = *service_;
  const ImageCache::Stats cache = cache_.stats();

  JsonObject queue;
  queue.add("queued", static_cast<uint64_t>(service.queued()));
  queue.add("in_flight", static_cast<uint64_t>(service.in_flight()));
  queue.add("workers", static_cast<uint64_t>(service.worker_count()));
  queue.add("configured_workers", static_cast<uint64_t>(service.threads()));

  JsonObject jobs;
  jobs.add("submitted", service.submitted());
  jobs.add("resolved", service.resolved());

  JsonObject outcomes;
  for (const sim::JobOutcome outcome :
       {sim::JobOutcome::kCompleted, sim::JobOutcome::kTrapped, sim::JobOutcome::kBudgetExhausted,
        sim::JobOutcome::kDeadlineExceeded, sim::JobOutcome::kCancelled,
        sim::JobOutcome::kFaulted}) {
    outcomes.add(std::string(sim::job_outcome_name(outcome)), service.outcome_count(outcome));
  }

  JsonObject admission;
  JsonObject latency;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    admission.add("admitted", admitted_);
    admission.add("rejected_queue_full", rejected_queue_full_);
    admission.add("rejected_step_budget", rejected_step_budget_);
    admission.add("active_jobs", static_cast<uint64_t>(active_jobs_));
    admission.add("max_queued_jobs", static_cast<uint64_t>(options_.max_queued_jobs));
    admission.add("inflight_steps", inflight_steps_);
    admission.add("max_inflight_steps", options_.max_inflight_steps);

    latency.add("p50_ms", percentile(latency_ms_, 0.50));
    latency.add("p95_ms", percentile(latency_ms_, 0.95));
    latency.add("samples", static_cast<uint64_t>(latency_ms_.size()));
  }

  JsonObject cache_json;
  cache_json.add("hits", cache.hits);
  cache_json.add("misses", cache.misses);
  cache_json.add("evictions", cache.evictions);
  cache_json.add("entries", static_cast<uint64_t>(cache.entries));
  cache_json.add("bytes", static_cast<uint64_t>(cache.bytes));
  cache_json.add("budget_bytes", static_cast<uint64_t>(cache.budget_bytes));

  JsonObject http;
  http.add("connections_accepted", http_->connections_accepted());
  http.add("requests_served", http_->requests_served());

  JsonObject body;
  body.add_raw("queue", queue.str());
  body.add_raw("jobs", jobs.str());
  body.add_raw("outcomes", outcomes.str());
  body.add_raw("admission", admission.str());
  body.add_raw("cache", cache_json.str());
  body.add_raw("latency", latency.str());
  body.add_raw("http", http.str());
  return json_response(200, body);
}

}  // namespace art9::serve
