// SimulationServer: route-level protocol checks driven socketlessly
// through handle(), then the loopback e2e contract the ISSUE pins down —
// an HTTP-submitted job's result is bit-identical (canonical-snapshot
// digest) to a direct SimulationService run of the same image, the
// second upload of the same source is a cache hit, an admission-rejected
// request gets a structured error, and the metrics outcome counters sum
// to the jobs submitted.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/benchmarks.hpp"
#include "core/progen.hpp"
#include "isa/assembler.hpp"
#include "rv32/rv32_assembler.hpp"
#include "serve/json.hpp"
#include "sim/snapshot.hpp"

namespace art9::serve {
namespace {

constexpr const char* kSumProgram = R"(
    LIMM T1, 50
    LIMM T2, 0
  loop:
    ADD  T2, T1
    ADDI T1, -1
    MV   T3, T1
    COMP T3, T4
    BNE  T3, 0, loop
    HALT
)";

constexpr const char* kSpinProgram = "loop:\n  ADDI T1, 1\n  JAL T0, loop\n";

constexpr const char* kRv32Program = R"(
    li   a0, 64
    li   a1, -456
    sw   a1, 0(a0)
    lw   a2, 0(a0)
    ebreak
)";

HttpRequest make_request(std::string method, std::string target, std::string body = {}) {
  HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.version = "HTTP/1.1";
  request.body = std::move(body);
  return request;
}

json::JsonValue body_of(const HttpResponse& response) { return json::parse_json(response.body); }

/// Polls GET /v1/jobs/{id} (through handle()) to the terminal state.
json::JsonValue await_job(SimulationServer& server, uint64_t id) {
  const std::string target = "/v1/jobs/" + std::to_string(id);
  for (int poll = 0; poll < 4000; ++poll) {
    const HttpResponse response = server.handle(make_request("GET", target));
    EXPECT_EQ(response.status, 200);
    json::JsonValue job = body_of(response);
    if (job.get_string("state", "") == "done") return job;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ADD_FAILURE() << "job " << id << " never resolved";
  return json::JsonValue();
}

/// fnv1a_64 over the canonical snapshot of `state` — the state_digest.
std::string digest_of(const sim::MachineState& state) {
  const std::vector<uint8_t> blob = sim::serialize_snapshot(state);
  return hex64(fnv1a_64(blob.data(), blob.size()));
}

TEST(OutcomeExitCode, MirrorsArt9Run) {
  EXPECT_EQ(sim::outcome_exit_code(sim::JobOutcome::kCompleted), 0);
  EXPECT_EQ(sim::outcome_exit_code(sim::JobOutcome::kTrapped), 3);
  EXPECT_EQ(sim::outcome_exit_code(sim::JobOutcome::kBudgetExhausted), 4);
  EXPECT_EQ(sim::outcome_exit_code(sim::JobOutcome::kDeadlineExceeded), 5);
  EXPECT_EQ(sim::outcome_exit_code(sim::JobOutcome::kCancelled), 6);
  EXPECT_EQ(sim::outcome_exit_code(sim::JobOutcome::kFaulted), 7);
}

TEST(SimulationServerRoutes, ProtocolErrorsAreStructured) {
  SimulationServer server;  // never start()ed: handle() needs no socket

  EXPECT_EQ(server.handle(make_request("GET", "/nope")).status, 404);
  EXPECT_EQ(server.handle(make_request("PUT", "/v1/images", "x")).status, 405);
  EXPECT_EQ(server.handle(make_request("POST", "/v1/metrics")).status, 405);
  EXPECT_EQ(server.handle(make_request("GET", "/")).status, 200);  // endpoint index

  // Image uploads: unknown format, empty body, assembler diagnostics.
  EXPECT_EQ(server.handle(make_request("POST", "/v1/images?format=elf", "x")).status, 400);
  EXPECT_EQ(server.handle(make_request("POST", "/v1/images")).status, 400);
  const HttpResponse bad_source =
      server.handle(make_request("POST", "/v1/images", "NOT_AN_OPCODE T1\n"));
  EXPECT_EQ(bad_source.status, 400);
  EXPECT_EQ(body_of(bad_source).get_string("error", ""), "bad_source");

  // Job submission: malformed JSON, missing/unknown image, bad engine.
  EXPECT_EQ(server.handle(make_request("POST", "/v1/jobs", "{oops")).status, 400);
  EXPECT_EQ(server.handle(make_request("POST", "/v1/jobs", "[1]")).status, 400);
  EXPECT_EQ(server.handle(make_request("POST", "/v1/jobs", "{}")).status, 400);
  const HttpResponse unknown_image = server.handle(
      make_request("POST", "/v1/jobs", "{\"image\": \"0123456789abcdef\"}"));
  EXPECT_EQ(unknown_image.status, 404);
  EXPECT_EQ(body_of(unknown_image).get_string("error", ""), "unknown_image");

  const std::string image =
      body_of(server.handle(make_request("POST", "/v1/images", kSumProgram)))
          .get_string("id", "");
  ASSERT_EQ(image.size(), 16u);
  EXPECT_EQ(server.handle(make_request("POST", "/v1/jobs",
                                       "{\"image\": \"" + image + "\", \"engine\": \"warp\"}"))
                .status,
            400);
  // ISA mismatch: an ART-9 image on an rv32 engine.
  EXPECT_EQ(server.handle(make_request("POST", "/v1/jobs",
                                       "{\"image\": \"" + image + "\", \"engine\": \"rv32\"}"))
                .status,
            400);
  // Budget over the per-job cap.
  EXPECT_EQ(server.handle(make_request("POST", "/v1/jobs",
                                       "{\"image\": \"" + image +
                                           "\", \"max_steps\": 18446744073709551615}"))
                .status,
            400);

  // Job lookup: unknown and malformed ids.
  EXPECT_EQ(server.handle(make_request("GET", "/v1/jobs/999")).status, 404);
  EXPECT_EQ(server.handle(make_request("GET", "/v1/jobs/abc")).status, 404);
  EXPECT_EQ(server.handle(make_request("DELETE", "/v1/jobs/999")).status, 404);
}

TEST(SimulationServerRoutes, ErrorBodiesEscapeEchoedControlCharacters) {
  // Regression: error messages echo client text, and control characters
  // in it went out raw — a body the server's own parse_json rejects.
  SimulationServer server;
  const std::string image =
      body_of(server.handle(make_request("POST", "/v1/images", kSumProgram)))
          .get_string("id", "");
  ASSERT_EQ(image.size(), 16u);

  const HttpResponse engine = server.handle(make_request(
      "POST", "/v1/jobs", "{\"image\": \"" + image + "\", \"engine\": \"x\\ny\"}"));
  EXPECT_EQ(engine.status, 400);
  EXPECT_NE(body_of(engine).get_string("message", "").find("unknown engine 'x\ny'"),
            std::string::npos)
      << engine.body;

  const HttpResponse unknown =
      server.handle(make_request("POST", "/v1/jobs", "{\"image\": \"a\\u0001b\"}"));
  EXPECT_EQ(unknown.status, 404);
  EXPECT_NE(body_of(unknown).get_string("message", "").find("image 'a\x01" "b'"),
            std::string::npos)
      << unknown.body;
}

TEST(SimulationServerRoutes, DeadlinePastTheClockRangeIsNoDeadline) {
  // Regression: now() + deadline overflowed the steady clock for
  // deadline_ms past ~9.2e12 and landed in the past, so the job resolved
  // deadline_exceeded before its first instruction.
  SimulationServer server;
  const std::string image =
      body_of(server.handle(make_request("POST", "/v1/images", "LIMM T1, 7\nHALT\n")))
          .get_string("id", "");
  ASSERT_EQ(image.size(), 16u);
  const HttpResponse submitted = server.handle(make_request(
      "POST", "/v1/jobs",
      "{\"image\": \"" + image + "\", \"deadline_ms\": 10000000000000}"));
  ASSERT_EQ(submitted.status, 202) << submitted.body;
  const json::JsonValue job = await_job(server, body_of(submitted).get_uint64("job", 0));
  EXPECT_EQ(job.get_string("outcome", ""), "completed");
}

TEST(SimulationServerRoutes, AssemblerDiagnosticsNameTheirLine) {
  SimulationServer server;
  const auto expect_bad_source = [&](const std::string& target, const std::string& source,
                                     const std::string& prefix) {
    const HttpResponse response = server.handle(make_request("POST", target, source));
    EXPECT_EQ(response.status, 400) << source;
    const json::JsonValue body = body_of(response);
    EXPECT_EQ(body.get_string("error", ""), "bad_source") << source;
    EXPECT_EQ(body.get_string("message", "").rfind(prefix, 0), 0u) << body.get_string("message", "");
  };
  expect_bad_source("/v1/images?format=rv32", ".data\n.zero\n", "line 2:");
  expect_bad_source("/v1/images?format=art9", "LOAD\n", "line 1:");
  // Nesting that would run the evaluator off the end of its stack.
  expect_bad_source("/v1/images?format=rv32",
                    "nop\nli a0, " + std::string(100000, '(') + "1" + std::string(100000, ')'),
                    "line 2:");

  // A label directly before a directive binds to the address it precedes.
  EXPECT_EQ(server.handle(make_request("POST", "/v1/images?format=rv32",
                                       "j end\nend:\n.data\n.word 1\n"))
                .status,
            201);
}

TEST(SimulationServerRoutes, TranslatedDataOutsideTheTritRangeIsABadSource) {
  // Word A lands at balanced address A; a word past 9841 would otherwise
  // wrap on the packed kinds and trap on the reference kinds.
  SimulationServer server;
  const HttpResponse response = server.handle(
      make_request("POST", "/v1/images?format=rv32_translate",
                   ".data\n.org 40000\nv: .word 5\n.text\nmain:\n  lw a0, 0(zero)\n  ebreak\n"));
  EXPECT_EQ(response.status, 400) << response.body;
  const json::JsonValue body = body_of(response);
  EXPECT_EQ(body.get_string("error", ""), "bad_source");
  EXPECT_NE(body.get_string("message", "").find("data word address 40000 exceeds the 9-trit range"),
            std::string::npos)
      << response.body;
}

TEST(SimulationServerRoutes, ProgramLongerThanTheTimIsABadSource) {
  // 19,685 instructions: the last two used to wrap onto the first two TIM
  // rows, and the image loaded (201) as a different, one-instruction
  // program.
  std::string source = "ADDI T1, 5\n";
  for (int i = 0; i < 19682; ++i) source += "NOP\n";
  source += "ADDI T1, 2\nHALT\n";
  SimulationServer server;
  const HttpResponse response = server.handle(make_request("POST", "/v1/images", source));
  EXPECT_EQ(response.status, 400) << response.body;
  const json::JsonValue body = body_of(response);
  EXPECT_EQ(body.get_string("error", ""), "bad_source");
  EXPECT_NE(body.get_string("message", "").find("19685 instructions exceeds the 19683-row TIM"),
            std::string::npos)
      << response.body;
}

TEST(SimulationServerRoutes, AdmissionRejectsAreStructuredAndCounted) {
  SimulationServer::Options options;
  options.service_threads = 1;
  options.max_queued_jobs = 1;
  options.max_job_steps = 1u << 20;
  SimulationServer server(options);

  const std::string spin =
      body_of(server.handle(make_request("POST", "/v1/images", kSpinProgram)))
          .get_string("id", "");

  // First job fills the whole queue allowance...
  const HttpResponse admitted = server.handle(make_request(
      "POST", "/v1/jobs",
      "{\"image\": \"" + spin + "\", \"max_steps\": 1000000, \"slice_steps\": 2000}"));
  ASSERT_EQ(admitted.status, 202);
  const uint64_t first = body_of(admitted).get_uint64("job", 0);

  // ...so the second is rejected NOW with a structured body — not queued.
  const HttpResponse rejected = server.handle(
      make_request("POST", "/v1/jobs", "{\"image\": \"" + spin + "\", \"max_steps\": 1000}"));
  EXPECT_EQ(rejected.status, 429);
  const json::JsonValue reject_body = body_of(rejected);
  EXPECT_EQ(reject_body.get_string("error", ""), "admission_queue_full");
  EXPECT_EQ(reject_body.get_uint64("max_queued_jobs", 0), 1u);
  EXPECT_FALSE(reject_body.get_string("message", "").empty());

  // Cancel the hog; once it resolves the queue allowance is released.
  EXPECT_EQ(server.handle(make_request("DELETE", "/v1/jobs/" + std::to_string(first))).status,
            202);
  (void)await_job(server, first);
  const HttpResponse after = server.handle(
      make_request("POST", "/v1/jobs", "{\"image\": \"" + spin + "\", \"max_steps\": 1000}"));
  EXPECT_EQ(after.status, 202);
  (void)await_job(server, body_of(after).get_uint64("job", 0));

  const json::JsonValue metrics = body_of(server.handle(make_request("GET", "/v1/metrics")));
  const json::JsonValue* admission = metrics.find("admission");
  ASSERT_NE(admission, nullptr);
  EXPECT_EQ(admission->get_uint64("admitted", 0), 2u);
  EXPECT_EQ(admission->get_uint64("rejected_queue_full", 0), 1u);
  EXPECT_EQ(admission->get_uint64("active_jobs", 1), 0u);
  EXPECT_EQ(admission->get_uint64("inflight_steps", 1), 0u);
}

TEST(SimulationServerRoutes, StepBudgetAdmissionIsIndependentOfQueueDepth) {
  SimulationServer::Options options;
  options.service_threads = 1;
  options.max_inflight_steps = 5000;  // far below the queue-depth limit
  SimulationServer server(options);

  const std::string spin =
      body_of(server.handle(make_request("POST", "/v1/images", kSpinProgram)))
          .get_string("id", "");
  const HttpResponse admitted = server.handle(make_request(
      "POST", "/v1/jobs",
      "{\"image\": \"" + spin + "\", \"max_steps\": 4000, \"slice_steps\": 1000}"));
  ASSERT_EQ(admitted.status, 202);

  const HttpResponse rejected = server.handle(
      make_request("POST", "/v1/jobs", "{\"image\": \"" + spin + "\", \"max_steps\": 2000}"));
  EXPECT_EQ(rejected.status, 429);
  EXPECT_EQ(body_of(rejected).get_string("error", ""), "admission_step_budget");
  EXPECT_EQ(body_of(rejected).get_uint64("max_inflight_steps", 0), 5000u);
}

TEST(SimulationServerE2E, LoopbackResultsBitIdenticalToDirectServiceRuns) {
  SimulationServer::Options options;
  options.service_threads = 2;
  SimulationServer server(options);
  server.start();
  ASSERT_NE(server.port(), 0);
  HttpClient client("127.0.0.1", server.port());

  // Upload: first is a pipeline run (201), the identical re-upload is a
  // content-hash hit (200) with the same id.
  const HttpResponse first_upload = client.post("/v1/images?format=art9", kSumProgram);
  ASSERT_EQ(first_upload.status, 201);
  const json::JsonValue first_body = body_of(first_upload);
  EXPECT_FALSE(first_body.find("cached")->as_bool());
  const std::string image = first_body.get_string("id", "");
  ASSERT_EQ(image.size(), 16u);

  const HttpResponse second_upload = client.post("/v1/images?format=art9", kSumProgram);
  EXPECT_EQ(second_upload.status, 200);
  EXPECT_TRUE(body_of(second_upload).find("cached")->as_bool());
  EXPECT_EQ(body_of(second_upload).get_string("id", ""), image);

  // The same program, engine and budget, run directly through the
  // service: the canonical snapshot digest is the bit-identity witness.
  sim::SimulationService direct(1);
  const sim::JobHandle direct_handle =
      direct.submit({sim::decode(isa::assemble(kSumProgram)), sim::EngineKind::kPacked,
                     sim::RunOptions{2000}});
  const sim::JobResult& expected = direct_handle.result();
  ASSERT_EQ(expected.outcome, sim::JobOutcome::kCompleted);
  const std::string expected_digest = digest_of(expected.run.state);

  const HttpResponse submitted = client.post(
      "/v1/jobs",
      "{\"image\": \"" + image + "\", \"engine\": \"packed\", \"max_steps\": 2000}");
  ASSERT_EQ(submitted.status, 202);
  const json::JsonValue job = await_job(server, body_of(submitted).get_uint64("job", 0));

  EXPECT_EQ(job.get_string("outcome", ""), "completed");
  EXPECT_EQ(job.get_uint64("exit_code", 99), 0u);
  EXPECT_EQ(job.get_string("state_digest", ""), expected_digest);
  const json::JsonValue* stats = job.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->get_uint64("instructions", 0), expected.run.stats.instructions);

  // Cancel path over HTTP: DELETE resolves the spinner as cancelled/6.
  const std::string spin =
      body_of(client.post("/v1/images?format=art9", kSpinProgram)).get_string("id", "");
  const HttpResponse spinning = client.post(
      "/v1/jobs", "{\"image\": \"" + spin + "\", \"slice_steps\": 2000}");
  ASSERT_EQ(spinning.status, 202);
  const uint64_t spin_id = body_of(spinning).get_uint64("job", 0);
  EXPECT_EQ(client.del("/v1/jobs/" + std::to_string(spin_id)).status, 202);
  const json::JsonValue cancelled = await_job(server, spin_id);
  EXPECT_EQ(cancelled.get_string("outcome", ""), "cancelled");
  EXPECT_EQ(cancelled.get_uint64("exit_code", 99), 6u);

  // A trapping program maps to trapped/3 with the trap text attached:
  // no HALT, so execution falls off the end into uninitialised TIM.
  const std::string trap =
      body_of(client.post("/v1/images?format=art9", "LIMM T1, 5\nADD T1, T1\n"))
          .get_string("id", "");
  const HttpResponse trap_submitted =
      client.post("/v1/jobs", "{\"image\": \"" + trap + "\"}");
  ASSERT_EQ(trap_submitted.status, 202);
  const json::JsonValue trapped =
      await_job(server, body_of(trap_submitted).get_uint64("job", 0));
  EXPECT_EQ(trapped.get_string("outcome", ""), "trapped");
  EXPECT_EQ(trapped.get_uint64("exit_code", 99), 3u);
  EXPECT_FALSE(trapped.get_string("error", "").empty());

  // Metrics reconcile: every submitted job resolved, and the outcome
  // counters sum exactly to the jobs submitted.
  const json::JsonValue metrics = body_of(client.get("/v1/metrics"));
  const json::JsonValue* jobs = metrics.find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->get_uint64("submitted", 0), 3u);
  EXPECT_EQ(jobs->get_uint64("resolved", 0), 3u);
  const json::JsonValue* outcomes = metrics.find("outcomes");
  ASSERT_NE(outcomes, nullptr);
  uint64_t outcome_sum = 0;
  for (const auto& [name, count] : outcomes->as_object()) outcome_sum += count.as_uint64();
  EXPECT_EQ(outcome_sum, jobs->get_uint64("submitted", 0));
  const json::JsonValue* cache = metrics.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->get_uint64("hits", 0), 1u);
  EXPECT_EQ(cache->get_uint64("misses", 0), 3u);

  server.stop();
}

TEST(SimulationServerE2E, Rv32AndTranslatedImagesRunTheirOwnEngines) {
  SimulationServer server;
  server.start();
  HttpClient client("127.0.0.1", server.port());

  // Native rv32: defaults to the rv32 engine, reports 32 x-registers.
  const json::JsonValue rv32_upload =
      body_of(client.post("/v1/images?format=rv32", kRv32Program));
  EXPECT_EQ(rv32_upload.get_string("isa", ""), "rv32");
  const HttpResponse rv32_submitted = client.post(
      "/v1/jobs", "{\"image\": \"" + rv32_upload.get_string("id", "") + "\"}");
  ASSERT_EQ(rv32_submitted.status, 202);
  const json::JsonValue rv32_job =
      await_job(server, body_of(rv32_submitted).get_uint64("job", 0));
  EXPECT_EQ(rv32_job.get_string("engine", ""), "rv32");
  EXPECT_EQ(rv32_job.get_string("outcome", ""), "completed");
  ASSERT_NE(rv32_job.find("registers"), nullptr);
  EXPECT_EQ(rv32_job.find("registers")->as_array().size(), 32u);

  // The same rv32 source through the translation framework is an ART-9
  // image (a different content id: the format tag is hashed too) and runs
  // the ART-9 kinds.
  const json::JsonValue xlat_upload =
      body_of(client.post("/v1/images?format=rv32_translate", kRv32Program));
  EXPECT_EQ(xlat_upload.get_string("isa", ""), "art9");
  EXPECT_NE(xlat_upload.get_string("id", ""), rv32_upload.get_string("id", ""));
  const HttpResponse xlat_submitted = client.post(
      "/v1/jobs", "{\"image\": \"" + xlat_upload.get_string("id", "") +
                      "\", \"engine\": \"pipeline\"}");
  ASSERT_EQ(xlat_submitted.status, 202);
  const json::JsonValue xlat_job =
      await_job(server, body_of(xlat_submitted).get_uint64("job", 0));
  EXPECT_EQ(xlat_job.get_string("outcome", ""), "completed");
  ASSERT_NE(xlat_job.find("registers"), nullptr);
  EXPECT_EQ(xlat_job.find("registers")->as_array().size(), 9u);

  server.stop();
}

TEST(SimulationServerE2E, Rv32DigestsMatchDirectRunsOnEveryKind) {
  SimulationServer server;
  server.start();
  HttpClient client("127.0.0.1", server.port());
  const std::string image =
      body_of(client.post("/v1/images?format=rv32", kRv32Program)).get_string("id", "");
  ASSERT_EQ(image.size(), 16u);

  // The digest hashes the sparse v2 snapshot of the whole 1 MiB RAM.
  sim::SimulationService direct(1);
  for (const sim::EngineKind kind : sim::rv32_engine_kinds()) {
    const std::string engine(sim::engine_kind_name(kind));
    const sim::JobHandle direct_handle =
        direct.submit({rv32::decode(rv32::assemble_rv32(kRv32Program)), kind, {1000}});
    const sim::JobResult& expected = direct_handle.result();
    ASSERT_EQ(expected.outcome, sim::JobOutcome::kCompleted) << engine;

    const HttpResponse submitted = client.post(
        "/v1/jobs", "{\"image\": \"" + image + "\", \"engine\": \"" + engine + "\"}");
    ASSERT_EQ(submitted.status, 202) << engine;
    const json::JsonValue job = await_job(server, body_of(submitted).get_uint64("job", 0));
    EXPECT_EQ(job.get_string("outcome", ""), "completed") << engine;
    EXPECT_EQ(job.get_string("state_digest", ""), digest_of(expected.run.state)) << engine;
  }
  server.stop();
}

TEST(SimulationServerRoutes, FinishedJobBodyIsStable) {
  SimulationServer server;
  const std::string image =
      body_of(server.handle(make_request("POST", "/v1/images?format=rv32", kRv32Program)))
          .get_string("id", "");
  const uint64_t id = body_of(server.handle(make_request(
                                  "POST", "/v1/jobs", "{\"image\": \"" + image + "\"}")))
                          .get_uint64("job", 0);
  (void)await_job(server, id);

  // Rendered once at resolve: every later GET serves the same bytes, and
  // DELETE of a finished job is a no-op answering 202 with that body.
  const std::string target = "/v1/jobs/" + std::to_string(id);
  const HttpResponse first = server.handle(make_request("GET", target));
  const HttpResponse second = server.handle(make_request("GET", target));
  EXPECT_EQ(first.status, 200);
  EXPECT_NE(first.body.find("\"state_digest\""), std::string::npos);
  EXPECT_EQ(second.body, first.body);
  const HttpResponse deleted = server.handle(make_request("DELETE", target));
  EXPECT_EQ(deleted.status, 202);
  EXPECT_EQ(deleted.body, first.body);
  EXPECT_EQ(body_of(server.handle(make_request("GET", target))).get_string("outcome", ""),
            "completed");
}

TEST(ImageCache, LruEvictionAgainstTheByteBudget) {
  // Three distinct tiny programs against a budget that fits roughly one:
  // the cache evicts least-recently-used entries but never the entry a
  // put() just inserted, and get() of an evicted id misses cleanly.
  ImageCache cache(1);  // pathological budget: every insert overflows
  const ImageCache::Put a = cache.put(ImageFormat::kArt9Asm, "LIMM T1, 1\nHALT\n");
  EXPECT_FALSE(a.hit);
  EXPECT_TRUE(cache.get(a.id).has_value());  // just-inserted entry survives

  const ImageCache::Put b = cache.put(ImageFormat::kArt9Asm, "LIMM T1, 2\nHALT\n");
  EXPECT_FALSE(cache.get(a.id).has_value());  // evicted by b's insert
  EXPECT_TRUE(cache.get(b.id).has_value());

  const ImageCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 2u);

  // Re-uploading the evicted program is a rebuild (miss), not a hit.
  const ImageCache::Put again = cache.put(ImageFormat::kArt9Asm, "LIMM T1, 1\nHALT\n");
  EXPECT_FALSE(again.hit);
  EXPECT_EQ(again.id, a.id);  // content hash is stable
}

TEST(ImageCache, Rv32ChargeCoversTheHeapTheImageHolds) {
  // Regression: an rv32 image was charged `rows * 64 + source` bytes, a
  // fifth to two thirds of what it holds once its superblock plan is
  // built, so the byte budget bounded the cache only to within 1.5-5x.
  // The charge must cover the heap that decoding the program and
  // building its plan allocate (glibc's count of bytes in use).
#if defined(__GLIBC__)
  std::mt19937_64 rng(11);
  core::Rv32GenOptions large;
  large.min_length = 200;
  large.max_length = 400;
  std::vector<std::pair<std::string, std::string>> sources;
  for (const core::BenchmarkSources* b : core::all_benchmarks()) sources.emplace_back(b->name, b->rv32);
  sources.emplace_back("generated", core::generate_rv32_source(rng, large));
  for (const auto& [name, source] : sources) {
    const rv32::Rv32Program program = rv32::assemble_rv32(source);
    const std::size_t before = mallinfo2().uordblks;
    const std::shared_ptr<const rv32::Rv32DecodedImage> image = rv32::decode(program);
    static_cast<void>(image->superblocks());
    const std::size_t held = mallinfo2().uordblks - before;
    ImageCache cache;
    static_cast<void>(cache.put(ImageFormat::kRv32Asm, source));
    EXPECT_GE(cache.stats().bytes, held) << name;
  }
#else
  GTEST_SKIP() << "the heap count comes from glibc's mallinfo2";
#endif
}

}  // namespace
}  // namespace art9::serve
