// serve_demo — drive the art9-serve HTTP API end to end: upload a
// program twice (the second is a content-hash cache hit), run it as a
// job, poll to the result, run a native rv32 job and print its state
// digest, cancel a long-running job, and read the metrics.
//
//   serve_demo                      self-contained: starts an in-process
//                                   SimulationServer on an ephemeral port
//   serve_demo HOST:PORT            drives an already-running art9-serve
//   serve_demo HOST:PORT --shutdown ...and asks it to drain afterwards
//
// The HOST:PORT form is what the CI smoke leg uses against a real
// art9-serve process; the output is the transcript in the README's
// "Serving" section.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "serve/server.hpp"

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

// Never halts — the job to cancel.
constexpr const char* kSpinProgram = "loop:\n  ADDI T1, 1\n  JAL T0, loop\n";

// Native rv32: one word stored into the 1 MiB data RAM.
constexpr const char* kRv32Program = R"(
    li   a0, 256
    li   a1, -456
    sw   a1, 0(a0)
    lw   a2, 0(a0)
    ebreak
)";

void show(const char* label, const art9::serve::HttpResponse& response) {
  std::printf("-- %s -> %d\n%s", label, response.status, response.body.c_str());
}

/// The job id out of a 202 body without a JSON reader round trip: the
/// body opens with {"job": N.
uint64_t job_id_of(const art9::serve::HttpResponse& response) {
  return static_cast<uint64_t>(std::atoll(response.body.c_str() + 8));
}

std::string image_id_of(const art9::serve::HttpResponse& response) {
  // {"id": "16 hex digits", ...
  return response.body.substr(8, 16);
}

/// Polls GET `path` until the job is done; returns the last response.
art9::serve::HttpResponse await_done(art9::serve::HttpClient& client, const std::string& path) {
  art9::serve::HttpResponse status;
  for (int poll = 0; poll < 2000; ++poll) {
    status = client.get(path);
    if (status.body.find("\"state\": \"done\"") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return status;
}

/// The 16 hex digits of a finished body's state_digest; empty if absent.
std::string digest_of(const art9::serve::HttpResponse& response) {
  const std::string key = "\"state_digest\": \"";
  const std::size_t at = response.body.find(key);
  return at == std::string::npos ? std::string() : response.body.substr(at + key.size(), 16);
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  bool shutdown_after = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--shutdown") {
      shutdown_after = true;
    } else if (const auto colon = arg.find(':'); colon != std::string::npos) {
      host = arg.substr(0, colon);
      port = static_cast<uint16_t>(std::atoi(arg.c_str() + colon + 1));
    } else {
      std::fprintf(stderr, "usage: serve_demo [HOST:PORT] [--shutdown]\n");
      return 2;
    }
  }

  try {
    // Self-contained mode: bring up the server in-process.
    std::unique_ptr<art9::serve::SimulationServer> local;
    if (port == 0) {
      local = std::make_unique<art9::serve::SimulationServer>();
      local->start();
      port = local->port();
      std::printf("serve_demo: in-process server on %s:%u\n", host.c_str(),
                  static_cast<unsigned>(port));
    }
    art9::serve::HttpClient client(host, port);

    // 1. Upload: the first POST runs the assemble/decode pipeline (201),
    //    the identical re-upload is a cache hit (200, "cached": true).
    const auto upload = client.post("/v1/images?format=art9", kSumProgram);
    show("POST /v1/images (first)", upload);
    show("POST /v1/images (again)", client.post("/v1/images?format=art9", kSumProgram));
    if (upload.status != 201) return 1;
    const std::string image = image_id_of(upload);

    // 2. Run it: submit, then poll to the terminal state.
    const auto submitted = client.post(
        "/v1/jobs", "{\"image\": \"" + image + "\", \"engine\": \"functional\"}");
    show("POST /v1/jobs", submitted);
    if (submitted.status != 202) return 1;
    show("GET job (done)", await_done(client, "/v1/jobs/" + std::to_string(job_id_of(submitted))));

    // 3. A native rv32 job: its state_digest hashes the sparse snapshot
    //    of the final registers and 1 MiB RAM, rendered once at resolve.
    const auto rv32_upload = client.post("/v1/images?format=rv32", kRv32Program);
    show("POST /v1/images?format=rv32", rv32_upload);
    const auto rv32_submitted = client.post(
        "/v1/jobs", "{\"image\": \"" + image_id_of(rv32_upload) +
                        "\", \"engine\": \"rv32_superblock\"}");
    if (rv32_submitted.status != 202) return 1;
    const auto rv32_done =
        await_done(client, "/v1/jobs/" + std::to_string(job_id_of(rv32_submitted)));
    show("GET rv32 job (done)", rv32_done);
    const std::string digest = digest_of(rv32_done);
    if (digest.empty()) return 1;
    std::printf("rv32 state_digest: %s\n", digest.c_str());

    // 4. Cancel: a program that never halts, cut off cooperatively.
    const auto spin = client.post("/v1/images?format=art9", kSpinProgram);
    const auto spinning = client.post(
        "/v1/jobs", "{\"image\": \"" + image_id_of(spin) +
                        "\", \"engine\": \"functional\", \"slice_steps\": 10000}");
    const std::string spin_path = "/v1/jobs/" + std::to_string(job_id_of(spinning));
    show("DELETE spinning job", client.del(spin_path));
    show("GET cancelled job", await_done(client, spin_path));

    // 5. The service's own view of all of the above.
    show("GET /v1/metrics", client.get("/v1/metrics"));

    if (shutdown_after) show("POST /v1/shutdown", client.post("/v1/shutdown", ""));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_demo: %s\n", e.what());
    return 1;
  }
}
