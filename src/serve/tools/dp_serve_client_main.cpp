// dp_serve_client: load generator and correctness probe for dp_serve.
//
//   dp_serve_client --port P [--model ID] [--batch N] [--requests N]
//                   [--forces] [--box L] [--seed S] [--quiet]
//                   [--expect-error CODE] [--partial-frame]
//
// Connects to the daemon on loopback, fetches the catalog (to learn the atom
// count and, without --model, pick the first served model), then fires
// --requests eval requests of --batch random frames each and validates every
// reply: matching ids, one energy per frame, finite values, and force arrays
// of the right shape when --forces is set.  Prints a throughput/latency
// summary and exits 0 only when every reply was a well-formed result.
//
// Chaos hooks for the e2e tests: --expect-error asserts that the daemon
// answers with that error code (exit 0 when it does); --partial-frame writes
// a truncated frame (length prefix promising more bytes than are sent) and
// disconnects, exercising the daemon's mid-frame disconnect handling.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "hpc/net/frame.hpp"
#include "serve/protocol.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace dpho;

md::Frame random_frame(util::Rng& rng, std::size_t atoms, double box) {
  md::Frame frame;
  frame.box_length = box;
  frame.positions.resize(atoms);
  for (md::Vec3& p : frame.positions) {
    p = {rng.uniform(0.0, box), rng.uniform(0.0, box), rng.uniform(0.0, box)};
  }
  return frame;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args;
  args.add_flag("--port", "daemon port (required)")
      .add_flag("--model", "archive id to evaluate (default: first served)")
      .add_flag("--batch", "frames per request, default 4")
      .add_flag("--requests", "number of requests, default 8")
      .add_flag("--forces", "request forces too", false)
      .add_flag("--box", "cubic box edge for generated frames, default 7.0")
      .add_flag("--seed", "frame generator seed, default 1")
      .add_flag("--quiet", "suppress the summary line", false)
      .add_flag("--expect-error", "assert the daemon replies with this error code")
      .add_flag("--partial-frame", "send a truncated frame and disconnect", false)
      .add_flag("--help", "show this message", false);
  const std::string usage_text = args.usage("dp_serve_client --port P");
  try {
    args.parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dp_serve_client: %s\n%s", e.what(), usage_text.c_str());
    return 2;
  }
  if (args.has("--help")) {
    std::fputs(usage_text.c_str(), stdout);
    return 0;
  }
  if (!args.has("--port")) {
    std::fputs(usage_text.c_str(), stderr);
    return 2;
  }

  const auto port = static_cast<std::uint16_t>(args.get("--port", std::int64_t{0}));
  const auto batch = static_cast<std::size_t>(args.get("--batch", std::int64_t{4}));
  const auto requests =
      static_cast<std::size_t>(args.get("--requests", std::int64_t{8}));
  const bool want_forces = args.has("--forces");
  const double box = args.get("--box", 7.0);
  const bool quiet = args.has("--quiet");

  try {
    const int fd = hpc::net::connect_loopback(port);

    if (args.has("--partial-frame")) {
      // A length prefix promising 64 bytes, followed by only 8 -- then gone.
      const char prefix[4] = {0, 0, 0, 64};
      const char stub[8] = {'{', '"', 't', '"', ':', '"', 'e', 'v'};
      (void)::write(fd, prefix, sizeof(prefix));
      (void)::write(fd, stub, sizeof(stub));
      ::close(fd);
      if (!quiet) std::printf("dp_serve_client: sent partial frame and closed\n");
      return 0;
    }

    const std::vector<serve::CatalogModel> catalog =
        serve::decode_catalog_reply(
            hpc::net::exchange(fd, serve::encode_catalog_request(1)));
    if (catalog.empty()) {
      std::fprintf(stderr, "dp_serve_client: daemon serves no models\n");
      return 1;
    }
    const std::string model = args.get("--model", catalog.front().id);
    std::size_t atoms = 0;
    for (const serve::CatalogModel& entry : catalog) {
      if (entry.id == model) atoms = entry.num_atoms;
    }
    if (atoms == 0) atoms = catalog.front().num_atoms;  // daemon will refuse

    util::Rng rng(static_cast<std::uint64_t>(args.get("--seed", std::int64_t{1})));
    std::size_t ok = 0;
    std::size_t errors = 0;
    double total_latency = 0.0;
    const auto started = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < requests; ++r) {
      serve::EvalRequest request;
      request.id = r + 1;
      request.model = model;
      request.want_forces = want_forces;
      request.frames.reserve(batch);
      for (std::size_t f = 0; f < batch; ++f) {
        request.frames.push_back(random_frame(rng, atoms, box));
      }
      const auto sent = std::chrono::steady_clock::now();
      const util::Json reply =
          hpc::net::exchange(fd, serve::encode_eval_request(request));
      total_latency +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - sent)
              .count();
      if (serve::message_type(reply) == serve::kMsgError) {
        const serve::ErrorReply error = serve::decode_error(reply);
        if (args.has("--expect-error") &&
            serve::to_string(error.code) ==
                args.get("--expect-error", std::string())) {
          if (!quiet) {
            std::printf("dp_serve_client: got expected error %s\n",
                        serve::to_string(error.code).c_str());
          }
          ::close(fd);
          return 0;
        }
        std::fprintf(stderr, "dp_serve_client: request %zu failed: %s (%s)\n",
                     r + 1, error.message.c_str(),
                     serve::to_string(error.code).c_str());
        ++errors;
        continue;
      }
      const serve::EvalReply result = serve::decode_eval_reply(reply);
      bool valid = result.id == request.id && result.model == model &&
                   result.energies.size() == batch &&
                   (!want_forces || result.forces.size() == batch);
      for (const double energy : result.energies) {
        valid = valid && std::isfinite(energy);
      }
      for (const std::vector<double>& forces : result.forces) {
        valid = valid && forces.size() == atoms * 3;
      }
      if (valid) {
        ++ok;
      } else {
        std::fprintf(stderr, "dp_serve_client: request %zu reply malformed\n",
                     r + 1);
        ++errors;
      }
    }
    ::close(fd);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started)
            .count();
    if (!quiet) {
      std::printf(
          "dp_serve_client: %zu/%zu ok, %zu error(s), %.0f frames/s,"
          " %.3f ms mean latency\n",
          ok, requests, errors,
          static_cast<double>(ok * batch) / std::max(elapsed, 1e-9),
          1e3 * total_latency / static_cast<double>(std::max<std::size_t>(1, requests)));
    }
    if (args.has("--expect-error")) {
      std::fprintf(stderr, "dp_serve_client: expected error %s never arrived\n",
                   args.get("--expect-error", std::string()).c_str());
      return 1;
    }
    return errors == 0 && ok == requests ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dp_serve_client: %s\n", e.what());
    return 1;
  }
}
