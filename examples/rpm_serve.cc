// Socket front end for the inference server (src/serve), built on the
// sharded event-driven reactor in src/net: N worker shards, each an
// epoll loop on its own thread, with connections pinned to shards by
// consistent hash. Every connection speaks either the line-oriented
// text protocol or the length-prefixed binary framing (both specced in
// docs/SERVING.md), negotiated by the connection's first bytes — binary
// clients open with the 4-byte magic "RPMB".
//
// Usage:
//   rpm_serve [--port N | --unix PATH] [--model NAME=PATH ...]
//             [--shards N] [--queue N] [--threads N] [--timeout-ms N]
//             [--trace-sample N]
//
// Numeric values are whole base-10 integers: --port 0..65535; --shards,
// --queue and --timeout-ms at least 1; --threads and --trace-sample at
// least 0 (--timeout-ms and --trace-sample at most 2^32 - 1). Anything
// else prints the usage and exits with status 2.
//
// --shards N runs N reactor shards, each owning its own batching queue
// and stream-session map; stream sessions opened on a connection live
// on that connection's shard, so the hot feed path takes no cross-shard
// locks. Default 1 (single reactor).
//
// Observability: the METRICS verb returns the Prometheus exposition of
// every serve/stream/matcher/net metric, including the per-shard
// rpm_net_* and rpm_*_shard_* families; TRACE <n> returns recent trace
// spans as JSON. --trace-sample N records 1 of every N spans (default
// 16; 0 disables tracing entirely). See docs/OBSERVABILITY.md.
//
// Quickstart:
//   rpm_cli train train.csv gunpoint.model --search fixed --window 25
//   rpm_serve --port 7070 --model gunpoint=gunpoint.model --shards 4 &
//   printf 'CLASSIFY gunpoint 0.1,0.5,...\nSTATS\nQUIT\n' | nc localhost 7070

#include <unistd.h>

#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/front_end.h"
#include "obs/trace.h"
#include "serve/net_handler.h"
#include "serve/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: rpm_serve [--port N | --unix PATH] "
               "[--model NAME=PATH ...]\n"
               "                 [--shards N] [--queue N] [--threads N] "
               "[--timeout-ms N]\n"
               "                 [--trace-sample N]   (record 1/N spans; "
               "0 disables tracing; default 16)\n");
  std::exit(2);
}

// The whole of `text` as a base-10 integer in [lo, hi]; anything else
// (empty, trailing bytes, out of range) prints the usage and exits.
long long ParseInt(const char* text, long long lo, long long hi) {
  const char* end = text + std::strlen(text);
  long long value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) Usage();
  return value;
}

struct ServeCliOptions {
  int port = 7070;
  std::string unix_path;  // non-empty selects a Unix-domain socket
  std::vector<std::pair<std::string, std::string>> models;
  rpm::serve::ServerOptions server;
  long long trace_sample = 16;  // 1/N span sampling; 0 = tracing off
};

ServeCliOptions ParseArgs(int argc, char** argv) {
  ServeCliOptions cli;
  auto need = [&](int i) -> const char* {
    if (i + 1 >= argc) Usage();
    return argv[i + 1];
  };
  // Upper bounds past the documented ranges keep each value inside the
  // type that stores it; --timeout-ms shares the u32 of the binary
  // CLASSIFY timeout, so a deadline never overflows the clock.
  constexpr long long kNoMax = std::numeric_limits<long long>::max();
  constexpr long long kU32Max = std::numeric_limits<std::uint32_t>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--port") {
      cli.port = static_cast<int>(ParseInt(need(i++), 0, 65535));
    } else if (arg == "--unix") {
      cli.unix_path = need(i++);
    } else if (arg == "--model") {
      const std::string spec = need(i++);
      const std::size_t eq = spec.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
        Usage();
      }
      cli.models.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
    } else if (arg == "--shards") {
      cli.server.num_shards =
          static_cast<std::size_t>(ParseInt(need(i++), 1, kNoMax));
    } else if (arg == "--queue") {
      cli.server.batching.max_queue_depth =
          static_cast<std::size_t>(ParseInt(need(i++), 1, kNoMax));
    } else if (arg == "--threads") {
      cli.server.batching.num_threads =
          static_cast<std::size_t>(ParseInt(need(i++), 0, kNoMax));
    } else if (arg == "--timeout-ms") {
      cli.server.default_timeout =
          std::chrono::milliseconds(ParseInt(need(i++), 1, kU32Max));
    } else if (arg == "--trace-sample") {
      cli.trace_sample = ParseInt(need(i++), 0, kU32Max);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      Usage();
    }
  }
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  const ServeCliOptions cli = ParseArgs(argc, argv);

  if (cli.trace_sample > 0) {
    rpm::obs::Tracer::Default().set_sample_every(
        static_cast<std::uint32_t>(cli.trace_sample));
    rpm::obs::Tracer::Default().Enable(true);
  }

  rpm::serve::InferenceServer server(cli.server);
  for (const auto& [name, path] : cli.models) {
    try {
      const std::size_t patterns = server.LoadModel(name, path);
      std::fprintf(stderr, "[rpm_serve] loaded %s from %s (%zu patterns)\n",
                   name.c_str(), path.c_str(), patterns);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[rpm_serve] cannot load %s: %s\n", name.c_str(),
                   e.what());
      return 1;
    }
  }

  rpm::serve::NetHandler handler(&server);
  rpm::net::FrontEndOptions net_options;
  net_options.tcp_port = cli.port;
  net_options.unix_path = cli.unix_path;
  net_options.num_shards = server.num_shards();
  net_options.metrics = &server.metrics();
  rpm::net::FrontEnd front_end(&handler, net_options);
  if (!front_end.Start()) return 1;

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::fprintf(
      stderr, "[rpm_serve] listening on %s (%zu shard%s)\n",
      cli.unix_path.empty()
          ? ("localhost:" + std::to_string(front_end.port())).c_str()
          : cli.unix_path.c_str(),
      front_end.num_shards(), front_end.num_shards() == 1 ? "" : "s");

  // The reactors own all I/O; this thread just waits for the signal.
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // Graceful drain: each shard flushes and closes its own connections
  // (front end), then drains its own queue and sessions (server), so
  // every admitted request completes and no session closes twice.
  front_end.Stop();
  server.Shutdown();
  std::fprintf(stderr, "[rpm_serve] final stats: %s\n",
               server.Stats().ToJson().c_str());
  return 0;
}
