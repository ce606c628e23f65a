// Serving-layer benchmark: sequential in-process Classify calls on the
// trained model (whose pattern contexts are built once, in Train) vs the
// inference server's Classify, single-stream and with 16 concurrent
// clients. Writes BENCH_serve.json with throughput and p50/p99 latency
// per mode, and BENCH_serve_metrics.json with the METRICS scrape taken
// at the end of the run (observability — tracing at the rpm_serve
// default 1/16 sampling — stays enabled throughout, so the bench
// numbers measure the instrumented configuration).
//
// Both sides reuse the same warm contexts. The server scores each
// request on its caller's thread, so single-stream measures the
// server's per-request overhead (registry lookup, deadline check,
// metrics, sampled span) and 16 clients measure how the shared model
// scales across the host's cores.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/rpm.h"
#include "harness.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "ts/generators.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

struct ModeResult {
  std::string name;
  std::size_t requests = 0;
  double seconds = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double throughput_rps() const {
    return seconds > 0.0 ? double(requests) / seconds : 0.0;
  }
};

double PercentileUs(std::vector<double>& latencies, double p) {
  if (latencies.empty()) return 0.0;
  std::sort(latencies.begin(), latencies.end());
  const double rank = p / 100.0 * double(latencies.size() - 1);
  return latencies[std::size_t(rank + 0.5)];
}

// The in-process baseline: sequential Classify calls, one request at a
// time, through the model's warm engine.
ModeResult RunPerRequest(const rpm::core::RpmClassifier& clf,
                         const rpm::ts::Dataset& requests) {
  ModeResult result;
  result.name = "per_request";
  result.requests = requests.size();
  std::vector<double> latencies;
  latencies.reserve(requests.size());
  volatile int sink = 0;
  const auto t0 = Clock::now();
  for (const auto& inst : requests) {
    const auto r0 = Clock::now();
    sink = sink + clf.Classify(inst.values);
    latencies.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - r0)
            .count());
  }
  result.seconds = Seconds(t0, Clock::now());
  result.p50_us = PercentileUs(latencies, 50.0);
  result.p99_us = PercentileUs(latencies, 99.0);
  return result;
}

// Client threads calling the server concurrently; `clients == 1` is the
// single-stream serve mode.
ModeResult RunServeClients(rpm::serve::InferenceServer& server,
                           const rpm::ts::Dataset& requests,
                           std::size_t clients) {
  ModeResult result;
  result.name =
      clients == 1 ? "serve_single_stream"
                   : "serve_" + std::to_string(clients) + "_clients";
  result.requests = requests.size();
  std::vector<std::vector<double>> latencies(clients);
  const std::size_t per_client = requests.size() / clients;

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      latencies[c].reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        const auto& inst = requests[(c * per_client + i) % requests.size()];
        const auto r0 = Clock::now();
        const rpm::serve::ClassifyResult r = server.Classify(
            "bench", inst.values, std::chrono::seconds(120));
        if (r.status != rpm::serve::StatusCode::kOk) {
          std::fprintf(stderr, "serve_bench: unexpected status %.*s\n",
                       int(StatusName(r.status).size()),
                       StatusName(r.status).data());
          std::exit(1);
        }
        latencies[c].push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - r0)
                .count());
      }
    });
  }
  for (auto& t : threads) t.join();
  result.seconds = Seconds(t0, Clock::now());
  result.requests = per_client * clients;

  std::vector<double> all;
  for (const auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
  result.p50_us = PercentileUs(all, 50.0);
  result.p99_us = PercentileUs(all, 99.0);
  return result;
}

void PrintMode(const ModeResult& r) {
  std::printf("%-22s %6zu req  %8.2f req/s  p50 %8.1f us  p99 %8.1f us\n",
              r.name.c_str(), r.requests, r.throughput_rps(), r.p50_us,
              r.p99_us);
}

void AppendJson(std::string& out, const ModeResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"requests\":%zu,\"seconds\":%.4f,"
                "\"throughput_rps\":%.2f,\"p50_us\":%.1f,\"p99_us\":%.1f}",
                r.name.c_str(), r.requests, r.seconds, r.throughput_rps(),
                r.p50_us, r.p99_us);
  out += buf;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 16);
  for (const char c : text) {
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

bool WriteFile(const char* path, const std::string& content) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::fprintf(f, "%s\n", content.c_str());
  std::fclose(f);
  return true;
}

}  // namespace

int main() {
  // Observability on for the whole run, at the same sampling rate
  // rpm_serve defaults to: the published numbers are for the
  // instrumented configuration (acceptance bar: < 3% vs the
  // pre-observability snapshot).
  rpm::obs::Tracer::Default().set_sample_every(16);
  rpm::obs::Tracer::Default().Enable(true);

  // A long-pattern model: window near the series length means each
  // representative pattern spans most of the series, so every request
  // scans few windows per pattern and the fixed per-request costs of
  // each mode stand out.
  const rpm::ts::DatasetSplit split = rpm::ts::MakeTrace(160, 10, 512, 7);
  rpm::core::RpmOptions options;
  options.search = rpm::core::ParameterSearch::kFixed;
  options.fixed_sax.window = 448;
  options.fixed_sax.paa_size = 8;
  options.fixed_sax.alphabet = 5;
  options.gamma = 0.001;
  options.tau_percentile = 10;
  rpm::core::RpmClassifier clf(options);
  const auto train0 = Clock::now();
  clf.Train(split.train);
  std::size_t pattern_values = 0;
  for (const auto& p : clf.patterns()) pattern_values += p.values.size();
  std::fprintf(stderr,
               "[serve_bench] trained: %zu patterns (mean length %.0f) "
               "in %.1fs (%zu train)\n",
               clf.patterns().size(),
               clf.patterns().empty()
                   ? 0.0
                   : double(pattern_values) / double(clf.patterns().size()),
               Seconds(train0, Clock::now()), split.train.size());

  // Request stream: the test split cycled. Sized so the slowest mode
  // still finishes in seconds.
  rpm::ts::Dataset requests;
  const std::size_t kRequests = 800;
  for (std::size_t i = 0; i < kRequests; ++i) {
    requests.Add(split.test[i % split.test.size()]);
  }

  // Best-of-3 trials per mode: a 1-core box shares its core with the OS,
  // so any single trial can be distorted by scheduler noise; the best
  // trial is the least-perturbed measurement of each mode.
  constexpr int kTrials = 3;

  ModeResult per_request = RunPerRequest(clf, requests);
  for (int t = 1; t < kTrials; ++t) {
    const ModeResult r = RunPerRequest(clf, requests);
    if (r.throughput_rps() > per_request.throughput_rps()) per_request = r;
  }
  PrintMode(per_request);

  rpm::serve::ServerOptions server_options;
  server_options.default_timeout = std::chrono::seconds(120);

  ModeResult single_stream;
  ModeResult clients16;
  std::string metrics_text;
  std::string spans_json;
  std::string stats_json;
  {
    rpm::serve::InferenceServer server(server_options);
    server.AddModel("bench", std::move(clf));
    single_stream = RunServeClients(server, requests, 1);
    for (int t = 1; t < kTrials; ++t) {
      const ModeResult r = RunServeClients(server, requests, 1);
      if (r.throughput_rps() > single_stream.throughput_rps())
        single_stream = r;
    }
    PrintMode(single_stream);
    clients16 = RunServeClients(server, requests, 16);
    for (int t = 1; t < kTrials; ++t) {
      const ModeResult r = RunServeClients(server, requests, 16);
      if (r.throughput_rps() > clients16.throughput_rps()) clients16 = r;
    }
    PrintMode(clients16);
    stats_json = server.Stats().ToJson();
    std::fprintf(stderr, "[serve_bench] server stats: %s\n",
                 stats_json.c_str());
    // The METRICS scrape and recent spans, captured while the server is
    // still in scope (its registry dies with it).
    metrics_text = server.MetricsText();
    spans_json = server.HandleLine("TRACE 64").substr(3);  // strip "OK "
  }

  const double speedup =
      clients16.throughput_rps() / per_request.throughput_rps();
  std::printf("16-client speedup vs per-request classification: %.2fx\n",
              speedup);

  std::string json = "{\"host\":" + rpm::bench::HostJson() + ",";
  json += "\"bench\":\"serve\",\"dataset\":\"Trace\",";
  AppendJson(json, per_request);
  json += ",";
  AppendJson(json, single_stream);
  json += ",";
  AppendJson(json, clients16);
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"speedup_16c_vs_per_request\":%.3f}",
                speedup);
  json += buf;
  if (!WriteFile("BENCH_serve.json", json)) return 1;
  std::printf("-> BENCH_serve.json\n");

  // The end-of-run observability scrape: the full Prometheus text (as
  // one escaped string), the final STATS JSON (same registry — the two
  // must agree), and the most recent sampled spans.
  std::string metrics_json = "{\"host\":" + rpm::bench::HostJson() + ",";
  metrics_json += "\"bench\":\"serve_metrics\",";
  metrics_json += "\"stats\":" + stats_json + ",";
  metrics_json += "\"spans\":" + spans_json + ",";
  metrics_json +=
      "\"prometheus_text\":\"" + JsonEscape(metrics_text) + "\"}";
  if (!WriteFile("BENCH_serve_metrics.json", metrics_json)) return 1;
  std::printf("-> BENCH_serve_metrics.json\n");
  return 0;
}
