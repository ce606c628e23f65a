// Streaming-subsystem benchmark: sustained per-session ingest rate and
// per-decision latency for the sliding-window scorer, single-session and
// with 8 concurrent sessions, plus a shard sweep (1/2/4/8 shards)
// through the full sharded InferenceServer feed path. Writes
// BENCH_stream.json.
//
// The feed is a generated CBF signal (concatenated instances — the
// regime changes every series length, like a sensor switching behavior).
// The scorer's cost is one RollingStats update per sample plus, every
// `hop` samples, one window materialization + z-norm + warm-context
// best-match scan; samples/sec therefore rises with hop and falls with
// window, and the headline number pins the default demo geometry
// (window 128, hop 16).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/rpm.h"
#include "harness.h"
#include "serve/server.h"
#include "stream/session_manager.h"
#include "stream/stream_scorer.h"
#include "ts/generators.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

double PercentileUs(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * double(values.size() - 1);
  return values[std::size_t(rank + 0.5)];
}

struct ModeResult {
  std::string name;
  std::size_t sessions = 1;
  std::size_t samples_per_session = 0;
  std::size_t decisions = 0;
  double seconds = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  /// The acceptance metric: ingest rate of ONE session's feed.
  double samples_per_sec_per_session() const {
    return seconds > 0.0 ? double(samples_per_session) / seconds : 0.0;
  }
};

void PrintMode(const ModeResult& r) {
  std::printf(
      "%-18s %zu session(s)  %10.0f samples/s/session  %6zu decisions  "
      "p50 %7.1f us  p95 %7.1f us\n",
      r.name.c_str(), r.sessions, r.samples_per_sec_per_session(),
      r.decisions, r.p50_us, r.p95_us);
}

void AppendJson(std::string& out, const ModeResult& r) {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "\"%s\":{\"sessions\":%zu,\"samples_per_session\":%zu,"
      "\"decisions\":%zu,\"seconds\":%.4f,"
      "\"samples_per_sec_per_session\":%.0f,"
      "\"decision_p50_us\":%.1f,\"decision_p95_us\":%.1f}",
      r.name.c_str(), r.sessions, r.samples_per_session, r.decisions,
      r.seconds, r.samples_per_sec_per_session(), r.p50_us, r.p95_us);
  out += buf;
}

// Feeds the whole signal through one scorer in `chunk`-sample pieces
// (the socket-delivery shape), collecting per-decision scoring times.
ModeResult RunSession(const rpm::core::ClassificationEngine& engine,
                      const std::vector<double>& feed, std::size_t chunk) {
  rpm::stream::StreamOptions options;
  options.window = 128;
  options.hop = 16;
  const std::string error = rpm::stream::ValidateStreamOptions(&options);
  if (!error.empty()) {
    std::fprintf(stderr, "stream_bench: %s\n", error.c_str());
    std::exit(1);
  }
  rpm::stream::StreamScorer scorer(&engine, options);
  std::vector<rpm::stream::StreamDecision> decisions;
  decisions.reserve(feed.size() / options.hop + 1);

  ModeResult result;
  result.samples_per_session = feed.size();
  const auto t0 = Clock::now();
  std::size_t offset = 0;
  while (offset < feed.size()) {
    const std::size_t n = std::min(chunk, feed.size() - offset);
    const std::size_t accepted = scorer.Feed(
        rpm::ts::SeriesView(feed.data() + offset, n), &decisions);
    if (accepted == 0) {
      std::fprintf(stderr, "stream_bench: unexpected backpressure stall\n");
      std::exit(1);
    }
    offset += accepted;
  }
  result.seconds = Seconds(t0, Clock::now());
  result.decisions = decisions.size();
  std::vector<double> score_us;
  score_us.reserve(decisions.size());
  for (const auto& d : decisions) score_us.push_back(d.score_us);
  result.p50_us = PercentileUs(score_us, 50.0);
  result.p95_us = PercentileUs(score_us, 95.0);
  return result;
}

// ---- Shard sweep: the full server feed path at S = 1, 2, 4, 8 ----
//
// One session pinned to each of S shards, S feeder threads pushing the
// same signal through InferenceServer::FeedStream (chunked like the
// socket path). This measures what the sharded front end buys: feeds to
// different shards share no locks, so aggregate samples/s should scale
// with shards up to the core count. Decisions must stay bit-identical
// to the single ReplayWindows reference on every shard — sharding is a
// concurrency change, never a numeric one.

struct ShardRow {
  std::size_t shard = 0;
  double seconds = 0.0;
  std::size_t decisions = 0;
  double samples_per_sec = 0.0;
};

struct SweepResult {
  std::size_t shards = 0;
  std::size_t samples_per_session = 0;
  double seconds = 0.0;
  std::size_t decisions = 0;
  bool bit_identical = true;
  std::vector<ShardRow> rows;
  double aggregate_samples_per_sec() const {
    return seconds > 0.0
               ? double(samples_per_session * shards) / seconds
               : 0.0;
  }
};

SweepResult RunShardSweep(
    const std::string& model_blob, const std::vector<double>& feed,
    const std::vector<rpm::stream::StreamDecision>& reference,
    std::size_t shards, std::size_t chunk) {
  rpm::serve::ServerOptions server_options;
  server_options.num_shards = shards;
  server_options.streaming.reap_interval = std::chrono::nanoseconds::zero();
  rpm::serve::InferenceServer server(server_options);
  {
    std::istringstream in(model_blob);
    server.AddModel("cbf", rpm::core::RpmClassifier::Load(in));
  }

  rpm::stream::StreamOptions options;
  options.window = 128;
  options.hop = 16;
  std::vector<std::string> ids;
  for (std::size_t s = 0; s < shards; ++s) {
    const auto open = server.OpenStream("cbf", options, s);
    if (!open.ok) {
      std::fprintf(stderr, "stream_bench: open on shard %zu: %s\n", s,
                   open.error.c_str());
      std::exit(1);
    }
    ids.push_back(open.id);
  }

  SweepResult result;
  result.shards = shards;
  result.samples_per_session = feed.size();
  std::vector<ShardRow> rows(shards);
  std::vector<std::vector<rpm::stream::StreamDecision>> decisions(shards);
  const auto t0 = Clock::now();
  std::vector<std::thread> feeders;
  for (std::size_t s = 0; s < shards; ++s) {
    feeders.emplace_back([&, s] {
      const auto s0 = Clock::now();
      std::size_t offset = 0;
      while (offset < feed.size()) {
        const std::size_t n = std::min(chunk, feed.size() - offset);
        auto fed = server.FeedStream(
            ids[s], rpm::ts::SeriesView(feed.data() + offset, n));
        if (fed.status !=
            rpm::stream::StreamSessionManager::FeedStatus::kOk) {
          std::fprintf(stderr, "stream_bench: feed failed on shard %zu\n",
                       s);
          std::exit(1);
        }
        offset += fed.accepted;
        for (auto& d : fed.decisions) decisions[s].push_back(d);
      }
      rows[s].shard = s;
      rows[s].seconds = Seconds(s0, Clock::now());
      rows[s].decisions = decisions[s].size();
      rows[s].samples_per_sec =
          rows[s].seconds > 0.0 ? double(feed.size()) / rows[s].seconds
                                : 0.0;
    });
  }
  for (auto& t : feeders) t.join();
  result.seconds = Seconds(t0, Clock::now());
  result.rows = std::move(rows);

  for (std::size_t s = 0; s < shards; ++s) {
    result.decisions += decisions[s].size();
    bool same = decisions[s].size() == reference.size();
    for (std::size_t k = 0; same && k < reference.size(); ++k) {
      same = decisions[s][k].window_index == reference[k].window_index &&
             decisions[s][k].label == reference[k].label &&
             decisions[s][k].margin == reference[k].margin;
    }
    if (!same) {
      result.bit_identical = false;
      std::fprintf(stderr,
                   "stream_bench: shard %zu decisions diverge from the "
                   "blocking-path reference\n",
                   s);
    }
  }
  server.Shutdown();
  return result;
}

void AppendSweepJson(std::string& out, const SweepResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"shards\":%zu,\"samples_per_session\":%zu,"
                "\"seconds\":%.4f,\"decisions\":%zu,"
                "\"aggregate_samples_per_sec\":%.0f,"
                "\"bit_identical\":%s,\"per_shard\":[",
                r.shards, r.samples_per_session, r.seconds, r.decisions,
                r.aggregate_samples_per_sec(),
                r.bit_identical ? "true" : "false");
  out += buf;
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    if (i > 0) out += ',';
    std::snprintf(buf, sizeof(buf),
                  "{\"shard\":%zu,\"seconds\":%.4f,\"decisions\":%zu,"
                  "\"samples_per_sec\":%.0f}",
                  r.rows[i].shard, r.rows[i].seconds, r.rows[i].decisions,
                  r.rows[i].samples_per_sec);
    out += buf;
  }
  out += "]}";
}

}  // namespace

int main() {
  const rpm::ts::DatasetSplit split = rpm::ts::MakeCbf(10, 6, 128, 778);
  rpm::core::RpmOptions options;
  options.search = rpm::core::ParameterSearch::kFixed;
  options.fixed_sax.window = 32;
  options.fixed_sax.paa_size = 5;
  options.fixed_sax.alphabet = 4;
  rpm::core::RpmClassifier clf(options);
  const auto train0 = Clock::now();
  clf.Train(split.train);
  const rpm::core::ClassificationEngine engine(clf);
  std::fprintf(stderr, "[stream_bench] trained CBF: %zu patterns in %.1fs\n",
               clf.patterns().size(), Seconds(train0, Clock::now()));

  // ~1M-sample feed: long enough that steady-state throughput dominates
  // the measurement, short enough for a few-second run.
  const rpm::ts::DatasetSplit feed_split = rpm::ts::MakeCbf(1, 2700, 128, 99);
  std::vector<double> feed;
  feed.reserve(feed_split.test.size() * 128);
  for (const auto& inst : feed_split.test.instances()) {
    feed.insert(feed.end(), inst.values.begin(), inst.values.end());
  }
  std::fprintf(stderr, "[stream_bench] feed: %zu samples\n", feed.size());

  constexpr std::size_t kChunk = 256;
  constexpr int kTrials = 3;

  // Best-of-3 (scheduler-noise shield, same policy as serve_bench).
  ModeResult single = RunSession(engine, feed, kChunk);
  for (int t = 1; t < kTrials; ++t) {
    const ModeResult r = RunSession(engine, feed, kChunk);
    if (r.samples_per_sec_per_session() >
        single.samples_per_sec_per_session()) {
      single = r;
    }
  }
  single.name = "single_session";
  PrintMode(single);

  // 8 sessions fed from 8 threads: per-session rate shows the
  // interference cost (cache pressure, SMT sharing) of concurrent
  // streams; the manager's shared map is off the per-sample path.
  constexpr std::size_t kSessions = 8;
  ModeResult eight;
  eight.name = "eight_sessions";
  eight.sessions = kSessions;
  eight.samples_per_session = feed.size();
  {
    std::vector<ModeResult> per_thread(kSessions);
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < kSessions; ++s) {
      threads.emplace_back([&, s] {
        per_thread[s] = RunSession(engine, feed, kChunk);
      });
    }
    for (auto& t : threads) t.join();
    eight.seconds = Seconds(t0, Clock::now());
    std::vector<double> all_us;
    for (const auto& r : per_thread) {
      eight.decisions += r.decisions;
      all_us.push_back(r.p50_us);  // per-session medians, summarized
    }
    eight.p50_us = PercentileUs(all_us, 50.0);
    std::vector<double> p95s;
    for (const auto& r : per_thread) p95s.push_back(r.p95_us);
    eight.p95_us = PercentileUs(p95s, 50.0);
  }
  PrintMode(eight);

  const bool pass = single.samples_per_sec_per_session() >= 100000.0;
  std::printf("single-session sustained rate: %.0f samples/s (%s 100k floor)\n",
              single.samples_per_sec_per_session(),
              pass ? "meets" : "BELOW");

  // Shard sweep through the sharded server (one pinned session per
  // shard, S feeder threads). A shorter feed than the scorer modes: the
  // sweep runs 4 configurations and up to 8 concurrent sessions.
  std::string model_blob;
  {
    std::stringstream out;
    clf.Save(out);
    model_blob = out.str();
  }
  const std::vector<double> sweep_feed(
      feed.begin(),
      feed.begin() +
          std::min<std::size_t>(feed.size(), std::size_t{128} * 1024));
  rpm::stream::StreamOptions sweep_options;
  sweep_options.window = 128;
  sweep_options.hop = 16;
  const std::vector<rpm::stream::StreamDecision> reference =
      rpm::stream::ReplayWindows(
          engine,
          rpm::ts::SeriesView(sweep_feed.data(), sweep_feed.size()),
          sweep_options);
  bool sweep_identical = true;
  std::vector<SweepResult> sweep;
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    SweepResult r =
        RunShardSweep(model_blob, sweep_feed, reference, shards, kChunk);
    std::printf(
        "shard sweep %zu shard(s): %10.0f samples/s aggregate  "
        "%6zu decisions  %s\n",
        r.shards, r.aggregate_samples_per_sec(), r.decisions,
        r.bit_identical ? "bit-identical" : "DIVERGED");
    sweep_identical = sweep_identical && r.bit_identical;
    sweep.push_back(std::move(r));
  }

  std::string json = "{\"host\":" + rpm::bench::HostJson() + ",";
  json += "\"bench\":\"stream\",\"dataset\":\"CBF\",";
  json += "\"window\":128,\"hop\":16,\"chunk\":" + std::to_string(kChunk) +
          ",";
  AppendJson(json, single);
  json += ",";
  AppendJson(json, eight);
  json += ",\"shard_sweep\":[";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    if (i > 0) json += ',';
    AppendSweepJson(json, sweep[i]);
  }
  json += "]}";
  std::FILE* f = std::fopen("BENCH_stream.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_stream.json\n");
    return 1;
  }
  std::fprintf(f, "%s\n", json.c_str());
  std::fclose(f);
  std::printf("-> BENCH_stream.json\n");
  return (pass && sweep_identical) ? 0 : 1;
}
