// Tests for the streaming subsystem (src/stream): ring-buffer indexing,
// incremental-moment drift bounds, the streaming-equals-batch golden
// equivalence, early classification, session lifecycle/eviction, the
// STREAM_* protocol verbs, and concurrent feeds across sessions. The
// StreamConcurrency tests double as the TSan surface driven by
// scripts/tsan_check.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.h"
#include "stream/session_manager.h"
#include "stream/stream_buffer.h"
#include "stream/stream_scorer.h"
#include "ts/generators.h"
#include "ts/rng.h"
#include "ts/znorm.h"

namespace rpm {
namespace {

// One small trained model per test binary run (training dominates).
struct TrainedFixture {
  ts::DatasetSplit split;
  core::RpmClassifier classifier;
};

const TrainedFixture& Fixture() {
  static const TrainedFixture* fixture = [] {
    core::RpmOptions options;
    options.search = core::ParameterSearch::kFixed;
    options.fixed_sax.window = 32;
    options.fixed_sax.paa_size = 5;
    options.fixed_sax.alphabet = 4;
    auto* f = new TrainedFixture{ts::MakeCbf(10, 6, 128, 778),
                                 core::RpmClassifier(options)};
    f->classifier.Train(f->split.train);
    return f;
  }();
  return *fixture;
}

core::RpmClassifier TrainedCopy() {
  std::stringstream buffer;
  Fixture().classifier.Save(buffer);
  return core::RpmClassifier::Load(buffer);
}

// A deterministic multi-regime feed: test instances laid end to end.
std::vector<double> MakeFeed(std::size_t instances, std::uint64_t seed) {
  const ts::DatasetSplit split =
      ts::MakeCbf(1, (instances + 2) / 3, 128, seed);
  std::vector<double> feed;
  for (const auto& inst : split.test.instances()) {
    if (feed.size() >= instances * 128) break;
    feed.insert(feed.end(), inst.values.begin(), inst.values.end());
  }
  return feed;
}

// ---------------- StreamBuffer ----------------

TEST(StreamBuffer, IndicesSurviveWrapAround) {
  stream::StreamBuffer buffer(8);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(buffer.Push(double(round * 6 + i)));
    }
    buffer.DiscardBefore(buffer.end() - 2);  // keep the last two
  }
  // Every retained sample still reads back by its stream index.
  for (std::uint64_t i = buffer.begin(); i < buffer.end(); ++i) {
    EXPECT_EQ(buffer.At(i), double(i));
  }
  EXPECT_EQ(buffer.end(), 30u);
}

TEST(StreamBuffer, PushRefusesWhenFullAndCopyToUnwraps) {
  stream::StreamBuffer buffer(4);
  const double values[] = {1, 2, 3, 4, 5};
  EXPECT_EQ(buffer.PushSome(ts::SeriesView(values, 5)),
            4u);  // truncated: the backpressure signal
  EXPECT_FALSE(buffer.Push(9.0));
  buffer.DiscardBefore(2);
  EXPECT_TRUE(buffer.Push(5.0));  // slot freed; ring has wrapped
  double out[3] = {0, 0, 0};
  buffer.CopyTo(2, 3, out);  // spans the wrap point
  EXPECT_EQ(out[0], 3.0);
  EXPECT_EQ(out[1], 4.0);
  EXPECT_EQ(out[2], 5.0);
}

TEST(StreamBuffer, DiscardClampsToEnd) {
  stream::StreamBuffer buffer(4);
  buffer.Push(1.0);
  buffer.Push(2.0);
  buffer.DiscardBefore(100);
  EXPECT_EQ(buffer.begin(), buffer.end());
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_TRUE(buffer.Push(3.0));
  EXPECT_EQ(buffer.At(2), 3.0);
}

// ---------------- RollingStats drift ----------------

// Exact moments of window [i, i + w) of `data`, direct summation.
void ExactMoments(const std::vector<double>& data, std::size_t start,
                  std::size_t w, double* mu, double* sigma) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = start; i < start + w; ++i) {
    sum += data[i];
    sum_sq += data[i] * data[i];
  }
  ts::WindowMomentsFromSums(sum, sum_sq, 1.0 / double(w), mu, sigma);
}

TEST(RollingStats, DriftStaysBelow1e9OverMillionSamples) {
  // A random walk is the adversarial case for incremental moments: the
  // mean wanders, so sum and sum_sq cancellation error accumulates.
  constexpr std::size_t kWindow = 64;
  constexpr std::size_t kSamples = 1'200'000;
  ts::Rng rng(1234);
  std::vector<double> data(kSamples);
  double level = 0.0;
  for (auto& v : data) {
    level += rng.Gaussian(0.0, 0.1);
    v = level;
  }

  // Periodic exact recompute (the default) must keep drift within 1e-9.
  ts::RollingStats refreshed(kWindow, 1024);
  // The refresh-free run documents why the refresh exists; over 1e6
  // random-walk samples raw drift still stays tiny but measurably larger.
  ts::RollingStats raw(kWindow, 0);
  double worst_refreshed = 0.0;
  double worst_raw = 0.0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    if (i < kWindow) {
      refreshed.Add(data[i]);
      raw.Add(data[i]);
      continue;
    }
    refreshed.Slide(data[i], data[i - kWindow]);
    raw.Slide(data[i], data[i - kWindow]);
    if (refreshed.NeedsRefresh()) {
      refreshed.Refresh(
          ts::SeriesView(data.data() + i + 1 - kWindow, kWindow));
    }
    if (i % 1000 == 0 || i + 1 == kSamples) {
      double mu_exact = 0.0;
      double sigma_exact = 0.0;
      ExactMoments(data, i + 1 - kWindow, kWindow, &mu_exact, &sigma_exact);
      double mu = 0.0;
      double sigma = 0.0;
      refreshed.Moments(&mu, &sigma);
      worst_refreshed = std::max(
          {worst_refreshed, std::abs(mu - mu_exact),
           std::abs(sigma - sigma_exact)});
      raw.Moments(&mu, &sigma);
      worst_raw = std::max({worst_raw, std::abs(mu - mu_exact),
                            std::abs(sigma - sigma_exact)});
    }
  }
  EXPECT_LT(worst_refreshed, 1e-9);
  EXPECT_LT(worst_raw, 1e-6);  // still bounded, just visibly worse
}

TEST(RollingStats, RefreshIntervalOneMatchesExactBitwise) {
  constexpr std::size_t kWindow = 32;
  ts::Rng rng(99);
  std::vector<double> data(4096);
  for (auto& v : data) v = rng.Gaussian(5.0, 3.0);
  ts::RollingStats stats(kWindow, 1);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i < kWindow) {
      stats.Add(data[i]);
      continue;
    }
    stats.Slide(data[i], data[i - kWindow]);
    if (stats.NeedsRefresh()) {
      stats.Refresh(ts::SeriesView(data.data() + i + 1 - kWindow, kWindow));
    }
    double mu = 0.0;
    double sigma = 0.0;
    stats.Moments(&mu, &sigma);
    double mu_exact = 0.0;
    double sigma_exact = 0.0;
    ExactMoments(data, i + 1 - kWindow, kWindow, &mu_exact, &sigma_exact);
    ASSERT_EQ(mu, mu_exact);  // bit-identical, not just close
    ASSERT_EQ(sigma, sigma_exact);
  }
}

// ---------------- Streaming == batch (golden) ----------------

// With stats_refresh_interval == 1 the rolling sums are recomputed
// exactly before every score, so the streaming path must be bit-identical
// to materializing each hop window from the feed and classifying it with
// the batch engine.
TEST(GoldenStreaming, HopWindowsMatchBatchClassifyBitIdentically) {
  const core::ClassificationEngine engine(Fixture().classifier);
  const std::vector<double> feed = MakeFeed(12, 4242);
  stream::StreamOptions options;
  options.window = 128;
  options.hop = 16;
  options.stats_refresh_interval = 1;

  std::vector<ts::Series> seen;
  const std::vector<stream::StreamDecision> decisions =
      stream::ReplayWindows(engine,
                            ts::SeriesView(feed.data(), feed.size()),
                            options, &seen);
  ASSERT_EQ(decisions.size(), (feed.size() - 128) / 16 + 1);
  ASSERT_EQ(seen.size(), decisions.size());

  for (std::size_t k = 0; k < decisions.size(); ++k) {
    const stream::StreamDecision& d = decisions[k];
    EXPECT_EQ(d.window_index, k);
    EXPECT_EQ(d.start, k * 16);
    EXPECT_EQ(d.length, 128u);
    EXPECT_FALSE(d.early);

    // Batch side: materialize + z-normalize the same window directly.
    double sum = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < 128; ++i) {
      const double v = feed[k * 16 + i];
      sum += v;
      sum_sq += v * v;
    }
    double mu = 0.0;
    double sigma = 0.0;
    ts::WindowMomentsFromSums(sum, sum_sq, 1.0 / 128.0, &mu, &sigma);
    ts::Series window(128);
    for (std::size_t i = 0; i < 128; ++i) {
      window[i] = (feed[k * 16 + i] - mu) * (1.0 / sigma);
    }
    ASSERT_EQ(window, seen[k]);  // normalized windows bit-identical

    // Same label as the batch engine on the same materialized window —
    // and Classify(s) == PredictRow(Row(s)) is the engine's contract.
    EXPECT_EQ(d.label, engine.Classify(
                           ts::SeriesView(window.data(), window.size())));
  }
}

// Decisions must not depend on how the feed is chunked: the per-sample
// state machine sees the same sample sequence either way.
TEST(GoldenStreaming, ChunkingInvariantBitIdentical) {
  const core::ClassificationEngine engine(Fixture().classifier);
  const std::vector<double> feed = MakeFeed(9, 777);
  stream::StreamOptions options;
  options.window = 96;
  options.hop = 17;  // deliberately not a divisor of anything

  const std::vector<stream::StreamDecision> oneshot = stream::ReplayWindows(
      engine, ts::SeriesView(feed.data(), feed.size()), options);

  stream::StreamOptions live_options = options;
  ASSERT_EQ(stream::ValidateStreamOptions(&live_options), "");
  stream::StreamScorer live(&engine, live_options);
  std::vector<stream::StreamDecision> chunked;
  ts::Rng rng(31337);
  std::size_t offset = 0;
  while (offset < feed.size()) {
    const std::size_t n =
        std::min<std::size_t>(std::size_t(rng.UniformInt(1, 257)),
                              feed.size() - offset);
    const std::size_t accepted = live.Feed(
        ts::SeriesView(feed.data() + offset, n), &chunked);
    ASSERT_EQ(accepted, n);  // ample capacity: no backpressure expected
    offset += n;
  }

  ASSERT_EQ(chunked.size(), oneshot.size());
  for (std::size_t i = 0; i < chunked.size(); ++i) {
    EXPECT_EQ(chunked[i].window_index, oneshot[i].window_index);
    EXPECT_EQ(chunked[i].label, oneshot[i].label);
    EXPECT_EQ(chunked[i].margin, oneshot[i].margin);  // bitwise
    EXPECT_EQ(chunked[i].length, oneshot[i].length);
  }
}

TEST(StreamOptionsValidation, RejectsBadGeometry) {
  stream::StreamOptions options;
  EXPECT_NE(stream::ValidateStreamOptions(&options), "");  // window == 0
  options.window = 32;
  options.capacity = 33;  // must exceed window + 1
  EXPECT_NE(stream::ValidateStreamOptions(&options), "");
  options.capacity = 0;
  options.early_fraction = 1.5;
  EXPECT_NE(stream::ValidateStreamOptions(&options), "");
  options.early_fraction = 0.0;
  EXPECT_EQ(stream::ValidateStreamOptions(&options), "");
  EXPECT_EQ(options.hop, 32u);       // tumbling default
  EXPECT_GE(options.capacity, 34u);  // auto capacity
}

// ---------------- Early classification ----------------

TEST(EarlyClassification, ZeroMarginThresholdDecidesOnFirstProbe) {
  const core::ClassificationEngine engine(Fixture().classifier);
  const std::vector<double> feed = MakeFeed(3, 555);
  stream::StreamOptions options;
  options.window = 128;
  options.early_fraction = 0.5;
  options.early_margin = 0.0;  // any margin qualifies
  ASSERT_EQ(stream::ValidateStreamOptions(&options), "");

  stream::StreamScorer scorer(&engine, options);
  std::vector<stream::StreamDecision> decisions;
  // 80 samples: past the 64-sample early threshold, short of the window.
  ASSERT_EQ(scorer.Feed(ts::SeriesView(feed.data(), 80), &decisions), 80u);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_TRUE(decisions[0].early);
  EXPECT_EQ(decisions[0].length, 80u);
  EXPECT_EQ(decisions[0].window_index, 0u);

  // The decided hop emits nothing more when its full window completes.
  decisions.clear();
  ASSERT_EQ(scorer.Feed(ts::SeriesView(feed.data() + 80, 48), &decisions),
            48u);
  EXPECT_TRUE(decisions.empty());
  EXPECT_EQ(scorer.early_decisions(), 1u);
  EXPECT_EQ(scorer.decisions(), 1u);
}

TEST(EarlyClassification, UnreachableMarginDefersToFullWindow) {
  const core::ClassificationEngine engine(Fixture().classifier);
  const std::vector<double> feed = MakeFeed(3, 555);
  stream::StreamOptions options;
  options.window = 128;
  options.early_fraction = 0.25;
  options.early_margin = 1.0;  // only an exact-zero distance reaches it
  ASSERT_EQ(stream::ValidateStreamOptions(&options), "");

  stream::StreamScorer scorer(&engine, options);
  std::vector<stream::StreamDecision> decisions;
  // Probe repeatedly below the window; none should qualify.
  for (std::size_t fed = 0; fed < 128; fed += 40) {
    const std::size_t n = std::min<std::size_t>(40, 128 - fed);
    scorer.Feed(ts::SeriesView(feed.data() + fed, n), &decisions);
  }
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_FALSE(decisions[0].early);  // the full window decided
  EXPECT_EQ(decisions[0].length, 128u);
  EXPECT_GT(scorer.windows_scored(), 1u);  // probes happened, none fired
}

// ---------------- Session manager ----------------

stream::StreamModel PinnedFixtureModel() {
  static const core::ClassificationEngine* engine =
      new core::ClassificationEngine(Fixture().classifier);
  stream::StreamModel model;
  model.engine = engine;
  return model;
}

stream::StreamManagerOptions NoReaper() {
  stream::StreamManagerOptions options;
  options.reap_interval = std::chrono::nanoseconds::zero();
  return options;
}

TEST(SessionManager, OpenFeedCloseLifecycle) {
  stream::StreamSessionManager manager(NoReaper());
  stream::StreamOptions options;
  options.window = 64;
  options.hop = 64;
  const auto open = manager.Open(PinnedFixtureModel(), options);
  ASSERT_TRUE(open.ok) << open.error;
  EXPECT_EQ(open.id, "s1");
  EXPECT_EQ(manager.size(), 1u);

  const std::vector<double> feed = MakeFeed(3, 9001);
  const auto fed = manager.Feed(
      open.id, ts::SeriesView(feed.data(), 200));
  EXPECT_EQ(fed.status, stream::StreamSessionManager::FeedStatus::kOk);
  EXPECT_EQ(fed.accepted, 200u);
  EXPECT_EQ(fed.decisions.size(), 3u);  // 200 / 64 tumbling windows

  const auto closed = manager.Close(open.id);
  ASSERT_TRUE(closed.found);
  EXPECT_EQ(closed.summary.samples, 200u);
  EXPECT_EQ(closed.summary.decisions, 3u);
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_FALSE(manager.Close(open.id).found);
}

TEST(SessionManager, UnknownIdAndBadOptionsFail) {
  stream::StreamSessionManager manager(NoReaper());
  const double v = 1.0;
  EXPECT_EQ(manager.Feed("s404", ts::SeriesView(&v, 1)).status,
            stream::StreamSessionManager::FeedStatus::kNotFound);
  stream::StreamOptions bad;  // window == 0
  EXPECT_FALSE(manager.Open(PinnedFixtureModel(), bad).ok);
  stream::StreamModel no_engine;
  stream::StreamOptions ok;
  ok.window = 8;
  EXPECT_FALSE(manager.Open(std::move(no_engine), ok).ok);
}

TEST(SessionManager, MaxSessionsCapAndIds) {
  stream::StreamManagerOptions manager_options = NoReaper();
  manager_options.max_sessions = 2;
  stream::StreamSessionManager manager(manager_options);
  stream::StreamOptions options;
  options.window = 16;
  ASSERT_TRUE(manager.Open(PinnedFixtureModel(), options).ok);
  ASSERT_TRUE(manager.Open(PinnedFixtureModel(), options).ok);
  const auto third = manager.Open(PinnedFixtureModel(), options);
  EXPECT_FALSE(third.ok);
  EXPECT_EQ(third.error, "too many open streams");
  EXPECT_EQ(manager.Ids(), (std::vector<std::string>{"s1", "s2"}));
}

TEST(SessionManager, EvictIdleRemovesOnlyStaleSessions) {
  stream::StreamSessionManager manager(NoReaper());
  stream::StreamOptions options;
  options.window = 16;
  const auto stale = manager.Open(PinnedFixtureModel(), options);
  const auto fresh = manager.Open(PinnedFixtureModel(), options);
  ASSERT_TRUE(stale.ok);
  ASSERT_TRUE(fresh.ok);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::vector<double> feed = MakeFeed(1, 1);
  manager.Feed(fresh.id, ts::SeriesView(feed.data(), 8));  // touch
  EXPECT_EQ(manager.EvictIdle(std::chrono::milliseconds(10)), 1u);
  EXPECT_EQ(manager.Ids(), std::vector<std::string>{fresh.id});
}

TEST(SessionManager, ShutdownClosesEverythingAndRejectsNew) {
  stream::StreamSessionManager manager(NoReaper());
  stream::StreamOptions options;
  options.window = 16;
  ASSERT_TRUE(manager.Open(PinnedFixtureModel(), options).ok);
  manager.Shutdown();
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_FALSE(manager.Open(PinnedFixtureModel(), options).ok);
  const double v = 1.0;
  EXPECT_EQ(manager.Feed("s1", ts::SeriesView(&v, 1)).status,
            stream::StreamSessionManager::FeedStatus::kShutdown);
}

// ---------------- Protocol round trip ----------------

TEST(StreamProtocol, OpenFeedCloseRoundTrip) {
  serve::InferenceServer server;
  server.AddModel("cbf", TrainedCopy());

  const std::string opened = server.HandleLine("STREAM_OPEN cbf 64 64");
  ASSERT_EQ(opened.rfind("OK stream s", 0), 0u) << opened;
  const std::string id = opened.substr(10, opened.find(' ', 10) - 10);

  // Feed two windows' worth in CSV.
  const std::vector<double> feed = MakeFeed(1, 3333);
  std::string csv;
  for (std::size_t i = 0; i < 128; ++i) {
    csv.append(i == 0 ? "" : ",").append(std::to_string(feed[i]));
  }
  const std::string fed = server.HandleLine("STREAM_FEED " + id + " " + csv);
  EXPECT_EQ(fed.rfind("OK fed 128 decisions=2", 0), 0u) << fed;

  EXPECT_EQ(server.HandleLine("STREAMS"), "OK 1 " + id);
  const std::string closed = server.HandleLine("STREAM_CLOSE " + id);
  EXPECT_EQ(closed.rfind("OK closed " + id + " samples=128 windows=2", 0),
            0u)
      << closed;
  EXPECT_EQ(server.HandleLine("STREAMS"), "OK 0");

  const std::string stats = server.HandleLine("STATS");
  EXPECT_NE(stats.find("\"streams\":{\"opened\":1,\"closed\":1"),
            std::string::npos)
      << stats;
}

TEST(StreamProtocol, ErrorsAreExplicit) {
  serve::InferenceServer server;
  server.AddModel("cbf", TrainedCopy());
  EXPECT_EQ(server.HandleLine("STREAM_OPEN nope 64").rfind("ERR NOT_FOUND", 0),
            0u);
  EXPECT_EQ(server.HandleLine("STREAM_OPEN cbf").rfind("ERR BAD_REQUEST", 0),
            0u);
  EXPECT_EQ(server.HandleLine("STREAM_OPEN cbf 0").rfind("ERR BAD_REQUEST", 0),
            0u);
  EXPECT_EQ(
      server.HandleLine("STREAM_OPEN cbf 64 abc").rfind("ERR BAD_REQUEST", 0),
      0u);
  EXPECT_EQ(
      server.HandleLine("STREAM_FEED s404 1,2,3").rfind("ERR NOT_FOUND", 0),
      0u);
  EXPECT_EQ(server.HandleLine("STREAM_CLOSE s404").rfind("ERR NOT_FOUND", 0),
            0u);
  const std::string opened = server.HandleLine("STREAM_OPEN cbf 64");
  const std::string id = opened.substr(10, opened.find(' ', 10) - 10);
  EXPECT_EQ(
      server.HandleLine("STREAM_FEED " + id + " 1,x,3")
          .rfind("ERR BAD_REQUEST", 0),
      0u);
}

TEST(StreamProtocol, SessionPinsModelAcrossHotReload) {
  serve::InferenceServer server;
  server.AddModel("cbf", TrainedCopy());
  const std::string opened = server.HandleLine("STREAM_OPEN cbf 64 64");
  ASSERT_EQ(opened.rfind("OK stream", 0), 0u);
  const std::string id = opened.substr(10, opened.find(' ', 10) - 10);
  // Unload the model entirely: the open session must keep classifying.
  ASSERT_TRUE(server.UnloadModel("cbf"));
  const std::vector<double> feed = MakeFeed(1, 77);
  std::string csv;
  for (std::size_t i = 0; i < 64; ++i) {
    csv.append(i == 0 ? "" : ",").append(std::to_string(feed[i]));
  }
  const std::string fed = server.HandleLine("STREAM_FEED " + id + " " + csv);
  EXPECT_EQ(fed.rfind("OK fed 64 decisions=1", 0), 0u) << fed;
}

// ---------------- Concurrency (TSan surface) ----------------

TEST(StreamConcurrency, EightSessionsFeedInParallelWithReloadAndEviction) {
  serve::InferenceServer server;
  server.AddModel("cbf", TrainedCopy());

  constexpr int kSessions = 8;
  std::vector<std::string> ids;
  for (int s = 0; s < kSessions; ++s) {
    stream::StreamOptions options;
    options.window = 64;
    options.hop = 16;
    const auto open = server.OpenStream("cbf", options);
    ASSERT_TRUE(open.ok) << open.error;
    ids.push_back(open.id);
  }

  const std::vector<double> feed = MakeFeed(6, 2024);
  std::atomic<std::uint64_t> total_decisions{0};
  std::vector<std::thread> feeders;
  feeders.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    feeders.emplace_back([&, s] {
      ts::Rng rng(std::uint64_t(s) + 1);
      std::size_t offset = 0;
      std::uint64_t decided = 0;
      while (offset < feed.size()) {
        const std::size_t n =
            std::min<std::size_t>(std::size_t(rng.UniformInt(16, 128)),
                                  feed.size() - offset);
        const auto result = server.FeedStream(
            ids[std::size_t(s)],
            ts::SeriesView(feed.data() + offset, n));
        ASSERT_EQ(result.status,
                  stream::StreamSessionManager::FeedStatus::kOk);
        ASSERT_GT(result.accepted, 0u);
        decided += result.decisions.size();
        offset += result.accepted;
      }
      total_decisions.fetch_add(decided, std::memory_order_relaxed);
    });
  }
  // Concurrent churn: hot reloads, stats reads, and an (ineffective)
  // eviction pass racing the feeds.
  std::thread churn([&] {
    for (int i = 0; i < 10; ++i) {
      server.AddModel("cbf", TrainedCopy());
      (void)server.Stats().ToJson();
      server.streams().EvictIdle(std::chrono::hours(1));
      (void)server.streams().Ids();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& t : feeders) t.join();
  churn.join();

  // Every session saw the identical feed: identical decision counts, and
  // the per-session counters must add up in the shared stats.
  const std::uint64_t per_session = (feed.size() - 64) / 16 + 1;
  EXPECT_EQ(total_decisions.load(), per_session * kSessions);
  const serve::StatsSnapshot snap = server.Stats();
  EXPECT_EQ(snap.stream_samples, feed.size() * kSessions);
  EXPECT_EQ(snap.stream_decisions, per_session * kSessions);
  EXPECT_EQ(snap.streams_opened, std::uint64_t(kSessions));

  for (const auto& id : ids) {
    const auto closed = server.CloseStream(id);
    ASSERT_TRUE(closed.found);
    EXPECT_EQ(closed.summary.samples, feed.size());
    EXPECT_EQ(closed.summary.decisions, per_session);
  }
}

TEST(StreamConcurrency, ShutdownRacesActiveFeeds) {
  serve::InferenceServer server;
  server.AddModel("cbf", TrainedCopy());
  stream::StreamOptions options;
  options.window = 32;
  const auto open = server.OpenStream("cbf", options);
  ASSERT_TRUE(open.ok);

  const std::vector<double> feed = MakeFeed(6, 11);
  std::thread feeder([&] {
    std::size_t offset = 0;
    while (offset < feed.size()) {
      const auto result = server.FeedStream(
          open.id, ts::SeriesView(feed.data() + offset,
                                  std::min<std::size_t>(
                                      64, feed.size() - offset)));
      if (result.status != stream::StreamSessionManager::FeedStatus::kOk) {
        break;  // manager shut down mid-stream: expected
      }
      offset += result.accepted;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  server.Shutdown();
  feeder.join();
  EXPECT_EQ(server.streams().size(), 0u);
}

}  // namespace
}  // namespace rpm
