// Tests for the serving subsystem (src/serve): registry hot reload under
// concurrent traffic, micro-batch formation, deadlines, admission
// control, drain-on-shutdown, the text protocol, and end-to-end
// equivalence with the offline classifier. The *Concurrency tests double
// as the TSan surface driven by scripts/tsan_check.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "serve/server.h"
#include "ts/generators.h"

namespace rpm {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

// One small trained model per test binary run: training is the slow part,
// so every test shares the same fixture data.
struct TrainedFixture {
  ts::DatasetSplit split;
  core::RpmClassifier classifier;
};

const TrainedFixture& Fixture() {
  static const TrainedFixture* fixture = [] {
    core::RpmOptions options;
    options.search = core::ParameterSearch::kFixed;
    options.fixed_sax.window = 30;
    options.fixed_sax.paa_size = 4;
    options.fixed_sax.alphabet = 4;
    auto* f = new TrainedFixture{ts::MakeGunPoint(10, 10, 120, 42),
                                 core::RpmClassifier(options)};
    f->classifier.Train(f->split.train);
    return f;
  }();
  return *fixture;
}

core::RpmClassifier TrainedCopy() {
  // Round-trip through the text format: cheap deep copy of the fixture.
  std::stringstream buffer;
  Fixture().classifier.Save(buffer);
  return core::RpmClassifier::Load(buffer);
}

serve::ServerOptions FastOptions() {
  serve::ServerOptions options;
  options.batching.max_queue_depth = 1024;
  options.batching.num_threads = 2;
  options.default_timeout = milliseconds(10000);
  return options;
}

// Parks shard 0's dispatcher until Release(), so requests submitted in
// between stay queued without a timer. It does so from inside a request's
// completion callback, which deliberately breaks ClassifyWithCallback's
// "must not block" contract; only a test may do that. The held request
// itself completes kOk first, so it counts as one admitted, one ok and
// one batch of one: take counts as differences from a Stats() snapshot
// taken while the hold is in place.
class DispatcherHold {
 public:
  explicit DispatcherHold(serve::InferenceServer& server) {
    auto entered = std::make_shared<std::promise<void>>();
    std::future<void> in_callback = entered->get_future();
    server.ClassifyWithCallback(
        "gp", Fixture().split.test[0].values, milliseconds(60000), 0,
        [entered, release = release_.get_future().share()](
            serve::ClassifyResult result) {
          EXPECT_EQ(result.status, serve::StatusCode::kOk);
          entered->set_value();
          release.wait();
        });
    in_callback.wait();
  }
  ~DispatcherHold() { Release(); }

  void Release() {
    if (!released_) release_.set_value();
    released_ = true;
  }

 private:
  std::promise<void> release_;
  bool released_ = false;
};

TEST(ModelRegistry, LoadGetUnloadNames) {
  const std::string path = testing::TempDir() + "registry_model.rpm";
  Fixture().classifier.SaveToFile(path);

  serve::ModelRegistry registry;
  EXPECT_EQ(registry.Get("gp"), nullptr);
  const std::size_t patterns = registry.Load("gp", path);
  EXPECT_EQ(patterns, Fixture().classifier.patterns().size());
  ASSERT_NE(registry.Get("gp"), nullptr);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.Names(), std::vector<std::string>{"gp"});

  EXPECT_TRUE(registry.Unload("gp"));
  EXPECT_FALSE(registry.Unload("gp"));
  EXPECT_EQ(registry.Get("gp"), nullptr);
}

TEST(ModelRegistry, BadFileLeavesExistingModelUntouched) {
  const std::string path = testing::TempDir() + "registry_bad.rpm";
  serve::ModelRegistry registry;
  registry.Put("gp", TrainedCopy());
  const serve::ModelHandle before = registry.Get("gp");
  EXPECT_THROW(registry.Load("gp", path + ".does-not-exist"),
               std::runtime_error);
  EXPECT_EQ(registry.Get("gp"), before);
}

TEST(ModelRegistry, HandleSurvivesUnloadAndHotSwap) {
  serve::ModelRegistry registry;
  registry.Put("gp", TrainedCopy());
  const serve::ModelHandle handle = registry.Get("gp");
  ASSERT_NE(handle, nullptr);

  registry.Put("gp", TrainedCopy());  // hot swap
  EXPECT_TRUE(registry.Unload("gp"));

  // The retired model keeps serving through the pinned handle.
  const auto& series = Fixture().split.test[0].values;
  EXPECT_EQ(handle->engine.Classify(series),
            Fixture().classifier.Classify(series));
}

TEST(ModelRegistryConcurrency, HotReloadUnderConcurrentClassify) {
  serve::ModelRegistry registry;
  registry.Put("gp", TrainedCopy());
  const auto& test = Fixture().split.test;

  std::atomic<bool> stop{false};
  std::atomic<int> classified{0};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 4; ++t) {
    hammers.emplace_back([&, t] {
      std::size_t i = std::size_t(t);
      while (!stop.load()) {
        const serve::ModelHandle handle = registry.Get("gp");
        ASSERT_NE(handle, nullptr);
        const int label =
            handle->engine.Classify(test[i % test.size()].values);
        EXPECT_TRUE(label == 1 || label == 2);
        classified.fetch_add(1);
        ++i;
      }
    });
  }
  for (int swap = 0; swap < 10; ++swap) {
    registry.Put("gp", TrainedCopy());
    std::this_thread::sleep_for(milliseconds(2));
  }
  stop.store(true);
  for (auto& t : hammers) t.join();
  EXPECT_GT(classified.load(), 0);
}

TEST(BatchingQueue, FormsMicroBatchesFromConcurrentSubmissions) {
  serve::InferenceServer server(FastOptions());
  server.AddModel("gp", TrainedCopy());
  DispatcherHold hold(server);
  const serve::StatsSnapshot held = server.Stats();

  const auto& test = Fixture().split.test;
  std::vector<std::future<serve::ClassifyResult>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.ClassifyAsync(
        "gp", test[std::size_t(i) % test.size()].values, milliseconds(5000)));
  }
  hold.Release();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, serve::StatusCode::kOk);
  }
  const serve::StatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.admitted - held.admitted, 8u);
  EXPECT_EQ(stats.ok - held.ok, 8u);
  // All eight queued behind the held dispatcher, so they share one dispatch.
  EXPECT_EQ(stats.batches - held.batches, 1u);
  EXPECT_DOUBLE_EQ(stats.batch_occupancy.sum - held.batch_occupancy.sum, 8.0);
}

TEST(BatchingQueue, BatchesAreCappedAtMaxBatchSize) {
  serve::InferenceServer server(FastOptions());
  server.AddModel("gp", TrainedCopy());
  DispatcherHold hold(server);
  const serve::StatsSnapshot held = server.Stats();

  constexpr std::size_t kQueued = serve::kMaxBatchSize + 8;
  const auto& test = Fixture().split.test;
  std::vector<std::future<serve::ClassifyResult>> futures;
  for (std::size_t i = 0; i < kQueued; ++i) {
    futures.push_back(server.ClassifyAsync(
        "gp", test[i % test.size()].values, milliseconds(5000)));
  }
  hold.Release();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, serve::StatusCode::kOk);
  }
  const serve::StatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.ok - held.ok, kQueued);
  // One full batch of kMaxBatchSize, then the eight left over.
  EXPECT_EQ(stats.batches - held.batches, 2u);
  EXPECT_DOUBLE_EQ(stats.batch_occupancy.sum - held.batch_occupancy.sum,
                   double(kQueued));
}

TEST(BatchingQueue, ExpiredDeadlineGetsTimeoutWithoutClassification) {
  serve::InferenceServer server(FastOptions());
  server.AddModel("gp", TrainedCopy());
  const serve::ClassifyResult result = server.Classify(
      "gp", Fixture().split.test[0].values, microseconds(0));
  EXPECT_EQ(result.status, serve::StatusCode::kTimeout);
  const serve::StatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.timeout, 1u);
  EXPECT_EQ(stats.ok, 0u);
}

TEST(BatchingQueue, LoneRequestWithShortTimeoutIsClassified) {
  // A free dispatcher scores a lone request at once, so a 1 ms deadline
  // is met whenever the dispatcher wakes within it. Requiring only half
  // of the calls leaves room for loaded or sanitized hosts.
  serve::InferenceServer server;
  server.AddModel("gp", TrainedCopy());
  int ok = 0;
  for (int i = 0; i < 20; ++i) {
    ok += server.Classify("gp", Fixture().split.test[0].values,
                          milliseconds(1))
              .status == serve::StatusCode::kOk;
  }
  EXPECT_GE(ok, 10);
}

TEST(BatchingQueue, AdmissionControlShedsBeyondQueueDepth) {
  serve::ServerOptions options = FastOptions();
  options.batching.max_queue_depth = 4;
  serve::InferenceServer server(options);
  server.AddModel("gp", TrainedCopy());
  DispatcherHold hold(server);
  const serve::StatsSnapshot held = server.Stats();

  // The held dispatcher leaves all ten submissions queued: entries 5..
  // see a full queue and are shed.
  std::vector<std::future<serve::ClassifyResult>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(server.ClassifyAsync(
        "gp", Fixture().split.test[0].values, milliseconds(5000)));
  }
  hold.Release();
  int ok = 0;
  int overloaded = 0;
  for (auto& f : futures) {
    const serve::StatusCode status = f.get().status;
    ok += status == serve::StatusCode::kOk;
    overloaded += status == serve::StatusCode::kOverloaded;
  }
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(overloaded, 6);
  const serve::StatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.shed, 6u);
  EXPECT_EQ(stats.admitted - held.admitted, 4u);
}

TEST(BatchingQueue, ShutdownDrainsAdmittedAndRejectsNew) {
  serve::InferenceServer server(FastOptions());
  server.AddModel("gp", TrainedCopy());
  DispatcherHold hold(server);

  const auto& values = Fixture().split.test[0].values;
  std::vector<std::future<serve::ClassifyResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.ClassifyAsync("gp", values, milliseconds(5000)));
  }
  // Shutdown returns only after the drain, so it runs on its own thread.
  // The hold is released once a probe is rejected with kShutdown, so the
  // queued requests are drained by Shutdown every time. Probes admitted
  // before that queue behind the six and are drained with them.
  std::thread stopper([&] { server.Shutdown(); });
  for (;;) {
    std::future<serve::ClassifyResult> probe =
        server.ClassifyAsync("gp", values, milliseconds(5000));
    // Only a rejection completes while the dispatcher is held.
    if (probe.wait_for(milliseconds(0)) == std::future_status::ready) {
      EXPECT_EQ(probe.get().status, serve::StatusCode::kShutdown);
      break;
    }
    futures.push_back(std::move(probe));
    std::this_thread::sleep_for(milliseconds(1));
  }
  hold.Release();
  stopper.join();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, serve::StatusCode::kOk);
  }
  const serve::ClassifyResult rejected =
      server.Classify("gp", values, milliseconds(100));
  EXPECT_EQ(rejected.status, serve::StatusCode::kShutdown);
}

TEST(InferenceServer, MatchesOfflineClassifierOnWholeTestSet) {
  serve::InferenceServer server(FastOptions());
  server.AddModel("gp", TrainedCopy());
  const auto& test = Fixture().split.test;
  const std::vector<int> expected = Fixture().classifier.ClassifyAll(test);
  for (std::size_t i = 0; i < test.size(); ++i) {
    const serve::ClassifyResult result =
        server.Classify("gp", test[i].values);
    ASSERT_EQ(result.status, serve::StatusCode::kOk);
    EXPECT_EQ(result.label, expected[i]) << "instance " << i;
    EXPECT_GT(result.latency_us, 0.0);
  }
}

TEST(InferenceServer, UnknownModelIsNotFound) {
  serve::InferenceServer server(FastOptions());
  const serve::ClassifyResult result =
      server.Classify("nope", Fixture().split.test[0].values);
  EXPECT_EQ(result.status, serve::StatusCode::kNotFound);
  EXPECT_EQ(server.Stats().not_found, 1u);
}

TEST(InferenceServer, ProtocolRoundTrip) {
  const std::string path = testing::TempDir() + "protocol_model.rpm";
  Fixture().classifier.SaveToFile(path);

  serve::InferenceServer server(FastOptions());
  EXPECT_EQ(server.HandleLine("MODELS"), "OK 0");
  const std::string loaded = server.HandleLine("LOAD gp " + path);
  EXPECT_EQ(loaded.substr(0, 12), "OK loaded gp");
  EXPECT_EQ(server.HandleLine("MODELS"), "OK 1 gp");

  // CLASSIFY agrees with the offline classifier (full double precision so
  // the transform sees bit-identical values).
  const auto& inst = Fixture().split.test[0];
  std::string csv;
  char buf[32];
  for (double v : inst.values) {
    if (!csv.empty()) csv += ',';
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    csv += buf;
  }
  EXPECT_EQ(server.HandleLine("CLASSIFY gp " + csv),
            "OK " + std::to_string(Fixture().classifier.Classify(
                        inst.values)));

  EXPECT_EQ(server.HandleLine("STATS").substr(0, 4), "OK {");
  EXPECT_EQ(server.HandleLine("CLASSIFY nope 1,2,3"),
            "ERR NOT_FOUND no model named 'nope'");
  EXPECT_EQ(server.HandleLine("CLASSIFY gp not,numbers").substr(0, 15),
            "ERR BAD_REQUEST");
  EXPECT_EQ(server.HandleLine("CLASSIFY gp").substr(0, 15),
            "ERR BAD_REQUEST");
  EXPECT_EQ(server.HandleLine("CLASSIFY gp " + csv + " abc").substr(0, 15),
            "ERR BAD_REQUEST");
  EXPECT_EQ(server.HandleLine("LOAD gp /no/such/file").substr(0, 15),
            "ERR BAD_REQUEST");
  EXPECT_EQ(server.HandleLine("BOGUS").substr(0, 15), "ERR BAD_REQUEST");
  EXPECT_EQ(server.HandleLine(""), "ERR BAD_REQUEST empty line");
  EXPECT_EQ(server.HandleLine("UNLOAD gp"), "OK unloaded gp");
  EXPECT_EQ(server.HandleLine("UNLOAD gp"),
            "ERR NOT_FOUND no model named 'gp'");
  EXPECT_EQ(server.HandleLine("QUIT"), "OK bye");
}

// ---------------- LineAssembler (connection framing) ----------------

using LineStatus = net::LineAssembler::LineStatus;

TEST(LineAssembler, ReassemblesPartialReadsAndStripsCrlf) {
  net::LineAssembler assembler;
  std::string line;
  EXPECT_EQ(assembler.NextLine(&line), LineStatus::kNone);
  assembler.Append("CLAS");
  EXPECT_EQ(assembler.NextLine(&line), LineStatus::kNone);
  assembler.Append("SIFY gp 1,2\r\nSTATS\nQU");
  ASSERT_EQ(assembler.NextLine(&line), LineStatus::kLine);
  EXPECT_EQ(line, "CLASSIFY gp 1,2");
  ASSERT_EQ(assembler.NextLine(&line), LineStatus::kLine);
  EXPECT_EQ(line, "STATS");
  EXPECT_EQ(assembler.NextLine(&line), LineStatus::kNone);
  assembler.Append("IT\n");
  ASSERT_EQ(assembler.NextLine(&line), LineStatus::kLine);
  EXPECT_EQ(line, "QUIT");
}

TEST(LineAssembler, CrlfSplitAcrossChunksStillStripped) {
  net::LineAssembler assembler;
  assembler.Append("PING\r");
  assembler.Append("\n");
  std::string line;
  ASSERT_EQ(assembler.NextLine(&line), LineStatus::kLine);
  EXPECT_EQ(line, "PING");
}

TEST(LineAssembler, OversizedLineIsDroppedOnceThenRecovers) {
  net::LineAssembler assembler(16);
  // A line that never fits, streamed in pieces: memory must not grow and
  // the event must surface exactly once, at the newline.
  for (int i = 0; i < 1000; ++i) assembler.Append("xxxxxxxxxx");
  std::string line;
  EXPECT_EQ(assembler.NextLine(&line), LineStatus::kNone);
  assembler.Append("tail\nSTATS\n");
  EXPECT_EQ(assembler.NextLine(&line), LineStatus::kOversized);
  ASSERT_EQ(assembler.NextLine(&line), LineStatus::kLine);
  EXPECT_EQ(line, "STATS");
  EXPECT_EQ(assembler.NextLine(&line), LineStatus::kNone);
}

TEST(LineAssembler, ExactBoundaryLineStillFits) {
  net::LineAssembler assembler(5);
  assembler.Append("12345\n123456\n1\n");
  std::string line;
  ASSERT_EQ(assembler.NextLine(&line), LineStatus::kLine);
  EXPECT_EQ(line, "12345");
  EXPECT_EQ(assembler.NextLine(&line), LineStatus::kOversized);
  ASSERT_EQ(assembler.NextLine(&line), LineStatus::kLine);
  EXPECT_EQ(line, "1");
}

TEST(ServeConcurrency, ClientsHammerWhileModelHotReloads) {
  serve::InferenceServer server(FastOptions());
  server.AddModel("gp", TrainedCopy());
  const auto& test = Fixture().split.test;

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 25;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const auto& series =
            test[std::size_t(c * kRequestsPerClient + i) % test.size()];
        const serve::ClassifyResult result =
            server.Classify("gp", series.values, milliseconds(30000));
        EXPECT_EQ(result.status, serve::StatusCode::kOk);
        ok += result.status == serve::StatusCode::kOk;
      }
    });
  }
  // Hot-reload the model the whole time the clients hammer it.
  for (int swap = 0; swap < 10; ++swap) {
    server.AddModel("gp", TrainedCopy());
    std::this_thread::sleep_for(milliseconds(1));
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kRequestsPerClient);

  const serve::StatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.ok, std::uint64_t(kClients * kRequestsPerClient));
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_LE(stats.batches, stats.ok);
}

}  // namespace
}  // namespace rpm
