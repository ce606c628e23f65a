// Tests for the serving subsystem (src/serve): registry hot reload under
// concurrent traffic, deadlines, shutdown, the text protocol and its
// number parsing, and end-to-end equivalence with the offline
// classifier. The *Concurrency tests hammer the server from many
// threads, for TSan (scripts/tsan_check.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "ts/generators.h"
#include "ts/rng.h"

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
  options.default_timeout = milliseconds(10000);
  return options;
}

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
  // A lone request is scored at once on the calling thread, so a 1 ms
  // deadline is met unless the thread is descheduled past it. Requiring
  // only half of the calls leaves room for loaded or sanitized hosts.
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

TEST(BatchingQueue, ShutdownDrainsAdmittedAndRejectsNew) {
  serve::InferenceServer server(FastOptions());
  server.AddModel("gp", TrainedCopy());
  const auto& values = Fixture().split.test[0].values;
  // A request runs to completion on its caller's thread, so one admitted
  // before Shutdown has completed by the time Shutdown is called.
  EXPECT_EQ(server.Classify("gp", values).status, serve::StatusCode::kOk);
  server.Shutdown();
  const serve::ClassifyResult rejected =
      server.Classify("gp", values, milliseconds(100));
  EXPECT_EQ(rejected.status, serve::StatusCode::kShutdown);
  EXPECT_EQ(server.HandleLine("CLASSIFY gp 1,2,3"), "ERR SHUTDOWN");
  const serve::StatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.rejected_shutdown, 2u);
}

TEST(InferenceServer, ClassifyReadLongerAgoThanItsTimeoutIsNotScored) {
  serve::InferenceServer server(FastOptions());
  server.AddModel("gp", TrainedCopy());
  serve::Request request;
  request.verb = net::BinaryVerb::kClassify;
  request.name = "gp";
  request.values = Fixture().split.test[0].values;
  request.timeout = milliseconds(5);
  const auto scans = [] {
    return obs::DefaultRegistry().Snapshot().Count("rpm_matcher_scans_total");
  };

  // Read 6 ms ago with a 5 ms timeout: its deadline has passed before
  // scoring could start, so the engine never sees it.
  const std::uint64_t scans_before = scans();
  const serve::Reply late = server.Dispatch(
      request, 0, serve::InferenceServer::Clock::now() - milliseconds(6));
  EXPECT_EQ(late.status, serve::StatusCode::kTimeout);
  EXPECT_EQ(scans(), scans_before);
  serve::StatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.timeout, 1u);
  EXPECT_EQ(stats.ok, 0u);

  // The same request read just now is scored.
  const serve::Reply fresh =
      server.Dispatch(request, 0, serve::InferenceServer::Clock::now());
  EXPECT_EQ(fresh.status, serve::StatusCode::kOk);
  EXPECT_EQ(fresh.label, Fixture().classifier.Classify(request.values));
  EXPECT_GT(scans(), scans_before);
  stats = server.Stats();
  EXPECT_EQ(stats.admitted, stats.ok + stats.timeout);
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

// ---------------- Text codec number parsing ----------------

// The text codec's value parser as it was before it read fields in place
// with from_chars: the reference the codec must match, field for field
// and bit for bit.
bool ReferenceParseValues(const std::string& text, ts::Series* out) {
  out->clear();
  std::string normalized = text;
  std::replace(normalized.begin(), normalized.end(), ',', ' ');
  std::istringstream fields(normalized);
  std::string token;
  while (fields >> token) {
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return false;
    out->push_back(v);
  }
  return !out->empty();
}

// `csv` (no whitespace) through both series-carrying verbs: accepted
// exactly when the reference accepts it, with the same bits per value.
void ExpectSameParse(const std::string& csv) {
  ts::Series expected;
  const bool accepted = ReferenceParseValues(csv, &expected);
  for (const std::string verb : {"CLASSIFY m ", "STREAM_FEED s1 "}) {
    serve::Request request;
    const std::string error = serve::ParseLine(verb + csv, &request);
    ASSERT_EQ(error.empty(), accepted) << verb << csv << " -> " << error;
    if (!accepted) continue;
    ASSERT_EQ(request.values.size(), expected.size()) << verb << csv;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(request.values[i]),
                std::bit_cast<std::uint64_t>(expected[i]))
          << verb << csv << " field " << i;
    }
  }
}

TEST(TextCodec, ValuesParseLikeTheStrtodReference) {
  for (const char* csv :
       {"+1", "-.5e-3", "0x1p3", "inf", "nan", "1e", "+-1", "1,,2", ",1,",
        "-nan", "NaN", "nan(123)", "INFINITY", "-inf", "infin", "1e400",
        "-1e400", "1e-400", "4.9e-324", "2.2250738585072011e-308", "0.1",
        "0.30000000000000004", "9007199254740993", "1.", ".", "-", "e5",
        "1e+5", "1e+", "0x", "-0x1.8p-3", "-0", "--1", "1..2", "1.5e",
        ",", ",,", "1,2,3", "1,x,3", "abc"}) {
    ExpectSameParse(csv);
  }
  // Random fields: printed doubles in several formats, and junk from the
  // characters a number can contain.
  ts::Rng rng(20261019);
  const std::string junk = "0123456789+-.eExXpPaAnNiIfFtTyY()";
  const char* formats[] = {"%.17g", "%a", "%g", "%.3e", "%f", "%.0f"};
  for (int c = 0; c < 3000; ++c) {
    std::string csv;
    const std::int64_t fields = rng.UniformInt(1, 4);
    for (std::int64_t f = 0; f < fields; ++f) {
      if (f > 0) csv += ',';
      if (rng.Bernoulli(0.7)) {
        const double v = rng.Gaussian() * std::pow(10.0, rng.UniformInt(-320, 320));
        char buf[512];
        std::snprintf(buf, sizeof(buf), formats[rng.UniformInt(0, 5)], v);
        csv += buf;
      } else {
        for (std::int64_t k = rng.UniformInt(1, 8); k > 0; --k) {
          csv += junk[std::size_t(
              rng.UniformInt(0, std::int64_t(junk.size()) - 1))];
        }
      }
    }
    ExpectSameParse(csv);
  }
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
  EXPECT_EQ(stats.admitted, stats.ok);
}

}  // namespace
}  // namespace rpm
