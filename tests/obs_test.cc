// Observability-layer suite: registry semantics, Prometheus exposition
// golden-format checks (a small in-test parser validates counter
// monotonicity and histogram bucket structure), trace span JSON
// round-trips, the 8-thread registry/tracer hammer (runs under TSan via
// scripts/tsan_check.sh, label `obs`), and the STATS-vs-METRICS
// consistency contract after drain.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "ts/generators.h"

namespace rpm {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::Labels;
using obs::MetricRegistry;
using obs::RegistrySnapshot;
using obs::RenderPrometheus;
using obs::SpanRecord;
using obs::Tracer;
using obs::TraceSpan;

// ---------------------------------------------------------------------
// A minimal Prometheus text-format parser, enough to validate the
// expositor's output structurally. One sample per non-comment line:
//   name{label="v",...} value
struct ParsedSample {
  std::string name;    // full name incl. _bucket/_sum/_count suffix
  std::string labels;  // raw label block without braces ("" if none)
  double value = 0.0;
};

struct ParsedExposition {
  std::map<std::string, std::string> types;  // family -> counter|gauge|...
  std::map<std::string, std::string> helps;
  std::vector<ParsedSample> samples;
  bool saw_eof = false;
  std::vector<std::string> errors;
};

ParsedExposition ParsePrometheus(const std::string& text) {
  ParsedExposition out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      out.errors.push_back("blank line");
      continue;
    }
    if (out.saw_eof) {
      out.errors.push_back("content after # EOF: " + line);
      continue;
    }
    if (line == "# EOF") {
      out.saw_eof = true;
      continue;
    }
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      const bool is_type = line.rfind("# TYPE ", 0) == 0;
      const std::string rest = line.substr(7);
      const std::size_t space = rest.find(' ');
      if (space == std::string::npos) {
        out.errors.push_back("malformed comment: " + line);
        continue;
      }
      const std::string family = rest.substr(0, space);
      const std::string payload = rest.substr(space + 1);
      auto& target = is_type ? out.types : out.helps;
      if (target.count(family) != 0) {
        out.errors.push_back("duplicate HELP/TYPE for " + family);
      }
      target[family] = payload;
      continue;
    }
    if (line[0] == '#') {
      out.errors.push_back("unknown comment: " + line);
      continue;
    }
    ParsedSample sample;
    std::size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos) {
      out.errors.push_back("malformed sample: " + line);
      continue;
    }
    sample.name = line.substr(0, name_end);
    std::size_t value_start = name_end;
    if (line[name_end] == '{') {
      const std::size_t close = line.find('}', name_end);
      if (close == std::string::npos) {
        out.errors.push_back("unterminated labels: " + line);
        continue;
      }
      sample.labels = line.substr(name_end + 1, close - name_end - 1);
      value_start = close + 1;
    }
    if (value_start >= line.size() || line[value_start] != ' ') {
      out.errors.push_back("missing value: " + line);
      continue;
    }
    const std::string value_text = line.substr(value_start + 1);
    char* end = nullptr;
    sample.value = std::strtod(value_text.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      out.errors.push_back("bad value '" + value_text + "' in: " + line);
      continue;
    }
    out.samples.push_back(std::move(sample));
  }
  return out;
}

// Family name a sample belongs to (strips histogram suffixes).
std::string FamilyOf(const std::string& name,
                     const ParsedExposition& parsed) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s = suffix;
    if (name.size() > s.size() &&
        name.compare(name.size() - s.size(), s.size(), s) == 0) {
      const std::string family = name.substr(0, name.size() - s.size());
      if (parsed.types.count(family) != 0 &&
          parsed.types.at(family) == "histogram") {
        return family;
      }
    }
  }
  return name;
}

double LabeledValue(const ParsedExposition& parsed, const std::string& name,
                    const std::string& labels = "") {
  for (const ParsedSample& s : parsed.samples) {
    if (s.name == name && s.labels == labels) return s.value;
  }
  ADD_FAILURE() << "no sample " << name << "{" << labels << "}";
  return -1.0;
}

// Structural validity of one exposition: every sample's family has a
// TYPE and HELP; counters are non-negative integers; histogram buckets
// are cumulative, end in +Inf, and +Inf equals _count.
void ValidatePrometheus(const std::string& text) {
  const ParsedExposition parsed = ParsePrometheus(text);
  EXPECT_TRUE(parsed.saw_eof) << "missing # EOF terminator";
  for (const std::string& e : parsed.errors) ADD_FAILURE() << e;

  std::map<std::string, std::vector<ParsedSample>> buckets_by_series;
  for (const ParsedSample& s : parsed.samples) {
    const std::string family = FamilyOf(s.name, parsed);
    ASSERT_TRUE(parsed.types.count(family) != 0)
        << "sample " << s.name << " has no TYPE";
    EXPECT_TRUE(parsed.helps.count(family) != 0)
        << "sample " << s.name << " has no HELP";
    const std::string& type = parsed.types.at(family);
    if (type == "counter") {
      EXPECT_GE(s.value, 0.0) << s.name;
      EXPECT_EQ(s.value, std::floor(s.value))
          << "counter " << s.name << " not integral";
    }
    if (type == "histogram" && s.name == family + "_bucket") {
      // Group bucket lines per series (labels minus `le`).
      std::string series_labels = s.labels;
      const std::size_t le = series_labels.find("le=\"");
      std::string le_value;
      ASSERT_NE(le, std::string::npos) << s.name << " bucket without le";
      const std::size_t le_end = series_labels.find('"', le + 4);
      le_value = series_labels.substr(le + 4, le_end - le - 4);
      // Strip the le pair (it is always the last label the expositor
      // renders).
      std::string key =
          family + "|" +
          series_labels.substr(0, le == 0 ? 0 : le - 1);
      ParsedSample b = s;
      b.labels = le_value;
      buckets_by_series[key].push_back(b);
    }
  }

  for (const auto& [key, buckets] : buckets_by_series) {
    const std::string family = key.substr(0, key.find('|'));
    // Cumulative and ordered: counts never decrease, bounds ascend,
    // last bucket is +Inf and equals _count.
    double prev_count = -1.0;
    double prev_bound = -std::numeric_limits<double>::infinity();
    for (const ParsedSample& b : buckets) {
      EXPECT_GE(b.value, prev_count) << family << " bucket not cumulative";
      prev_count = b.value;
      const double bound = b.labels == "+Inf"
                               ? std::numeric_limits<double>::infinity()
                               : std::strtod(b.labels.c_str(), nullptr);
      EXPECT_GT(bound, prev_bound) << family << " bounds not ascending";
      prev_bound = bound;
    }
    ASSERT_FALSE(buckets.empty());
    EXPECT_EQ(buckets.back().labels, "+Inf") << family;
    // _count (first series with this family name) matches +Inf.
    double count = -1.0;
    for (const ParsedSample& s : parsed.samples) {
      if (s.name == family + "_count") {
        count = s.value;
        break;
      }
    }
    EXPECT_EQ(buckets.back().value, count) << family;
  }
}

// ---------------------------------------------------------------------

TEST(MetricRegistry, CounterGaugeBasics) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("rpm_test_events_total", "Events.");
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(c->value(), 42u);
  // Re-registration returns the same cell.
  EXPECT_EQ(registry.GetCounter("rpm_test_events_total", "Events."), c);

  Gauge* g = registry.GetGauge("rpm_test_level", "Level.");
  g->Set(7);
  g->Add(-3);
  EXPECT_EQ(g->value(), 4);

  const RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Count("rpm_test_events_total"), 42u);
  EXPECT_EQ(snap.Scalar("rpm_test_level"), 4.0);
  EXPECT_EQ(snap.Scalar("rpm_test_absent"), 0.0);
}

TEST(MetricRegistry, LabeledCellsAreDistinct) {
  MetricRegistry registry;
  Counter* ok = registry.GetCounter("rpm_test_req_total", "Reqs.",
                                    {{"status", "ok"}});
  Counter* err = registry.GetCounter("rpm_test_req_total", "Reqs.",
                                     {{"status", "err"}});
  EXPECT_NE(ok, err);
  ok->Increment(3);
  err->Increment();
  const RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Count("rpm_test_req_total", {{"status", "ok"}}), 3u);
  EXPECT_EQ(snap.Count("rpm_test_req_total", {{"status", "err"}}), 1u);
}

TEST(MetricRegistry, HistogramBucketsAndOverflow) {
  MetricRegistry registry;
  Histogram* h = registry.GetHistogram("rpm_test_latency_microseconds",
                                       "Latency.", {1.0, 10.0, 100.0});
  h->Record(0.5);    // bucket 0
  h->Record(5.0);    // bucket 1
  h->Record(50.0);   // bucket 2
  h->Record(5000.0); // overflow
  const auto snap = h->Snapshot();
  ASSERT_EQ(snap.counts.size(), 4u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 1u);
  EXPECT_EQ(snap.total, 4u);
  EXPECT_NEAR(snap.sum, 5055.5, 0.01);
  // Percentile of an overflow hit reports the highest finite bound.
  EXPECT_EQ(snap.Percentile(100.0), 100.0);
  EXPECT_EQ(snap.Percentile(50.0), 10.0);
}

TEST(Exposition, GoldenFormatParses) {
  MetricRegistry registry;
  registry.GetCounter("rpm_test_a_total", "A.")->Increment(5);
  registry.GetGauge("rpm_test_b", "B.")->Set(-2);
  registry
      .GetCounter("rpm_test_req_total", "Reqs.", {{"status", "ok"}})
      ->Increment(9);
  registry.GetCounter("rpm_test_req_total", "Reqs.", {{"status", "err"}});
  Histogram* h = registry.GetHistogram(
      "rpm_test_lat_microseconds", "Lat.",
      Histogram::GeometricBounds(1.0, 2.0, 8));
  for (int i = 0; i < 100; ++i) h->Record(double(i));

  const std::string text = RenderPrometheus(registry.Snapshot());
  ValidatePrometheus(text);

  const ParsedExposition parsed = ParsePrometheus(text);
  EXPECT_EQ(parsed.types.at("rpm_test_a_total"), "counter");
  EXPECT_EQ(parsed.types.at("rpm_test_b"), "gauge");
  EXPECT_EQ(parsed.types.at("rpm_test_lat_microseconds"), "histogram");
  EXPECT_EQ(LabeledValue(parsed, "rpm_test_a_total"), 5.0);
  EXPECT_EQ(LabeledValue(parsed, "rpm_test_b"), -2.0);
  EXPECT_EQ(LabeledValue(parsed, "rpm_test_req_total", "status=\"ok\""),
            9.0);
  EXPECT_EQ(LabeledValue(parsed, "rpm_test_lat_microseconds_count"), 100.0);
  // Sum has milli resolution: exactly 4950 here.
  EXPECT_NEAR(LabeledValue(parsed, "rpm_test_lat_microseconds_sum"), 4950.0,
              0.01);
}

TEST(Exposition, EscapesHelpAndLabelValues) {
  MetricRegistry registry;
  registry.GetCounter("rpm_test_esc_total", "Line\nbreak \\ slash.",
                      {{"path", "a\"b\\c"}});
  const std::string text = RenderPrometheus(registry.Snapshot());
  EXPECT_NE(text.find("Line\\nbreak \\\\ slash."), std::string::npos);
  EXPECT_NE(text.find("path=\"a\\\"b\\\\c\""), std::string::npos);
  ValidatePrometheus(text);
}

TEST(Exposition, MultipleRegistriesConcatenate) {
  MetricRegistry a;
  MetricRegistry b;
  a.GetCounter("rpm_test_a_total", "A.")->Increment();
  b.GetCounter("rpm_test_b_total", "B.")->Increment(2);
  const auto snap_a = a.Snapshot();
  const auto snap_b = b.Snapshot();
  const std::string text = obs::RenderPrometheus({&snap_a, &snap_b});
  ValidatePrometheus(text);
  const ParsedExposition parsed = ParsePrometheus(text);
  EXPECT_EQ(LabeledValue(parsed, "rpm_test_a_total"), 1.0);
  EXPECT_EQ(LabeledValue(parsed, "rpm_test_b_total"), 2.0);
}

// ---------------------------------------------------------------------

TEST(Trace, DisabledSpansRecordNothing) {
  Tracer tracer;
  { TraceSpan span("test.noop", tracer); }
  EXPECT_TRUE(tracer.Recent().empty());
}

TEST(Trace, SpansRecordAndFlushInOrder) {
  Tracer tracer;
  tracer.Enable(true);
  { TraceSpan span("test.one", tracer); }
  { TraceSpan span("test.two", tracer); }
  { TraceSpan span("test.three", tracer); }
  const std::vector<SpanRecord> spans = tracer.Recent();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "test.one");
  EXPECT_STREQ(spans[1].name, "test.two");
  EXPECT_STREQ(spans[2].name, "test.three");
  EXPECT_LT(spans[0].seq, spans[1].seq);
  EXPECT_LE(spans[0].start_ns,
            spans[1].start_ns + spans[1].duration_ns);

  // Recent(n) keeps the most recent n.
  const auto last = tracer.Recent(2);
  ASSERT_EQ(last.size(), 2u);
  EXPECT_STREQ(last[0].name, "test.two");
  EXPECT_STREQ(last[1].name, "test.three");

  tracer.Clear();
  EXPECT_TRUE(tracer.Recent().empty());
}

TEST(Trace, SamplingRecordsOneOfN) {
  Tracer tracer;
  tracer.Enable(true);
  tracer.set_sample_every(4);
  for (int i = 0; i < 16; ++i) {
    TraceSpan span("test.sampled", tracer);
  }
  EXPECT_EQ(tracer.Recent().size(), 4u);
}

TEST(Trace, RingWrapsKeepingMostRecent) {
  Tracer tracer;
  tracer.Enable(true);
  for (std::size_t i = 0; i < Tracer::kRingCapacity + 10; ++i) {
    TraceSpan span("test.wrap", tracer);
  }
  const auto spans = tracer.Recent();
  EXPECT_EQ(spans.size(), Tracer::kRingCapacity);
  // The oldest 10 were overwritten: the minimum surviving seq is 10.
  std::uint64_t min_seq = spans.front().seq;
  for (const auto& s : spans) min_seq = std::min(min_seq, s.seq);
  EXPECT_EQ(min_seq, 10u);
}

// A hand-rolled check that the span JSON is well-formed and carries the
// source values back out (round-trip by field extraction).
TEST(Trace, SpanJsonRoundTrips) {
  Tracer tracer;
  tracer.Enable(true);
  {
    TraceSpan a("test.alpha", tracer);
    TraceSpan b("test.beta", tracer);
  }
  const std::vector<SpanRecord> spans = tracer.Recent();
  ASSERT_EQ(spans.size(), 2u);
  const std::string json = obs::RenderSpansJson(spans);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');

  // Each span renders as one object with all five fields.
  std::size_t objects = 0;
  std::size_t pos = 0;
  while ((pos = json.find('{', pos)) != std::string::npos) {
    const std::size_t end = json.find('}', pos);
    ASSERT_NE(end, std::string::npos);
    const std::string obj = json.substr(pos, end - pos + 1);
    for (const char* field :
         {"\"name\":", "\"start_us\":", "\"dur_us\":", "\"thread\":",
          "\"seq\":"}) {
      EXPECT_NE(obj.find(field), std::string::npos) << obj;
    }
    ++objects;
    pos = end + 1;
  }
  EXPECT_EQ(objects, spans.size());

  // Round-trip: names and seqs extracted from the JSON match the source
  // records, in order.
  std::vector<std::string> names;
  pos = 0;
  while ((pos = json.find("\"name\":\"", pos)) != std::string::npos) {
    pos += 8;
    names.push_back(json.substr(pos, json.find('"', pos) - pos));
  }
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], spans[0].name);
  EXPECT_EQ(names[1], spans[1].name);
}

// ---------------------------------------------------------------------
// Concurrency: 8 threads hammer one registry's cells and one tracer.
// Counters must be exact; the tracer must stay consistent (TSan runs
// this under scripts/tsan_check.sh, ctest label `obs`).

TEST(ObsConcurrency, EightThreadsHammerRegistryAndTracer) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kIters = 20000;

  MetricRegistry registry;
  Tracer tracer;
  tracer.Enable(true);
  tracer.set_sample_every(7);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &tracer, t] {
      // Concurrent registration of the same names must converge on the
      // same cells.
      Counter* c =
          registry.GetCounter("rpm_test_hammer_total", "Hammer.");
      Gauge* g = registry.GetGauge("rpm_test_hammer_level", "Level.");
      Histogram* h = registry.GetHistogram(
          "rpm_test_hammer_microseconds", "Hist.",
          Histogram::GeometricBounds(1.0, 2.0, 16));
      for (std::size_t i = 0; i < kIters; ++i) {
        TraceSpan span("test.hammer", tracer);
        c->Increment();
        g->Add(t % 2 == 0 ? 1 : -1);
        h->Record(double(i % 1000));
        if (i % 4096 == 0) {
          // Snapshots and flushes race the writers on purpose.
          registry.Snapshot();
          tracer.Recent(64);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  const RegistrySnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.Count("rpm_test_hammer_total"), kThreads * kIters);
  EXPECT_EQ(snap.Scalar("rpm_test_hammer_level"), 0.0);
  const auto* h = snap.FindHistogram("rpm_test_hammer_microseconds");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->snapshot.total, kThreads * kIters);
  ValidatePrometheus(RenderPrometheus(snap));

  // Every thread's ring is bounded; flush sees at most 8 rings' worth.
  const auto spans = tracer.Recent();
  EXPECT_LE(spans.size(), kThreads * Tracer::kRingCapacity);
  EXPECT_FALSE(spans.empty());
}

// ---------------------------------------------------------------------
// End-to-end: the serve METRICS verb and the STATS JSON must agree on
// request counts once traffic has drained, because both are views of
// the same registry (the ISSUE-5 consistency fix).

TEST(ServeObservability, StatsAndMetricsAgreeAfterDrain) {
  const ts::DatasetSplit split = ts::MakeCbf(30, 6, 128, 3);
  core::RpmOptions options;
  options.search = core::ParameterSearch::kFixed;
  options.fixed_sax.window = 32;
  options.fixed_sax.paa_size = 4;
  options.fixed_sax.alphabet = 4;
  core::RpmClassifier clf(options);
  clf.Train(split.train);

  serve::InferenceServer server;
  server.AddModel("m", std::move(clf));
  for (std::size_t i = 0; i < 10; ++i) {
    const auto result = server.Classify(
        "m", split.test[i % split.test.size()].values,
        std::chrono::seconds(30));
    ASSERT_EQ(result.status, serve::StatusCode::kOk);
  }
  server.Classify("no_such_model", split.test[0].values,
                  std::chrono::seconds(1));

  // Drained: no in-flight work. STATS and METRICS must agree exactly.
  const serve::StatsSnapshot stats = server.Stats();
  const std::string text = server.MetricsText();
  ValidatePrometheus(text);
  const ParsedExposition parsed = ParsePrometheus(text);
  EXPECT_EQ(double(stats.admitted),
            LabeledValue(parsed, "rpm_serve_requests_admitted_total"));
  EXPECT_EQ(double(stats.ok),
            LabeledValue(parsed, "rpm_serve_requests_total",
                         "status=\"ok\""));
  EXPECT_EQ(double(stats.not_found),
            LabeledValue(parsed, "rpm_serve_requests_total",
                         "status=\"not_found\""));
  EXPECT_EQ(stats.admitted, 10u);
  EXPECT_EQ(stats.ok, 10u);
  EXPECT_EQ(stats.not_found, 1u);
  EXPECT_EQ(double(stats.batches),
            LabeledValue(parsed, "rpm_serve_batches_total"));
  EXPECT_EQ(double(stats.latency_us.total),
            LabeledValue(parsed,
                         "rpm_serve_request_latency_microseconds_count"));
  // Matcher metrics from the process-default registry render in the
  // same exposition (classifying above ran best-match scans).
  EXPECT_GT(LabeledValue(parsed, "rpm_matcher_scans_total"), 0.0);
}

TEST(ServeObservability, MetricsAndTraceVerbs) {
  serve::InferenceServer server;

  const std::string metrics = server.HandleLine("METRICS");
  ASSERT_EQ(metrics.rfind("OK metrics\n", 0), 0u);
  // Body (after the status line) is valid exposition text; HandleLine
  // strips the final newline, so restore it for the parser.
  ValidatePrometheus(metrics.substr(11) + "\n");

  const std::string trace = server.HandleLine("TRACE 8");
  ASSERT_EQ(trace.rfind("OK [", 0), 0u);
  EXPECT_EQ(trace.back(), ']');
  EXPECT_EQ(server.HandleLine("TRACE 0").rfind("ERR BAD_REQUEST", 0), 0u);
  EXPECT_EQ(server.HandleLine("TRACE -3").rfind("ERR BAD_REQUEST", 0), 0u);
  // A count that is present but not a number is refused too, rather than
  // read as 0 ("no limit") and bypassing the 1024 cap.
  EXPECT_EQ(server.HandleLine("TRACE abc").rfind("ERR BAD_REQUEST", 0), 0u);
}

}  // namespace
}  // namespace rpm
