// Tests for the grammar-driven fuzzing harness (src/fuzz): PRNG golden
// values and substream independence, plan-generation determinism, full
// event-log reproducibility (same seed, byte-identical event sequence),
// grammar verb coverage, bounded protocol and model-mutation fuzz runs
// under the three-fold oracle, regression replay of the checked-in
// corpus seeds, and handcrafted loader-hardening cases for the count
// bombs the mutation sweep discovered.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/classifier.h"
#include "fuzz/grammar.h"
#include "fuzz/harness.h"
#include "fuzz/mutator.h"
#include "fuzz/rng.h"
#include "ml/simple_classifiers.h"
#include "ml/svm.h"
#include "net/frame.h"
#include "serve/protocol.h"
#include "ts/ucr_io.h"

namespace rpm {
namespace {

using fuzz::FailureReport;
using fuzz::FuzzHarness;
using fuzz::FuzzPlan;
using fuzz::SplitMix64;

// The harness trains its fixture once per process; share one instance
// across tests so the suite stays fast.
FuzzHarness& Harness() {
  static FuzzHarness* harness = new FuzzHarness();
  return *harness;
}

// ---- PRNG ----

TEST(SplitMix64Test, GoldenSequence) {
  // Reference values of the canonical splitmix64 from seed 1234567.
  SplitMix64 rng(1234567);
  EXPECT_EQ(rng.Next(), 6457827717110365317ULL);
  EXPECT_EQ(rng.Next(), 3203168211198807973ULL);
  EXPECT_EQ(rng.Next(), 9817491932198370423ULL);
}

TEST(SplitMix64Test, DeterministicAndSeedSensitive) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  SplitMix64 c(43);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    EXPECT_NE(va, c.Next());
  }
}

TEST(SplitMix64Test, ForkIsIndependentOfParentDraws) {
  // A fork must depend only on (seed, stream id), not on how many draws
  // the parent or sibling streams have made — the harness relies on this
  // to keep per-connection randomness from shifting across concerns.
  SplitMix64 a(99);
  SplitMix64 fork_before = a.Fork(7);
  for (int i = 0; i < 10; ++i) a.Next();
  SplitMix64 fork_after = SplitMix64(99).Fork(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(fork_before.Next(), fork_after.Next());
  }
}

TEST(SplitMix64Test, RangeAndUnitBounds) {
  SplitMix64 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.Range(3, 9);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 9u);
    const double u = rng.Unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

// ---- Grammar ----

TEST(FuzzGrammarTest, PlanGenerationIsDeterministic) {
  for (std::uint64_t seed : {1ULL, 77ULL, 0xDEADBEEFULL}) {
    const FuzzPlan a = fuzz::GenerateProtocolPlan(seed);
    const FuzzPlan b = fuzz::GenerateProtocolPlan(seed);
    EXPECT_EQ(fuzz::FormatPlan(a), fuzz::FormatPlan(b)) << "seed " << seed;
  }
}

TEST(FuzzGrammarTest, DistinctSeedsGiveDistinctPlans) {
  EXPECT_NE(fuzz::FormatPlan(fuzz::GenerateProtocolPlan(1)),
            fuzz::FormatPlan(fuzz::GenerateProtocolPlan(2)));
}

TEST(FuzzGrammarTest, CoversEveryVerbAcrossSeeds) {
  // The grammar must be able to produce every verb the serving surface
  // understands (scripts/docs_lint.sh pins the static source-level
  // coverage; this checks the generator actually rolls them).
  const char* const kVerbs[] = {"LOAD",        "UNLOAD",      "MODELS",
                                "CLASSIFY",    "STATS",       "METRICS",
                                "TRACE",       "STREAM_OPEN", "STREAM_FEED",
                                "STREAM_CLOSE", "STREAMS",    "QUIT"};
  std::set<std::string> seen;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    for (const auto& conn : fuzz::GenerateProtocolPlan(seed).conns) {
      for (const auto& req : conn.requests) seen.insert(req.verb);
    }
  }
  for (const char* verb : kVerbs) {
    EXPECT_TRUE(seen.count(verb)) << "grammar never produced " << verb;
  }
}

TEST(FuzzGrammarTest, PlanGeometryStaysInBounds) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const FuzzPlan plan = fuzz::GenerateProtocolPlan(seed);
    EXPECT_GE(plan.shards, 1u);
    EXPECT_LE(plan.shards, 8u);
    EXPECT_FALSE(plan.conns.empty());
    EXPECT_LE(plan.conns.size(), 6u);
    for (const auto& conn : plan.conns) {
      EXPECT_FALSE(conn.requests.empty());
      EXPECT_LE(conn.requests.size(), 13u);  // 12 + appended QUIT
      if (conn.fault == fuzz::WireFault::kHeaderCorrupt) {
        EXPECT_TRUE(conn.binary);
      }
    }
  }
}

TEST(FuzzGrammarTest, TextAndBinaryEncodersAreDeterministic) {
  const FuzzPlan plan = fuzz::GenerateProtocolPlan(11);
  for (const auto& conn : plan.conns) {
    for (const auto& req : conn.requests) {
      EXPECT_EQ(fuzz::EncodeTextRequest(req, "s1"),
                fuzz::EncodeTextRequest(req, "s1"));
      EXPECT_EQ(fuzz::EncodeBinaryRequest(req, "s1"),
                fuzz::EncodeBinaryRequest(req, "s1"));
    }
  }
}

// Samples compare bitwise (NaN included). The early-classification
// margin is compared only when early classification is on: otherwise it
// is unused, and text leaves it at the StreamOptions default while
// binary always sends one.
bool SameRequest(const serve::Request& a, const serve::Request& b) {
  const auto same_bits = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  const stream::StreamOptions& sa = a.stream;
  const stream::StreamOptions& sb = b.stream;
  return a.verb == b.verb && a.name == b.name && a.path == b.path &&
         std::equal(a.values.begin(), a.values.end(), b.values.begin(),
                    b.values.end(), same_bits) &&
         a.timeout == b.timeout && a.trace_count == b.trace_count &&
         sa.window == sb.window && sa.hop == sb.hop &&
         sa.znorm_windows == sb.znorm_windows &&
         sa.stats_refresh_interval == sb.stats_refresh_interval &&
         sa.capacity == sb.capacity &&
         same_bits(sa.early_fraction, sb.early_fraction) &&
         (sa.early_fraction <= 0.0 ||
          same_bits(sa.early_margin, sb.early_margin));
}

TEST(FuzzGrammarTest, TextAndBinaryDecodeToTheSameRequest) {
  // The grammar's own encoders are the independent reference: every
  // production they can write in both codecs must decode to the same
  // Request, or be refused by both.
  std::size_t agreed = 0;
  std::size_t refused = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    for (const auto& conn : fuzz::GenerateProtocolPlan(seed).conns) {
      for (const auto& req : conn.requests) {
        if (req.use_raw) continue;
        const std::string line = fuzz::EncodeTextRequest(req, "s1");
        serve::Request text;
        const std::string text_error = serve::ParseLine(line, &text);
        net::FrameAssembler assembler;
        assembler.Append(fuzz::EncodeBinaryRequest(req, "s1"));
        net::Frame frame;
        ASSERT_EQ(assembler.Next(&frame),
                  net::FrameAssembler::FrameStatus::kFrame);
        serve::Request binary;
        const std::string binary_error = serve::DecodeRequest(frame, &binary);
        ASSERT_EQ(text_error.empty(), binary_error.empty())
            << "seed " << seed << " '" << line.substr(0, 80) << "': text '"
            << text_error << "', binary '" << binary_error << "'";
        if (!text_error.empty()) {
          ++refused;
          continue;
        }
        EXPECT_TRUE(SameRequest(text, binary))
            << "seed " << seed << " '" << line.substr(0, 80) << "'";
        ++agreed;
      }
    }
  }
  // Both outcomes occur: window-0 STREAM_OPENs are refused by both.
  EXPECT_GT(agreed, 0u);
  EXPECT_GT(refused, 0u);
}

// ---- Mutator ----

TEST(FuzzMutatorTest, SplitFaultPreservesBytes) {
  SplitMix64 rng(3);
  const std::string bytes(1000, 'a');
  const auto segments =
      fuzz::ChunkBytes(bytes, fuzz::WireFault::kSplit, &rng);
  EXPECT_GT(segments.size(), 1u);
  std::string joined;
  for (const auto& s : segments) joined += s;
  EXPECT_EQ(joined, bytes);
}

TEST(FuzzMutatorTest, ModelMutationsAreDeterministic) {
  const std::string& base = Harness().model_text();
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SplitMix64 a(seed);
    SplitMix64 b(seed);
    EXPECT_EQ(fuzz::MutateModelText(base, &a),
              fuzz::MutateModelText(base, &b));
  }
}

// ---- Event-log reproducibility ----

TEST(FuzzHarnessTest, SameSeedSameEventLog) {
  FuzzHarness& harness = Harness();
  for (std::uint64_t seed : {3ULL, 8ULL, 21ULL}) {
    FailureReport first = harness.RunProtocolCase(seed);
    EXPECT_FALSE(first.failed) << first.what;
    const std::vector<std::string> events = harness.events();
    FailureReport second = harness.RunProtocolCase(seed);
    EXPECT_FALSE(second.failed) << second.what;
    EXPECT_EQ(events, harness.events()) << "seed " << seed;
  }
}

TEST(FuzzHarnessTest, ModelCaseEventLogIsReproducible) {
  FuzzHarness& harness = Harness();
  harness.RunModelCase(1234);
  const std::vector<std::string> events = harness.events();
  harness.RunModelCase(1234);
  EXPECT_EQ(events, harness.events());
}

// ---- Bounded fuzz runs under the oracle ----

TEST(FuzzHarnessTest, ProtocolSweepStaysClean) {
  FuzzHarness& harness = Harness();
  for (std::uint64_t seed = 500; seed < 520; ++seed) {
    const FailureReport report = harness.RunProtocolCase(seed);
    EXPECT_FALSE(report.failed)
        << "seed " << seed << ": " << report.what << "\n" << report.repro;
    if (report.failed) break;
  }
}

TEST(FuzzHarnessTest, ModelSweepStaysClean) {
  FuzzHarness& harness = Harness();
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    const FailureReport report = harness.RunModelCase(seed);
    EXPECT_FALSE(report.failed) << "seed " << seed << ": " << report.what;
    if (report.failed) break;
  }
}

TEST(FuzzHarnessTest, MinimizerPreservesSingleConnPlans) {
  // Minimizing a non-failing plan must return it unchanged (the greedy
  // loop only accepts candidates that still fail).
  FuzzHarness& harness = Harness();
  const FuzzPlan plan = fuzz::GenerateProtocolPlan(3);
  const FuzzPlan minimized = harness.MinimizeProtocolPlan(plan, 4);
  EXPECT_EQ(fuzz::FormatPlan(plan), fuzz::FormatPlan(minimized));
}

// ---- Corpus replay ----

TEST(FuzzCorpusTest, RegressionSeedsReplayClean) {
  const char* dir = std::getenv("RPM_FUZZ_CORPUS_DIR");
#ifdef RPM_FUZZ_CORPUS_DIR_DEFAULT
  if (dir == nullptr) dir = RPM_FUZZ_CORPUS_DIR_DEFAULT;
#endif
  ASSERT_NE(dir, nullptr) << "corpus directory not configured";
  // Tiny parser for the three-line seed format; mirrors rpm_fuzz
  // --replay.
  struct Entry {
    std::string mode;
    std::uint64_t seed;
  };
  std::vector<Entry> entries;
  const std::string listing = std::string(dir);
  // The corpus files are named in-tree; enumerate the known set so the
  // test fails loudly if one is deleted without updating this list.
  const char* const kSeeds[] = {
      "proto_disconnect_sigpipe.seed",
      "proto_disconnect_sigpipe_binary.seed",
      "proto_corrupt_open_pipeline.seed",
      "model_svm_count_bomb.seed",
      "model_svm_count_bomb_2.seed",
      "model_svm_sv_bomb.seed",
  };
  for (const char* name : kSeeds) {
    std::ifstream in(listing + "/" + name);
    ASSERT_TRUE(in.good()) << "missing corpus seed " << name;
    Entry entry{"protocol", 0};
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("mode=", 0) == 0) entry.mode = line.substr(5);
      if (line.rfind("seed=", 0) == 0) {
        entry.seed = std::strtoull(line.c_str() + 5, nullptr, 0);
      }
    }
    entries.push_back(entry);
  }
  FuzzHarness& harness = Harness();
  for (const auto& entry : entries) {
    const FailureReport report = entry.mode == "model"
                                     ? harness.RunModelCase(entry.seed)
                                     : harness.RunProtocolCase(entry.seed);
    EXPECT_FALSE(report.failed)
        << entry.mode << " seed " << entry.seed << ": " << report.what;
  }
}

// ---- UCR text sweep ----

// 2,000 seeded mutations of a valid UCR text: tokens swapped for
// non-finite or out-of-range spellings, emptied fields, truncation and
// separator noise. ParseUcr must either throw UcrFormatError or load
// only non-empty series of finite values; nothing else may escape.
TEST(UcrFuzzTest, MutatedTextIsRejectedOrFinite) {
  const std::string valid =
      "1,0.5,1.5,2.5,-3.25\n"
      "2 1.0 2.0 3.0 4.0\n"
      "-1,1e-3,2e2,0.25,NaN,NaN\n"
      "3\t0.1\t0.2\t0.3\r\n";
  const std::vector<std::string> swaps = {"nan", "-inf", "1e999", "1e12"};
  const std::string noise = ", \t\r\n";
  std::size_t rejected = 0;
  std::size_t loaded = 0;
  for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
    SplitMix64 rng(seed);
    std::string text = valid;
    const std::uint64_t mutations = rng.Range(1, 4);
    for (std::uint64_t m = 0; m < mutations && !text.empty(); ++m) {
      const std::size_t at = rng.Below(text.size());
      switch (rng.Below(4)) {
        case 0:
        case 1: {  // swap (or, one time in five, empty) the token at `at`
          const auto is_sep = [&](char ch) {
            return noise.find(ch) != std::string::npos;
          };
          std::size_t begin = at;
          while (begin > 0 && !is_sep(text[begin - 1])) --begin;
          std::size_t end = at;
          while (end < text.size() && !is_sep(text[end])) ++end;
          const std::string token = rng.Chance(1, 5) ? "" : rng.Pick(swaps);
          text.replace(begin, end - begin, token);
          break;
        }
        case 2:
          text.resize(at);
          break;
        default:
          text.insert(at, 1, noise[rng.Below(noise.size())]);
          break;
      }
    }
    try {
      const ts::Dataset data = ts::ParseUcr(text);
      ++loaded;
      for (const auto& inst : data) {
        EXPECT_FALSE(inst.values.empty()) << "seed " << seed;
        for (const double v : inst.values) {
          EXPECT_TRUE(std::isfinite(v)) << "seed " << seed << ": " << text;
        }
      }
    } catch (const ts::UcrFormatError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "seed " << seed << ": " << e.what() << "\n" << text;
    }
  }
  // The sweep reaches both outcomes.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(loaded, 0u);
}

// ---- Loader hardening (handcrafted count bombs) ----

TEST(LoaderHardeningTest, KnnCountBombThrowsInsteadOfHanging) {
  // An absurd row count with almost no data behind it used to spin the
  // read loop (stream failbit never broke the loop) — now rejected up
  // front by the entry cap.
  std::istringstream in("knn 3 99999999999 2\n1 0.5 0.5\n");
  ml::KnnFeatureClassifier clf(3);
  EXPECT_THROW(clf.Load(in), std::runtime_error);
}

TEST(LoaderHardeningTest, KnnFeatureBombThrows) {
  std::istringstream in("knn 3 1 4294967296\n1 0.5\n");
  ml::KnnFeatureClassifier clf(3);
  EXPECT_THROW(clf.Load(in), std::runtime_error);
}

TEST(LoaderHardeningTest, KnnTruncatedRowThrows) {
  std::istringstream in("knn 3 4 2\n1 0.5 0.5\n");
  ml::KnnFeatureClassifier clf(3);
  EXPECT_THROW(clf.Load(in), std::runtime_error);
}

TEST(LoaderHardeningTest, GnbCountBombThrows) {
  // classes_.assign(n, ...) with an attacker-controlled n was an
  // unbounded allocation.
  std::istringstream in("gnb 99999999999 2\n");
  ml::GaussianNaiveBayes clf;
  EXPECT_THROW(clf.Load(in), std::runtime_error);
}

TEST(LoaderHardeningTest, GnbFeatureBombThrows) {
  std::istringstream in("gnb 1 4294967296\n1 0.0\n");
  ml::GaussianNaiveBayes clf;
  EXPECT_THROW(clf.Load(in), std::runtime_error);
}

TEST(LoaderHardeningTest, SvmKernelOutOfRangeThrows) {
  // The kernel byte was cast to KernelKind unchecked.
  std::istringstream in("svm 42 1.0 0.5 -1\nmoments 2\n0 0 1 1\nmodels 0\n");
  ml::SvmClassifier clf;
  EXPECT_THROW(clf.Load(in), std::runtime_error);
}

TEST(LoaderHardeningTest, SvmMomentsBombThrows) {
  // The fuzz-discovered shape (corpus seed model_svm_count_bomb): the
  // moments count replaced by 2^32.
  std::istringstream in("svm 0 1.0 0.5 -1\nmoments 4294967296\n0 0\n");
  ml::SvmClassifier clf;
  EXPECT_THROW(clf.Load(in), std::runtime_error);
}

TEST(LoaderHardeningTest, SvmSupportVectorBombThrows) {
  std::istringstream in(
      "svm 0 1.0 0.5 -1\nmoments 2\n0 0 1 1\nmodels 1\n"
      "1 2 0.0 4294967296\n");
  ml::SvmClassifier clf;
  EXPECT_THROW(clf.Load(in), std::runtime_error);
}

TEST(LoaderHardeningTest, RpmModelZeroLengthPatternRejected) {
  // RpmClassifier::Load accepted zero-length patterns; every stored
  // pattern must carry at least one value.
  std::string text = Harness().model_text();
  const std::size_t at = text.find("patterns ");
  ASSERT_NE(at, std::string::npos);
  // Rewrite the first pattern header's length field to 0: the header is
  // "<label> <frequency> <len>" on the line after the section tag.
  std::istringstream scan(text.substr(at));
  std::string tag;
  std::size_t count = 0;
  int label = 0;
  double frequency = 0.0;
  std::size_t len = 0;
  scan >> tag >> count >> label >> frequency >> len;
  ASSERT_GT(len, 0u);
  const std::string needle = " " + std::to_string(len) + " ";
  const std::size_t len_at = text.find(needle, at);
  ASSERT_NE(len_at, std::string::npos);
  text = text.substr(0, len_at) + " 0 " + text.substr(len_at + needle.size());
  std::istringstream in(text);
  EXPECT_THROW(core::RpmClassifier::Load(in), std::runtime_error);
}

// Load must reject the fixture model with its first pattern row deleted
// (`grow` false) or duplicated (true) and the "patterns" count adjusted
// to match, naming both counts: its SVM was fitted on the old count.
void ExpectPatternCountMismatchRejected(bool grow) {
  std::string text = Harness().model_text();
  const std::size_t head = text.find("\npatterns ") + 1;
  const std::size_t row = text.find('\n', head) + 1;
  const std::size_t next = text.find('\n', row) + 1;
  const std::size_t count = std::stoul(text.substr(head + 9));
  const std::size_t patterns = grow ? count + 1 : count - 1;
  const std::string header = "patterns " + std::to_string(patterns) + "\n";
  if (grow) {
    text.replace(head, row - head, header + text.substr(row, next - row));
  } else {
    text.replace(head, next - head, header);
  }
  const std::string expect = "expects " + std::to_string(count) +
                             " features but the model has " +
                             std::to_string(patterns) + " patterns";
  std::istringstream in(text);
  try {
    core::RpmClassifier::Load(in);
    ADD_FAILURE() << "loaded a model that " << expect;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(expect), std::string::npos)
        << e.what();
  }
}

TEST(LoaderHardeningTest, RpmModelMissingPatternRowRejected) {
  // The SVM's support vectors are one value wider than every row.
  ExpectPatternCountMismatchRejected(false);
}

TEST(LoaderHardeningTest, RpmModelDuplicatedPatternRowRejected) {
  // Every row is one value wider than the SVM's feature moments.
  ExpectPatternCountMismatchRejected(true);
}

TEST(LoaderHardeningTest, MutatedFixtureNeverCrashesLoad) {
  // Direct mutation loop against Load without the harness wrapper, so a
  // failure pinpoints the loader rather than the scheduler.
  const std::string& base = Harness().model_text();
  for (std::uint64_t seed = 9000; seed < 9300; ++seed) {
    SplitMix64 rng(seed);
    const std::string mutated = fuzz::MutateModelText(base, &rng);
    std::istringstream in(mutated);
    try {
      core::RpmClassifier clf = core::RpmClassifier::Load(in);
      (void)clf;
    } catch (const std::exception&) {
      // rejection is the expected outcome for most mutations
    }
  }
  SUCCEED();
}

}  // namespace
}  // namespace rpm
