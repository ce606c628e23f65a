// Tests for Sequitur grammar induction: the expansion-roundtrip invariant
// (S must reproduce the input exactly), digram uniqueness, rule utility,
// occurrence spans, and randomized property sweeps.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "core/candidates.h"
#include "grammar/motifs.h"
#include "grammar/sequitur.h"
#include "sax/sax.h"
#include "ts/generators.h"
#include "ts/rng.h"

namespace rpm::grammar {
namespace {

std::vector<std::uint32_t> Tokens(std::initializer_list<std::uint32_t> t) {
  return {t};
}

TEST(Sequitur, EmptyInput) {
  const Grammar g = InferGrammar({});
  ASSERT_EQ(g.rules().size(), 1u);
  EXPECT_TRUE(g.rules()[0].rhs.empty());
  EXPECT_EQ(g.sequence_length(), 0u);
}

TEST(Sequitur, NoRepeatsNoRules) {
  const auto tokens = Tokens({1, 2, 3, 4, 5});
  const Grammar g = InferGrammar(tokens);
  EXPECT_EQ(g.rules().size(), 1u);  // only S
  EXPECT_EQ(g.Expand(0), tokens);
}

TEST(Sequitur, ClassicAbcdbcExample) {
  // "a b c d b c" -> S: a R1 d R1 ; R1: b c
  const auto tokens = Tokens({0, 1, 2, 3, 1, 2});
  const Grammar g = InferGrammar(tokens);
  ASSERT_EQ(g.rules().size(), 2u);
  const GrammarRule& r1 = g.rules()[1];
  EXPECT_EQ(r1.rhs, (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(r1.expanded_length, 2u);
  ASSERT_EQ(r1.occurrences.size(), 2u);
  EXPECT_EQ(r1.occurrences[0], (RuleOccurrence{1, 2}));
  EXPECT_EQ(r1.occurrences[1], (RuleOccurrence{4, 5}));
  EXPECT_EQ(g.Expand(0), tokens);
}

TEST(Sequitur, NestedRules) {
  // "abcabcabcabc": hierarchical rules, roundtrip must hold.
  std::vector<std::uint32_t> tokens;
  for (int i = 0; i < 4; ++i) {
    tokens.push_back(0);
    tokens.push_back(1);
    tokens.push_back(2);
  }
  const Grammar g = InferGrammar(tokens);
  EXPECT_EQ(g.Expand(0), tokens);
  EXPECT_GE(g.rules().size(), 2u);
  // Every non-S rule must occur at least twice (rule utility).
  for (const GrammarRule* r : g.RepeatedRules()) {
    EXPECT_GE(r->occurrences.size(), 2u) << "rule " << r->id;
  }
}

TEST(Sequitur, OverlappingDigramsNotReduced) {
  // "aaa" has overlapping (a,a) digrams; Sequitur must not corrupt.
  const auto tokens = Tokens({7, 7, 7});
  const Grammar g = InferGrammar(tokens);
  EXPECT_EQ(g.Expand(0), tokens);
}

TEST(Sequitur, PaperExampleFromSection322) {
  // S1 = aba bac cab acc bac cab (word ids: aba=0 bac=1 cab=2 acc=3)
  // The paper's grammar: R0 -> R1 acc R1 ; R1 -> bac cab  (modulo ids).
  const auto tokens = Tokens({0, 1, 2, 3, 1, 2});
  const Grammar g = InferGrammar(tokens);
  ASSERT_EQ(g.rules().size(), 2u);
  const GrammarRule& r1 = g.rules()[1];
  EXPECT_EQ(r1.rhs, (std::vector<std::int64_t>{1, 2}));
}

TEST(Sequitur, OccurrenceSpansAreConsistent) {
  ts::Rng rng(3);
  std::vector<std::uint32_t> tokens;
  for (int i = 0; i < 200; ++i) {
    tokens.push_back(static_cast<std::uint32_t>(rng.UniformInt(0, 4)));
  }
  const Grammar g = InferGrammar(tokens);
  EXPECT_EQ(g.Expand(0), tokens);
  for (const GrammarRule* r : g.RepeatedRules()) {
    const auto expansion = g.Expand(r->id);
    EXPECT_EQ(expansion.size(), r->expanded_length);
    for (const RuleOccurrence& occ : r->occurrences) {
      ASSERT_LT(occ.last_token, tokens.size());
      ASSERT_EQ(occ.last_token - occ.first_token + 1, r->expanded_length);
      // The tokens under the span must equal the rule's expansion.
      for (std::size_t i = 0; i < expansion.size(); ++i) {
        EXPECT_EQ(tokens[occ.first_token + i], expansion[i]);
      }
    }
  }
}

TEST(Sequitur, DigramUniquenessInFinalGrammar) {
  // No digram may appear twice across all right-hand sides.
  ts::Rng rng(11);
  std::vector<std::uint32_t> tokens;
  for (int i = 0; i < 300; ++i) {
    tokens.push_back(static_cast<std::uint32_t>(rng.UniformInt(0, 3)));
  }
  const Grammar g = InferGrammar(tokens);
  std::map<std::pair<std::int64_t, std::int64_t>, int> digram_count;
  for (const auto& rule : g.rules()) {
    for (std::size_t i = 1; i < rule.rhs.size(); ++i) {
      ++digram_count[{rule.rhs[i - 1], rule.rhs[i]}];
    }
  }
  for (const auto& [digram, count] : digram_count) {
    // Overlapping same-symbol digrams (aaa) may legally repeat.
    if (digram.first == digram.second) continue;
    EXPECT_LE(count, 1) << digram.first << "," << digram.second;
  }
}

TEST(Sequitur, ToStringMentionsEveryRule) {
  const Grammar g = InferGrammar(Tokens({0, 1, 2, 3, 1, 2}));
  const std::string s = g.ToString();
  EXPECT_NE(s.find("S ->"), std::string::npos);
  EXPECT_NE(s.find("R1 ->"), std::string::npos);
}

// Property sweep: roundtrip and occurrence consistency across alphabet
// sizes and lengths. gtest names each case after the bytes of its
// parameter, so the struct has no padding: every byte it prints is a
// field's, and each test keeps the same name in every build.
struct SequiturCase {
  std::size_t seed;
  std::size_t length;
  std::size_t alphabet;
};
static_assert(sizeof(SequiturCase) == 3 * sizeof(std::size_t),
              "padding bytes would put uninitialized memory in test names");

class SequiturProperty : public ::testing::TestWithParam<SequiturCase> {};

TEST_P(SequiturProperty, RoundTripAndUtility) {
  const SequiturCase c = GetParam();
  ts::Rng rng(c.seed);
  std::vector<std::uint32_t> tokens;
  tokens.reserve(c.length);
  for (std::size_t i = 0; i < c.length; ++i) {
    tokens.push_back(static_cast<std::uint32_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(c.alphabet) - 1)));
  }
  const Grammar g = InferGrammar(tokens);
  EXPECT_EQ(g.Expand(0), tokens);
  for (const GrammarRule* r : g.RepeatedRules()) {
    EXPECT_GE(r->rhs.size(), 2u);
    EXPECT_GE(r->occurrences.size(), 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SequiturProperty,
    ::testing::Values(SequiturCase{1, 10, 2}, SequiturCase{2, 50, 2},
                      SequiturCase{3, 100, 3}, SequiturCase{4, 500, 3},
                      SequiturCase{5, 1000, 5}, SequiturCase{6, 2000, 8},
                      SequiturCase{7, 500, 2}, SequiturCase{8, 64, 4},
                      SequiturCase{9, 1500, 12}, SequiturCase{10, 3000, 4}));


// ---------------- Grammar pins ----------------
//
// Each pin is an FNV-1a digest of Grammar::ToString() followed by every
// rule's occurrence spans, so a change to any rule body, expanded length,
// rule order or span moves it. The pins were recorded from the
// pointer-linked Sequitur (heap-allocated symbols and rules, digrams in a
// node-based hash map); any rewrite must reproduce them bit for bit.

std::uint64_t Fnv1a(const std::string& bytes,
                    std::uint64_t h = 14695981039346656037ull) {
  for (const unsigned char c : bytes) h = (h ^ c) * 1099511628211ull;
  return h;
}

std::uint64_t GrammarDigest(const Grammar& g,
                            std::uint64_t h = 14695981039346656037ull) {
  h = Fnv1a(g.ToString(), h);
  for (const GrammarRule& r : g.rules()) {
    std::string spans(1, 'R');
    spans.append(std::to_string(r.id)).append(":");
    for (const RuleOccurrence& occ : r.occurrences) {
      spans += std::to_string(occ.first_token);
      spans += '-';
      spans += std::to_string(occ.last_token);
      spans += ' ';
    }
    h = Fnv1a(spans, h);
  }
  return h;
}

// The token stream candidate mining feeds Sequitur for each class of
// every BenchmarkSuite dataset (seed 1): the class concatenation,
// discretized at window max(8, length/4), PAA 5, alphabet 4, with
// numerosity reduction. One digest per dataset, classes in label order.
TEST(SequiturPin, SuiteClassStreamsSeed1) {
  static constexpr std::uint64_t kPinned[] = {
      0x5d5e1b29e3023e3bull,   // CBF
      0x811757985021ed29ull,   // TwoPatterns
      0xd4d19d1657e27de2ull,   // SyntheticControl
      0x9a9ce4205f7df364ull,   // GunPoint
      0x5c1ccf17f83502cdull,   // Coffee
      0xecb1128ba69104afull,   // ECGFiveDays
      0x59dd04112b294f25ull,   // Trace
      0x4cf2cab8f39a8694ull,   // ShapeOutlines
      0xf95f6911e84d1d5dull,   // ItalyPower
      0xf61978e1ed4c55ddull,   // Wafer
      0xfd74e4446826af5full,   // Symbols
      0x262b7cc9d350d58eull,   // FaceFour
      0x71bddab66c0c5deeull,   // Lightning
      0xda50bcf025d682d9ull};  // MoteStrain
  const std::vector<ts::DatasetSplit> suite = ts::BenchmarkSuite({1.0, 1});
  ASSERT_EQ(suite.size(), std::size(kPinned));
  for (std::size_t d = 0; d < suite.size(); ++d) {
    const ts::Dataset& train = suite[d].train;
    sax::SaxOptions sax;
    sax.window = std::max<std::size_t>(8, train.MinLength() / 4);
    sax.paa_size = 5;
    sax.alphabet = 4;
    std::uint64_t h = Fnv1a(suite[d].name);
    for (int label : train.ClassLabels()) {
      const core::ConcatenatedClass cls = core::ConcatenateClass(train, label);
      const std::vector<std::uint32_t> tokens = TokensFromRecords(
          sax::DiscretizeSlidingWindow(cls.values, sax));
      const Grammar g = InferGrammar(tokens);
      ASSERT_EQ(g.Expand(0), tokens) << suite[d].name << " class " << label;
      h = GrammarDigest(g, h);
    }
    EXPECT_EQ(h, kPinned[d]) << suite[d].name << " 0x" << std::hex << h;
  }
}

// 300 seeded streams: lengths 0-6000, alphabets 2-61, alternating
// uniform-random tokens and near-periodic ones (a random motif of period
// 1-40 repeated with 5% substitutions), which exercise long rule chains,
// rule reuse and the overlapping "aaa" digrams.
TEST(SequiturPin, SeededStreams) {
  static constexpr std::uint64_t kPinned = 0x7d2b0fc51e3aa19eull;
  std::uint64_t h = 14695981039346656037ull;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    ts::Rng rng(9000 + seed);
    const auto length = static_cast<std::size_t>(rng.UniformInt(0, 6000));
    const std::int64_t alphabet = rng.UniformInt(2, 61);
    std::vector<std::uint32_t> tokens;
    tokens.reserve(length);
    if (seed % 2 == 0) {
      for (std::size_t i = 0; i < length; ++i) {
        tokens.push_back(
            static_cast<std::uint32_t>(rng.UniformInt(0, alphabet - 1)));
      }
    } else {
      std::vector<std::uint32_t> motif(
          static_cast<std::size_t>(rng.UniformInt(1, 40)));
      for (auto& t : motif) {
        t = static_cast<std::uint32_t>(rng.UniformInt(0, alphabet - 1));
      }
      for (std::size_t i = 0; i < length; ++i) {
        tokens.push_back(
            rng.Bernoulli(0.05)
                ? static_cast<std::uint32_t>(rng.UniformInt(0, alphabet - 1))
                : motif[i % motif.size()]);
      }
    }
    const Grammar g = InferGrammar(tokens);
    ASSERT_EQ(g.Expand(0), tokens) << "seed " << seed;
    h = GrammarDigest(g, h);
  }
  EXPECT_EQ(h, kPinned) << "0x" << std::hex << h;
}

}  // namespace
}  // namespace rpm::grammar
