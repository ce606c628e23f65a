// Tests for Sequitur grammar induction: the expansion-roundtrip invariant
// (S must reproduce the input exactly), digram uniqueness, rule utility,
// occurrence spans, and randomized property sweeps.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "grammar/sequitur.h"
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

}  // namespace
}  // namespace rpm::grammar
