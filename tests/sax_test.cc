// Tests for the SAX substrate: Gaussian breakpoints, PAA, word encoding,
// sliding-window discretization with numerosity reduction, and the
// MINDIST lower-bound property.

#include <gtest/gtest.h>

#include <cmath>

#include "distance/euclidean.h"
#include "sax/sax.h"
#include "ts/rng.h"
#include "ts/znorm.h"

namespace rpm::sax {
namespace {

TEST(Breakpoints, KnownValues) {
  // Classic SAX table: alphabet 4 -> {-0.6745, 0, 0.6745} (quartiles).
  const auto& b4 = GaussianBreakpoints(4);
  ASSERT_EQ(b4.size(), 3u);
  EXPECT_NEAR(b4[0], -0.6745, 1e-3);
  EXPECT_NEAR(b4[1], 0.0, 1e-9);
  EXPECT_NEAR(b4[2], 0.6745, 1e-3);
  // Alphabet 3 -> {-0.4307, 0.4307}.
  const auto& b3 = GaussianBreakpoints(3);
  ASSERT_EQ(b3.size(), 2u);
  EXPECT_NEAR(b3[0], -0.4307, 1e-3);
  EXPECT_NEAR(b3[1], 0.4307, 1e-3);
}

TEST(Breakpoints, MonotoneAndSymmetric) {
  for (int a = 2; a <= 12; ++a) {
    const auto& bps = GaussianBreakpoints(a);
    ASSERT_EQ(bps.size(), static_cast<std::size_t>(a - 1));
    for (std::size_t i = 1; i < bps.size(); ++i) {
      EXPECT_LT(bps[i - 1], bps[i]);
    }
    for (std::size_t i = 0; i < bps.size(); ++i) {
      EXPECT_NEAR(bps[i], -bps[bps.size() - 1 - i], 1e-9);
    }
  }
}

TEST(Breakpoints, RejectsOutOfRange) {
  EXPECT_THROW(GaussianBreakpoints(1), std::invalid_argument);
  EXPECT_THROW(GaussianBreakpoints(27), std::invalid_argument);
}

TEST(Paa, ExactDivision) {
  const ts::Series s = {1.0, 3.0, 2.0, 4.0, 10.0, 20.0};
  const ts::Series p = Paa(s, 3);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_DOUBLE_EQ(p[0], 2.0);
  EXPECT_DOUBLE_EQ(p[1], 3.0);
  EXPECT_DOUBLE_EQ(p[2], 15.0);
}

TEST(Paa, FractionalDivisionPreservesMean) {
  // Total weighted mass equals the series mean regardless of segments.
  const ts::Series s = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  for (std::size_t segments : {2u, 3u, 4u, 5u}) {
    const ts::Series p = Paa(s, segments);
    double mean = 0.0;
    for (double v : p) mean += v;
    mean /= static_cast<double>(segments);
    EXPECT_NEAR(mean, 4.0, 1e-9) << segments;
  }
}

TEST(Paa, SingleSegmentIsMean) {
  const ts::Series s = {2.0, 4.0, 9.0};
  const ts::Series p = Paa(s, 1);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_DOUBLE_EQ(p[0], 5.0);
}

TEST(Paa, UpsamplingReplicates) {
  const ts::Series s = {1.0, 2.0};
  const ts::Series p = Paa(s, 4);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[3], 2.0);
}

TEST(PaaRowsTest, BitIdenticalToPerRowPaa) {
  // PaaRows shares one precomputed coverage plan across rows; every row
  // must equal the standalone Paa result bit-for-bit, across downsample,
  // exact-division, and upsample regimes.
  ts::Rng rng(404);
  ts::Series series(160);
  for (auto& v : series) v = rng.Gaussian(0.0, 1.0);
  for (std::size_t window : {7u, 16u, 30u}) {
    const WindowMatrix windows = SlidingWindows(series, window, true);
    for (std::size_t paa : {2u, 4u, 7u, 16u, 40u}) {
      const PaaMatrix rows = PaaRows(windows, paa);
      ASSERT_EQ(rows.count, windows.count);
      for (std::size_t i = 0; i < windows.count; ++i) {
        const ts::Series expect = Paa(windows.Row(i), paa);
        const ts::SeriesView got = rows.Row(i);
        ASSERT_EQ(got.size(), expect.size());
        for (std::size_t s = 0; s < paa; ++s) {
          ASSERT_EQ(got[s], expect[s])
              << "window " << window << " paa " << paa << " row " << i
              << " seg " << s;
        }
      }
    }
  }
}

TEST(SymbolMapping, RespectsBreakpoints) {
  EXPECT_EQ(Symbol(-2.0, 4), 'a');
  EXPECT_EQ(Symbol(-0.5, 4), 'b');
  EXPECT_EQ(Symbol(0.5, 4), 'c');
  EXPECT_EQ(Symbol(2.0, 4), 'd');
}

TEST(SaxWordTest, RampEncodesMonotonically) {
  ts::Series ramp(32);
  for (std::size_t i = 0; i < 32; ++i) ramp[i] = static_cast<double>(i);
  ts::ZNormalizeInPlace(ramp);
  const std::string w = SaxWord(ramp, 4, 4);
  ASSERT_EQ(w.size(), 4u);
  for (std::size_t i = 1; i < w.size(); ++i) EXPECT_LE(w[i - 1], w[i]);
  EXPECT_EQ(w.front(), 'a');
  EXPECT_EQ(w.back(), 'd');
}

TEST(SlidingWindow, OffsetsAndReduction) {
  // A periodic series yields repeated words; numerosity reduction must
  // keep only run starts, and offsets must be strictly increasing.
  ts::Series s(64);
  for (std::size_t i = 0; i < 64; ++i) {
    s[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / 16.0);
  }
  SaxOptions opt;
  opt.window = 16;
  opt.paa_size = 4;
  opt.alphabet = 4;
  const auto reduced = DiscretizeSlidingWindow(s, opt);
  ASSERT_FALSE(reduced.empty());
  for (std::size_t i = 1; i < reduced.size(); ++i) {
    EXPECT_LT(reduced[i - 1].offset, reduced[i].offset);
    EXPECT_NE(reduced[i - 1].word, reduced[i].word);  // adjacent differ
  }
  opt.numerosity_reduction = false;
  const auto full = DiscretizeSlidingWindow(s, opt);
  EXPECT_EQ(full.size(), 64u - 16u + 1u);
  EXPECT_LT(reduced.size(), full.size());
}

TEST(SlidingWindow, ShortSeriesYieldsNothing) {
  SaxOptions opt;
  opt.window = 10;
  EXPECT_TRUE(DiscretizeSlidingWindow(ts::Series(5, 1.0), opt).empty());
}

TEST(SlidingWindow, WordLengthAndAlphabetHonored) {
  ts::Rng rng(2);
  ts::Series s(50);
  for (auto& v : s) v = rng.Gaussian();
  SaxOptions opt;
  opt.window = 20;
  opt.paa_size = 5;
  opt.alphabet = 3;
  for (const auto& rec : DiscretizeSlidingWindow(s, opt)) {
    EXPECT_EQ(rec.word.size(), 5u);
    for (char c : rec.word) {
      EXPECT_GE(c, 'a');
      EXPECT_LE(c, 'c');
    }
  }
}

TEST(MinDistTest, IdenticalAndAdjacentAreZero) {
  EXPECT_DOUBLE_EQ(MinDist("abc", "abc", 4, 12), 0.0);
  EXPECT_DOUBLE_EQ(MinDist("ab", "ba", 4, 8), 0.0);  // adjacent symbols
  EXPECT_GT(MinDist("aa", "cc", 4, 8), 0.0);
  EXPECT_THROW(MinDist("ab", "abc", 4, 8), std::invalid_argument);
}

// Property: MINDIST lower-bounds the true Euclidean distance of the
// z-normalized subsequences (the SAX contract).
class MinDistProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MinDistProperty, LowerBoundsEuclidean) {
  ts::Rng rng(GetParam());
  const std::size_t n = 40;
  ts::Series a(n);
  ts::Series b(n);
  for (auto& v : a) v = rng.Gaussian();
  for (auto& v : b) v = rng.Gaussian();
  ts::ZNormalizeInPlace(a);
  ts::ZNormalizeInPlace(b);
  for (int alphabet : {3, 4, 6, 8}) {
    for (std::size_t w : {4u, 8u}) {
      const std::string wa = SaxWord(a, w, alphabet);
      const std::string wb = SaxWord(b, w, alphabet);
      EXPECT_LE(MinDist(wa, wb, alphabet, n),
                distance::Euclidean(a, b) + 1e-9)
          << "alphabet=" << alphabet << " w=" << w;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, MinDistProperty,
                         ::testing::Range<std::size_t>(1, 16));

}  // namespace
}  // namespace rpm::sax
