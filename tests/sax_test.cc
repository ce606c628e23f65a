// Tests for the SAX substrate: Gaussian breakpoints, PAA, word encoding,
// sliding-window discretization with numerosity reduction, and the
// MINDIST lower-bound property.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "distance/euclidean.h"
#include "sax/sax.h"
#include "ts/rng.h"
#include "ts/znorm.h"

namespace rpm::sax {
namespace {

// ---------------- Reference discretizer ----------------
//
// The one-pass discretizer as first written, kept here as the oracle the
// library's PAA and sliding-window SAX must reproduce bit for bit: each
// window copied and z-normalized in place, then PAA by the direct
// fractional-boundary loop (every input point adds its overlap-weighted
// value to each segment it covers, in point order), then symbol binning.

ts::Series RefPaa(ts::SeriesView values, std::size_t segments) {
  ts::Series out(segments, 0.0);
  const std::size_t n = values.size();
  if (n == 0 || segments == 0) return out;
  if (segments >= n) {
    for (std::size_t i = 0; i < segments; ++i) {
      out[i] = values[i * n / segments];
    }
    return out;
  }
  std::vector<double> weight(segments, 0.0);
  const double seg_width = static_cast<double>(n) / segments;
  for (std::size_t j = 0; j < n; ++j) {
    const double lo = static_cast<double>(j);
    const double hi = lo + 1.0;
    auto first = static_cast<std::size_t>(lo / seg_width);
    first = std::min(first, segments - 1);
    for (std::size_t s = first; s < segments; ++s) {
      const double seg_lo = s * seg_width;
      const double seg_hi = seg_lo + seg_width;
      const double overlap = std::min(hi, seg_hi) - std::max(lo, seg_lo);
      if (overlap <= 0.0) break;
      out[s] += values[j] * overlap;
      weight[s] += overlap;
    }
  }
  for (std::size_t s = 0; s < segments; ++s) {
    if (weight[s] > 0.0) out[s] /= weight[s];
  }
  return out;
}

std::string RefSaxWord(ts::SeriesView znormed, std::size_t paa_size,
                       int alphabet) {
  const ts::Series paa = RefPaa(znormed, paa_size);
  const auto& bps = GaussianBreakpoints(alphabet);
  std::string word(paa_size, 'a');
  for (std::size_t i = 0; i < paa_size; ++i) {
    const auto it = std::upper_bound(bps.begin(), bps.end(), paa[i]);
    word[i] = static_cast<char>('a' + (it - bps.begin()));
  }
  return word;
}

std::vector<SaxRecord> RefDiscretize(ts::SeriesView series,
                                     const SaxOptions& options) {
  std::vector<SaxRecord> out;
  if (options.window == 0 || series.size() < options.window) return out;
  const std::size_t count = series.size() - options.window + 1;
  ts::Series buf;
  for (std::size_t pos = 0; pos < count; ++pos) {
    const ts::SeriesView window = series.subspan(pos, options.window);
    std::string word;
    if (options.znormalize) {
      buf.assign(window.begin(), window.end());
      ts::ZNormalizeInPlace(buf);
      word = RefSaxWord(buf, options.paa_size, options.alphabet);
    } else {
      word = RefSaxWord(window, options.paa_size, options.alphabet);
    }
    if (options.numerosity_reduction && !out.empty() &&
        out.back().word == word) {
      continue;
    }
    out.push_back(SaxRecord{std::move(word), pos});
  }
  return out;
}

// A series that mixes every window regime: Gaussian noise, exactly flat
// runs, near-flat runs (noise far below kFlatThreshold, and noise just
// around it) and steps, so windows land on both sides of the flat rule.
ts::Series MixedSeries(std::size_t length, std::uint64_t seed) {
  ts::Rng rng(seed);
  ts::Series s(length);
  std::size_t i = 0;
  while (i < length) {
    const auto run = static_cast<std::size_t>(rng.UniformInt(3, 40));
    const std::int64_t kind = rng.UniformInt(0, 4);
    const double level = rng.Gaussian(0.0, 3.0);
    for (std::size_t k = 0; k < run && i < length; ++k, ++i) {
      switch (kind) {
        case 0: s[i] = level; break;
        case 1: s[i] = level + rng.Gaussian(0.0, 1e-12); break;
        case 2: s[i] = level + rng.Gaussian(0.0, 1e-8); break;
        default: s[i] = level + rng.Gaussian(); break;
      }
    }
  }
  return s;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(ReferenceSweep, PaaBitIdentical) {
  // Every (window, paa) pair with window 1-64 and paa 1 to window + 2,
  // which covers the upsample branch (paa >= window), over z-normalized
  // and raw windows of a mixed series, built as RefDiscretize builds them.
  const ts::Series series = MixedSeries(160, 31);
  ts::Series buf;
  for (std::size_t window = 1; window <= 64; ++window) {
    for (const bool znorm : {true, false}) {
      for (std::size_t pos = 0; pos + window <= series.size(); pos += 3) {
        ts::SeriesView values = ts::SeriesView(series).subspan(pos, window);
        if (znorm) {
          buf.assign(values.begin(), values.end());
          ts::ZNormalizeInPlace(buf);
          values = buf;
        }
        for (std::size_t paa = 1; paa <= window + 2; ++paa) {
          const ts::Series want = RefPaa(values, paa);
          const ts::Series got = Paa(values, paa);
          ASSERT_EQ(got.size(), paa);
          for (std::size_t s = 0; s < paa; ++s) {
            ASSERT_TRUE(SameBits(got[s], want[s]))
                << "window " << window << " paa " << paa << " pos " << pos;
          }
        }
      }
    }
  }
}

TEST(ReferenceSweep, RecordsBitIdentical) {
  // Records of the library's discretizer against the reference, for
  // every window 1-64 and paa 1 to window + 2. Each pair runs all four
  // (z-normalize, numerosity) settings; the alphabet walks 2-26 across
  // pairs so every size meets many shapes.
  std::size_t pairs = 0;
  for (std::size_t window = 1; window <= 64; ++window) {
    const ts::Series series = MixedSeries(window + 48, 100 + window);
    const ts::Series short_series = MixedSeries(window - 1, 7);
    for (std::size_t paa = 1; paa <= window + 2; ++paa, ++pairs) {
      const int alphabet = kMinAlphabet + static_cast<int>(pairs % 25);
      for (const bool znorm : {true, false}) {
        for (const bool numerosity : {true, false}) {
          SaxOptions opt;
          opt.window = window;
          opt.paa_size = paa;
          opt.alphabet = alphabet;
          opt.znormalize = znorm;
          opt.numerosity_reduction = numerosity;
          const std::vector<SaxRecord> want = RefDiscretize(series, opt);
          ASSERT_EQ(DiscretizeSlidingWindow(series, opt), want)
              << "window " << window << " paa " << paa << " alphabet "
              << alphabet << " znorm " << znorm << " nr " << numerosity;
          EXPECT_TRUE(DiscretizeSlidingWindow(short_series, opt).empty());
        }
      }
    }
  }
  // Every alphabet size at one long, varied series.
  const ts::Series series = MixedSeries(600, 5);
  for (int alphabet = kMinAlphabet; alphabet <= kMaxAlphabet; ++alphabet) {
    SaxOptions opt;
    opt.window = 24;
    opt.paa_size = 7;
    opt.alphabet = alphabet;
    EXPECT_EQ(DiscretizeSlidingWindow(series, opt),
              RefDiscretize(series, opt))
        << alphabet;
  }
  // Window 0 yields no records; zero PAA segments yield empty words.
  SaxOptions degenerate;
  degenerate.window = 0;
  EXPECT_TRUE(DiscretizeSlidingWindow(series, degenerate).empty());
  degenerate.window = 20;
  degenerate.paa_size = 0;
  for (const bool numerosity : {true, false}) {
    degenerate.numerosity_reduction = numerosity;
    EXPECT_EQ(DiscretizeSlidingWindow(series, degenerate),
              RefDiscretize(series, degenerate))
        << numerosity;
  }
}

TEST(ReferenceSweep, SaxWordBitIdentical) {
  const ts::Series series = MixedSeries(200, 77);
  for (std::size_t len : {1u, 2u, 5u, 16u, 33u, 64u}) {
    for (std::size_t paa = 1; paa <= len + 2; ++paa) {
      for (std::size_t pos = 0; pos + len <= series.size(); pos += 29) {
        ts::Series w(series.begin() + static_cast<std::ptrdiff_t>(pos),
                     series.begin() + static_cast<std::ptrdiff_t>(pos + len));
        ts::ZNormalizeInPlace(w);
        const int alphabet = kMinAlphabet + static_cast<int>((pos + paa) % 25);
        ASSERT_EQ(SaxWord(w, paa, alphabet), RefSaxWord(w, paa, alphabet))
            << "len " << len << " paa " << paa << " pos " << pos;
      }
    }
  }
}

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
