// Golden cross-tier tests for the length-bucketed SoA pattern store
// (distance/pattern_store.h) and the runtime ISA dispatcher
// (distance/isa_dispatch.h): every compiled tier must produce
// bit-identical best-match positions AND distances — the invariant that
// lets the dispatcher change speed without ever changing output.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "distance/euclidean.h"
#include "distance/isa_dispatch.h"
#include "distance/matcher.h"
#include "distance/pattern_store.h"
#include "ts/rng.h"
#include "ts/series.h"
#include "ts/znorm.h"

namespace rpm {
namespace {

ts::Series RandomWalk(std::size_t n, std::uint64_t seed) {
  ts::Rng rng(seed);
  ts::Series s(n);
  double v = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    v += rng.Gaussian(0.0, 1.0);
    s[i] = v;
  }
  return s;
}

ts::Series ZNormalizedPattern(std::size_t n, std::uint64_t seed) {
  ts::Series p = RandomWalk(n, seed);
  ts::ZNormalizeInPlace(p);
  return p;
}

// Every tier this build + host can actually run (scalar is always there).
std::vector<distance::IsaTier> AvailableTiers() {
  std::vector<distance::IsaTier> tiers;
  for (distance::IsaTier t :
       {distance::IsaTier::kScalar, distance::IsaTier::kAvx2,
        distance::IsaTier::kAvx512}) {
    if (distance::IsaTierAvailable(t)) tiers.push_back(t);
  }
  return tiers;
}

// Restores the startup tier even when an assertion fails mid-test.
struct TierGuard {
  ~TierGuard() { distance::ResetIsaTier(); }
};

// The golden sweep: one pattern per length 2..512 — every bucket size,
// every padded-tail residue (n mod 8), odd and even lengths, lengths
// around the unrolled-dot boundary (n/4 <= 16 ~ n = 64..67), and
// patterns longer than the series (sentinel slots mid-batch). The
// scalar-tier one-pattern scan (the scalar bucket body at count = 1) is
// the reference; every tier's MatchAll through the SoA store must
// reproduce it bit for bit.
TEST(PatternStoreGolden, AllTiersBitIdenticalAcrossLengths2To512) {
  constexpr std::size_t kSeriesLen = 400;  // < 512: long patterns go sentinel
  const ts::Series hay = RandomWalk(kSeriesLen, 42);
  const distance::SeriesContext ctx(hay);

  distance::BatchMatcher matcher;
  for (std::size_t n = 2; n <= 512; ++n) {
    matcher.Add(ZNormalizedPattern(n, 1000 + n));
  }

  TierGuard guard;

  // Reference: forced-scalar one-pattern scans.
  distance::ForceIsaTier(distance::IsaTier::kScalar);
  std::vector<distance::BestMatch> reference;
  reference.reserve(matcher.size());
  for (std::size_t i = 0; i < matcher.size(); ++i) {
    reference.push_back(matcher.Match(i, ctx));
  }

  for (distance::IsaTier tier : AvailableTiers()) {
    distance::ForceIsaTier(tier);
    SCOPED_TRACE(distance::IsaTierName(distance::CurrentIsaTier()));

    distance::MatchScratch scratch;
    std::vector<distance::BestMatch> got;
    matcher.MatchAll(ctx, &scratch, &got);
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      SCOPED_TRACE("pattern length " + std::to_string(i + 2));
      EXPECT_EQ(got[i].position, reference[i].position);
      // Bit-identical, not approximately equal: EXPECT_EQ on doubles.
      EXPECT_EQ(got[i].distance, reference[i].distance);
    }
    // Patterns longer than the series must be the explicit sentinel.
    for (std::size_t i = kSeriesLen - 1; i < got.size(); ++i) {
      EXPECT_FALSE(got[i].found());
      EXPECT_EQ(got[i].distance, std::numeric_limits<double>::infinity());
    }

    // The one-pattern scan under the same tier must agree too (the same
    // tier kernel at count = 1, over the context's unpadded row).
    for (std::size_t i = 0; i < matcher.size(); i += 37) {
      const distance::BestMatch per_call = matcher.Match(i, ctx);
      EXPECT_EQ(per_call.position, reference[i].position);
      EXPECT_EQ(per_call.distance, reference[i].distance);
    }
  }
}

// Many same-length patterns per bucket (the moment-sharing case) plus
// mixed lengths and degenerate entries mid-batch.
TEST(PatternStoreGolden, MixedBucketsWithSentinelsMatchPerPatternScan) {
  const ts::Series hay = RandomWalk(256, 7);
  const distance::SeriesContext ctx(hay);

  distance::BatchMatcher matcher;
  for (int rep = 0; rep < 6; ++rep) {
    matcher.Add(ZNormalizedPattern(16, 50 + static_cast<std::uint64_t>(rep)));
  }
  matcher.Add(ts::Series{});                    // empty -> sentinel
  matcher.Add(ZNormalizedPattern(1, 60));       // single-point special case
  matcher.Add(ZNormalizedPattern(300, 61));     // longer than hay -> sentinel
  for (int rep = 0; rep < 4; ++rep) {
    matcher.Add(ZNormalizedPattern(33, 70 + static_cast<std::uint64_t>(rep)));
  }

  TierGuard guard;
  for (distance::IsaTier tier : AvailableTiers()) {
    distance::ForceIsaTier(tier);
    SCOPED_TRACE(distance::IsaTierName(distance::CurrentIsaTier()));
    const std::vector<distance::BestMatch> got = matcher.MatchAll(ctx);
    ASSERT_EQ(got.size(), matcher.size());
    for (std::size_t i = 0; i < matcher.size(); ++i) {
      const distance::BestMatch want =
          distance::BatchedBestMatch(matcher.pattern(i), ctx);
      EXPECT_EQ(got[i].position, want.position) << "pattern " << i;
      EXPECT_EQ(got[i].distance, want.distance) << "pattern " << i;
    }
  }
}

// One scratch across series of different lengths: buffers must re-size
// and never leak state from the previous series.
TEST(PatternStoreGolden, ScratchReuseAcrossSeries) {
  distance::BatchMatcher matcher;
  for (std::size_t n : {8u, 8u, 21u, 64u, 130u}) {
    matcher.Add(ZNormalizedPattern(n, 900 + n));
  }
  distance::MatchScratch scratch;
  std::vector<distance::BestMatch> got;
  for (std::size_t m : {300u, 40u, 7u, 129u}) {
    const ts::Series hay = RandomWalk(m, 3000 + m);
    const distance::SeriesContext ctx(hay);
    matcher.MatchAll(ctx, &scratch, &got);
    ASSERT_EQ(got.size(), matcher.size());
    for (std::size_t i = 0; i < matcher.size(); ++i) {
      const distance::BestMatch want =
          distance::BatchedBestMatch(matcher.pattern(i), ctx);
      EXPECT_EQ(got[i].position, want.position)
          << "series " << m << " pattern " << i;
      EXPECT_EQ(got[i].distance, want.distance)
          << "series " << m << " pattern " << i;
    }
  }
}

TEST(PatternStoreLayout, BucketsAreLengthSortedAndPadded) {
  std::vector<ts::Series> patterns;
  for (std::size_t n : {33u, 5u, 8u, 33u, 5u, 512u, 1u}) {
    patterns.push_back(ZNormalizedPattern(n, n));
  }
  const distance::PatternStore store(patterns);
  EXPECT_EQ(store.size(), patterns.size());
  ASSERT_EQ(store.num_buckets(), 5u);  // lengths {1, 5, 8, 33, 512}
  std::size_t prev = 0;
  std::size_t total = 0;
  for (std::size_t b = 0; b < store.num_buckets(); ++b) {
    const auto info = store.bucket_info(b);
    EXPECT_GT(info.length, prev);  // strictly ascending, no duplicates
    prev = info.length;
    EXPECT_EQ(info.padded % 8, 0u);
    EXPECT_GE(info.padded, info.length);
    EXPECT_LT(info.padded - info.length, 8u);
    total += info.patterns;
  }
  EXPECT_EQ(total, patterns.size());
}

TEST(PatternStoreLayout, MatchBucketAgreesWithMatchAll) {
  std::vector<ts::Series> patterns;
  for (int rep = 0; rep < 5; ++rep) {
    patterns.push_back(
        ZNormalizedPattern(24, 400 + static_cast<std::uint64_t>(rep)));
  }
  const distance::PatternStore store(patterns);
  ASSERT_EQ(store.num_buckets(), 1u);
  const ts::Series hay = RandomWalk(200, 11);
  const distance::SeriesContext ctx(hay);

  distance::MatchScratch scratch;
  std::vector<distance::BestMatch> all;
  store.MatchAll(ctx, &scratch, &all);

  std::vector<distance::BestMatch> bucket(store.bucket_info(0).patterns);
  store.MatchBucket(0, ctx, bucket.data());
  ASSERT_EQ(bucket.size(), all.size());
  for (std::size_t i = 0; i < bucket.size(); ++i) {
    EXPECT_EQ(bucket[i].position, all[i].position);
    EXPECT_EQ(bucket[i].distance, all[i].distance);
  }
}

// Seeded golden sweep: one pattern per length 2..512 plus degenerate
// entries, adversarial per-pattern seeds (0 prunes everything, +inf is
// the unseeded scan, the exact best distance sits on the strict-<
// boundary, one-ulp-above probes the other side of it). Every tier's
// MatchAllSeeded must reproduce the cutoff-seeded one-pattern scan bit
// for bit — found-ness, position and distance.
TEST(PatternStoreSeeded, MatchAllSeededBitIdenticalToSeededPerPatternScans) {
  constexpr std::size_t kSeriesLen = 400;  // < 512: long patterns go sentinel
  const ts::Series hay = RandomWalk(kSeriesLen, 21);
  const distance::SeriesContext ctx(hay);

  distance::BatchMatcher matcher;
  for (std::size_t n = 2; n <= 512; ++n) {
    matcher.Add(ZNormalizedPattern(n, 2000 + n));
  }
  matcher.Add(ts::Series{});               // empty -> sentinel
  matcher.Add(ZNormalizedPattern(1, 13));  // single-point special case

  // Unseeded best distances feed the boundary seeds below.
  TierGuard guard;
  distance::ForceIsaTier(distance::IsaTier::kScalar);
  std::vector<double> best(matcher.size());
  for (std::size_t i = 0; i < matcher.size(); ++i) {
    best[i] = matcher.Match(i, ctx).distance;  // +inf when unfound
  }

  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> seeds(matcher.size());
  for (std::size_t i = 0; i < matcher.size(); ++i) {
    switch (i % 4) {
      case 0: seeds[i] = 0.0; break;
      case 1: seeds[i] = inf; break;
      case 2: seeds[i] = best[i]; break;
      default:
        seeds[i] = std::isinf(best[i]) ? inf : std::nextafter(best[i], inf);
    }
  }

  for (distance::IsaTier tier : AvailableTiers()) {
    distance::ForceIsaTier(tier);
    SCOPED_TRACE(distance::IsaTierName(distance::CurrentIsaTier()));
    distance::MatchScratch scratch;
    std::vector<distance::BestMatch> got;
    matcher.MatchAllSeeded(ctx, &scratch, seeds, &got);
    ASSERT_EQ(got.size(), matcher.size());
    for (std::size_t i = 0; i < matcher.size(); ++i) {
      SCOPED_TRACE("pattern " + std::to_string(i));
      const distance::BestMatch want =
          distance::BatchedBestMatch(matcher.pattern(i), ctx, seeds[i]);
      EXPECT_EQ(got[i].position, want.position);
      EXPECT_EQ(got[i].distance, want.distance);
      // A zero seed admits nothing (every window distance is >= 0).
      if (i % 4 == 0) {
        EXPECT_FALSE(got[i].found());
      }
      // An infinite seed is exactly the unseeded scan.
      if (i % 4 == 1) {
        const distance::BestMatch plain = matcher.Match(i, ctx);
        EXPECT_EQ(got[i].position, plain.position);
        EXPECT_EQ(got[i].distance, plain.distance);
      }
    }
  }
}

// AnyBelow golden sweep: for taus spanning never / boundary / split /
// always, every tier's per-pattern decisions must equal the scalar-tier
// BatchedMatchBelow reference (decision identity AND tier invariance at
// once), and the aggregate mode must equal the OR of the flags.
TEST(PatternStoreSeeded, AnyBelowDecisionIdenticalToBatchedMatchBelow) {
  constexpr std::size_t kSeriesLen = 400;
  const ts::Series hay = RandomWalk(kSeriesLen, 77);
  const distance::SeriesContext ctx(hay);

  distance::BatchMatcher matcher;
  for (std::size_t n = 2; n <= 512; ++n) {
    matcher.Add(ZNormalizedPattern(n, 4000 + n));
  }
  matcher.Add(ts::Series{});               // empty -> decides false
  matcher.Add(ZNormalizedPattern(1, 17));  // single-point special case

  TierGuard guard;
  distance::ForceIsaTier(distance::IsaTier::kScalar);
  std::vector<double> finite_best;
  for (std::size_t i = 0; i < matcher.size(); ++i) {
    const double d = matcher.Match(i, ctx).distance;
    if (!std::isinf(d)) finite_best.push_back(d);
  }
  ASSERT_FALSE(finite_best.empty());
  std::sort(finite_best.begin(), finite_best.end());
  const double tau_mid = finite_best[finite_best.size() / 2];

  const double kTaus[] = {0.0, finite_best.front(), tau_mid,
                          std::numeric_limits<double>::infinity()};
  for (const double tau : kTaus) {
    SCOPED_TRACE("tau " + std::to_string(tau));
    // Scalar per-pattern reference decisions.
    distance::ForceIsaTier(distance::IsaTier::kScalar);
    std::vector<std::uint8_t> want(matcher.size());
    bool want_any = false;
    for (std::size_t i = 0; i < matcher.size(); ++i) {
      want[i] = distance::BatchedMatchBelow(matcher.pattern(i), ctx, tau)
                    ? 1
                    : 0;
      want_any = want_any || want[i] != 0;
    }

    for (distance::IsaTier tier : AvailableTiers()) {
      distance::ForceIsaTier(tier);
      SCOPED_TRACE(distance::IsaTierName(distance::CurrentIsaTier()));
      distance::MatchScratch scratch;
      std::vector<std::uint8_t> below;
      const bool any = matcher.AnyBelow(ctx, &scratch, tau, &below);
      ASSERT_EQ(below.size(), matcher.size());
      for (std::size_t i = 0; i < matcher.size(); ++i) {
        EXPECT_EQ(below[i], want[i]) << "pattern " << i;
      }
      EXPECT_EQ(any, want_any);
      // Aggregate mode (no flags out) must decide the same existence.
      EXPECT_EQ(matcher.AnyBelow(ctx, &scratch, tau), want_any);
    }
  }
}

TEST(IsaDispatch, ScalarAlwaysAvailableAndForceClampsUnavailable) {
  EXPECT_TRUE(distance::IsaTierAvailable(distance::IsaTier::kScalar));
  TierGuard guard;
  distance::ForceIsaTier(distance::IsaTier::kScalar);
  EXPECT_EQ(distance::CurrentIsaTier(), distance::IsaTier::kScalar);
  // Forcing any tier always lands on a runnable one.
  for (distance::IsaTier t :
       {distance::IsaTier::kAvx2, distance::IsaTier::kAvx512}) {
    distance::ForceIsaTier(t);
    EXPECT_TRUE(distance::IsaTierAvailable(distance::CurrentIsaTier()));
  }
}

}  // namespace
}  // namespace rpm
