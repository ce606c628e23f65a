// Tests for the batched matching engine (distance/matcher.h): context
// moments against the direct statistics, kernel equivalence with the
// legacy per-call scan, the explicit unfound sentinel, and the persistent
// thread pool underneath ts::ParallelFor.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "distance/euclidean.h"
#include "distance/matcher.h"
#include "ts/parallel.h"
#include "ts/rng.h"
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

// Brute-force reference: z-normalize every window explicitly and take the
// plain left-to-right squared sum.
distance::BestMatch BruteForceBestMatch(const ts::Series& pattern,
                                        const ts::Series& hay) {
  distance::BestMatch best;
  const std::size_t n = pattern.size();
  if (n == 0 || hay.size() < n) return best;
  double best_sq = std::numeric_limits<double>::infinity();
  for (std::size_t pos = 0; pos + n <= hay.size(); ++pos) {
    ts::Series window(hay.begin() + static_cast<std::ptrdiff_t>(pos),
                      hay.begin() + static_cast<std::ptrdiff_t>(pos + n));
    ts::ZNormalizeInPlace(window);
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = window[i] - pattern[i];
      acc += d * d;
    }
    if (acc < best_sq) {
      best_sq = acc;
      best.position = pos;
    }
  }
  best.distance = std::sqrt(best_sq / static_cast<double>(n));
  return best;
}

TEST(SeriesContext, WindowMomentsMatchDirectStats) {
  const ts::Series s = RandomWalk(128, 7);
  const distance::SeriesContext ctx(s);
  for (std::size_t len : {1u, 2u, 5u, 32u, 128u}) {
    for (std::size_t pos = 0; pos + len <= s.size(); pos += 13) {
      double mu = 0.0;
      double inv_sigma = 0.0;
      ctx.WindowMoments(pos, len, &mu, &inv_sigma);
      const ts::SeriesView w(s.data() + pos, len);
      EXPECT_NEAR(mu, ts::Mean(w), 1e-9);
      const double sigma = ts::StdDev(w);
      if (sigma >= ts::kFlatThreshold) {
        EXPECT_NEAR(inv_sigma, 1.0 / sigma, 1e-6 * (1.0 / sigma));
      } else {
        EXPECT_EQ(inv_sigma, 1.0);
      }
    }
  }
}

TEST(SeriesContext, FlatWindowUsesUnitSigma) {
  const ts::Series flat(64, 3.25);
  const distance::SeriesContext ctx(flat);
  double mu = 0.0;
  double inv_sigma = 0.0;
  ctx.WindowMoments(10, 16, &mu, &inv_sigma);
  EXPECT_NEAR(mu, 3.25, 1e-12);
  EXPECT_EQ(inv_sigma, 1.0);
}

TEST(BatchedBestMatch, ExactlyEqualsFindBestMatch) {
  // FindBestMatch delegates to the batched kernel, so per-call and batched
  // paths must agree bit-for-bit.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const ts::Series hay = RandomWalk(200, seed);
    const ts::Series pattern = ZNormalizedPattern(8 + 7 * seed, 100 + seed);
    const distance::PatternContext pctx(pattern);
    const distance::SeriesContext sctx(hay);
    const distance::BestMatch batched = distance::BatchedBestMatch(pctx, sctx);
    const distance::BestMatch per_call = distance::FindBestMatch(pattern, hay);
    EXPECT_EQ(batched.position, per_call.position);
    EXPECT_EQ(batched.distance, per_call.distance);
  }
}

TEST(BatchedBestMatch, AgreesWithLegacyNaiveKernel) {
  // The pre-batching rolling-sum kernel computes the same quantity with a
  // different summation order, so distances agree to rounding and the
  // winning position is identical.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const ts::Series hay = RandomWalk(256, 10 * seed);
    const ts::Series pattern = ZNormalizedPattern(16 + 5 * seed, 999 + seed);
    const distance::PatternContext pctx(pattern);
    const distance::SeriesContext sctx(hay);
    const distance::BestMatch batched = distance::BatchedBestMatch(pctx, sctx);
    const distance::BestMatch naive =
        distance::FindBestMatchNaive(pattern, hay);
    EXPECT_EQ(batched.position, naive.position) << "seed " << seed;
    EXPECT_NEAR(batched.distance, naive.distance,
                1e-7 * (1.0 + naive.distance));
  }
}

TEST(BatchedBestMatch, AgreesWithBruteForceReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const ts::Series hay = RandomWalk(150, 20 + seed);
    const ts::Series pattern = ZNormalizedPattern(12, 40 + seed);
    const distance::PatternContext pctx(pattern);
    const distance::SeriesContext sctx(hay);
    const distance::BestMatch batched = distance::BatchedBestMatch(pctx, sctx);
    const distance::BestMatch brute = BruteForceBestMatch(pattern, hay);
    EXPECT_EQ(batched.position, brute.position) << "seed " << seed;
    EXPECT_NEAR(batched.distance, brute.distance,
                1e-7 * (1.0 + brute.distance));
  }
}

TEST(BatchedBestMatch, FlatSeriesMatchesLegacy) {
  // sigma ~ 0 windows exercise the mean-center-only rule.
  const ts::Series flat(100, 2.0);
  const ts::Series pattern = ZNormalizedPattern(16, 3);
  const distance::PatternContext pctx(pattern);
  const distance::SeriesContext sctx(flat);
  const distance::BestMatch batched = distance::BatchedBestMatch(pctx, sctx);
  const distance::BestMatch naive = distance::FindBestMatchNaive(pattern, flat);
  EXPECT_EQ(batched.position, naive.position);
  EXPECT_NEAR(batched.distance, naive.distance, 1e-7 * (1.0 + naive.distance));
  EXPECT_TRUE(batched.found());
}

TEST(BatchedBestMatch, SinglePointPattern) {
  const ts::Series hay = RandomWalk(50, 11);
  const ts::Series pattern{0.0};  // n == 1: first == last point
  const distance::PatternContext pctx(pattern);
  const distance::SeriesContext sctx(hay);
  const distance::BestMatch batched = distance::BatchedBestMatch(pctx, sctx);
  const distance::BestMatch naive = distance::FindBestMatchNaive(pattern, hay);
  EXPECT_EQ(batched.position, naive.position);
  EXPECT_NEAR(batched.distance, naive.distance, 1e-9);
}

TEST(BatchedBestMatch, PatternLongerThanSeriesIsExplicitSentinel) {
  const ts::Series hay = RandomWalk(10, 12);
  const ts::Series pattern = ZNormalizedPattern(32, 13);
  const distance::PatternContext pctx(pattern);
  const distance::SeriesContext sctx(hay);
  const distance::BestMatch m = distance::BatchedBestMatch(pctx, sctx);
  EXPECT_FALSE(m.found());
  EXPECT_TRUE(std::isinf(m.distance));
  // The legacy sqrt(inf * inv_n) artifact must not reappear: the distance
  // is a clean +inf, not a NaN.
  EXPECT_FALSE(std::isnan(m.distance));
}

TEST(BatchedBestMatch, EmptyPatternAndEmptyHaystack) {
  const ts::Series hay = RandomWalk(10, 14);
  const distance::PatternContext empty_pattern{};
  const distance::SeriesContext hay_ctx(hay);
  EXPECT_FALSE(distance::BatchedBestMatch(empty_pattern, hay_ctx).found());

  const ts::Series pattern = ZNormalizedPattern(8, 15);
  const distance::PatternContext pctx(pattern);
  const distance::SeriesContext empty_ctx{};
  EXPECT_FALSE(distance::BatchedBestMatch(pctx, empty_ctx).found());
}

TEST(BatchedMatchBelow, DecidesIdenticallyToUnseededScan) {
  // The existence test stops at the first sub-cutoff window; it must
  // nevertheless agree with `exact distance < cutoff` for cutoffs below,
  // at, and above the true best over many random instances.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const ts::Series hay = RandomWalk(180, 50 + seed);
    const ts::Series pattern = ZNormalizedPattern(6 + 3 * seed, 300 + seed);
    const distance::PatternContext pctx(pattern);
    const distance::SeriesContext sctx(hay);
    const double exact = distance::BatchedBestMatch(pctx, sctx).distance;
    for (double cutoff : {exact * 0.5, exact * 0.999, exact * 1.001,
                          exact * 2.0, 0.0, 1e6}) {
      EXPECT_EQ(distance::BatchedMatchBelow(pctx, sctx, cutoff),
                exact < cutoff)
          << "seed " << seed << " cutoff " << cutoff;
    }
    // At the exact boundary the decision must match the cutoff-seeded
    // best-match (same seed construction), whatever side of the ulp the
    // squared-space round trip lands on.
    EXPECT_EQ(distance::BatchedMatchBelow(pctx, sctx, exact),
              distance::BatchedBestMatch(pctx, sctx, exact).found())
        << "seed " << seed;
  }
}

TEST(BatchedMatchBelow, SentinelCasesNeverReportAMatch) {
  const ts::Series hay = RandomWalk(10, 60);
  const distance::SeriesContext hay_ctx(hay);
  const distance::PatternContext too_long(ZNormalizedPattern(32, 61));
  EXPECT_FALSE(distance::BatchedMatchBelow(too_long, hay_ctx, 1e9));
  const distance::PatternContext empty{};
  EXPECT_FALSE(distance::BatchedMatchBelow(empty, hay_ctx, 1e9));
  const double inf = std::numeric_limits<double>::infinity();
  const distance::PatternContext pctx(ZNormalizedPattern(4, 62));
  EXPECT_TRUE(distance::BatchedMatchBelow(pctx, hay_ctx, inf));
}

TEST(BatchMatcher, MatchAllHandlesMixedLengthsMidBatch) {
  // A too-long pattern in the middle of the batch must yield the sentinel
  // at its slot without disturbing its neighbours.
  const ts::Series hay = RandomWalk(64, 16);
  std::vector<ts::Series> patterns = {ZNormalizedPattern(8, 17),
                                      ZNormalizedPattern(128, 18),
                                      ZNormalizedPattern(16, 19)};
  const distance::BatchMatcher matcher(patterns);
  const distance::SeriesContext ctx(hay);
  const std::vector<distance::BestMatch> all = matcher.MatchAll(ctx);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_TRUE(all[0].found());
  EXPECT_FALSE(all[1].found());
  EXPECT_TRUE(all[2].found());
  EXPECT_EQ(all[0].position,
            distance::FindBestMatch(patterns[0], hay).position);
  EXPECT_EQ(all[2].position,
            distance::FindBestMatch(patterns[2], hay).position);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // The pool admits one job at a time; nested regions must execute inline
  // on the worker instead of deadlocking on a second submission.
  std::atomic<int> calls{0};
  ts::ParallelFor(8, 4, [&](std::size_t) {
    ts::ParallelFor(8, 4, [&](std::size_t) { calls.fetch_add(1); });
  });
  EXPECT_EQ(calls.load(), 64);
}

TEST(ThreadPool, LargeChunkedRangeCoversEveryIndexOnce) {
  constexpr std::size_t kN = 10007;  // prime: exercises ragged chunking
  std::vector<std::atomic<int>> hits(kN);
  ts::ParallelFor(kN, 8, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyJobs) {
  // Back-to-back jobs on the persistent pool: no handle leaks, no stuck
  // workers, results always complete.
  for (int job = 0; job < 50; ++job) {
    std::atomic<int> sum{0};
    ts::ParallelFor(16, 3, [&](std::size_t i) {
      sum.fetch_add(static_cast<int>(i));
    });
    ASSERT_EQ(sum.load(), 120);
  }
}

// Spins until `flag` is set or `deadline` passes, so items of one region
// overlap across threads without depending on scheduling luck.
void WaitUntil(const std::atomic<bool>& flag,
               std::chrono::steady_clock::time_point deadline) {
  while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

// A 4-thread region covers every index exactly once and runs at least one
// of them on a pool worker: the caller's items wait for a worker's.
void ExpectRegionUsesWorkers() {
  const std::thread::id caller = std::this_thread::get_id();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<bool> worker_ran{false};
  std::vector<std::atomic<int>> hits(8);
  ts::ParallelFor(hits.size(), 4, [&](std::size_t i) {
    hits[i].fetch_add(1);
    if (std::this_thread::get_id() != caller) {
      worker_ran.store(true);
    } else {
      WaitUntil(worker_ran, deadline);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_TRUE(worker_ran.load());
}

TEST(ThreadPool, ExceptionReachesCallerAndPoolStaysUsable) {
  // A throw inside a region reaches the submitting thread instead of
  // terminating the process, whichever thread it came from, and leaves
  // the pool and this thread's nesting state ready for the next region
  // (a thread left marked as inside a job would run it inline).
  EXPECT_THROW(ts::ParallelFor(64, 4,
                               [](std::size_t i) {
                                 if (i == 17) {
                                   throw std::runtime_error("item 17");
                                 }
                               }),
               std::runtime_error);
  ExpectRegionUsesWorkers();

  const std::thread::id caller = std::this_thread::get_id();
  for (const bool throw_on_caller : {false, true}) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::atomic<bool> thrown{false};
    EXPECT_THROW(
        ts::ParallelFor(64, 4,
                        [&](std::size_t) {
                          if ((std::this_thread::get_id() == caller) ==
                              throw_on_caller) {
                            thrown.store(true);
                            throw std::runtime_error("one side throws");
                          }
                          WaitUntil(thrown, deadline);
                        }),
        std::runtime_error)
        << (throw_on_caller ? "caller" : "worker") << " threw";
    ExpectRegionUsesWorkers();
  }

  // The inline path rethrows directly and restores the state as well.
  EXPECT_THROW(ts::ParallelFor(8, 1,
                               [](std::size_t) {
                                 throw std::runtime_error("inline");
                               }),
               std::runtime_error);
  ExpectRegionUsesWorkers();
}

}  // namespace
}  // namespace rpm
