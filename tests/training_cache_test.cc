// Equivalence and behavior tests for the cross-combo discretization
// cache: every cached path must reproduce sax::DiscretizeSlidingWindow
// bit for bit, the window and PAA layers must be shared at the right
// granularity, the LRU byte bound must hold, and candidate mining with a
// cache must return exactly what it returns without one. Carries the
// `training` ctest label so the pool/cache interplay runs under TSan.

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <vector>

#include "core/candidates.h"
#include "core/options.h"
#include "core/training_cache.h"
#include "sax/sax.h"
#include "ts/generators.h"
#include "ts/parallel.h"
#include "ts/rng.h"

namespace rpm::core {
namespace {

ts::Series MakeSeries(std::size_t n, std::uint64_t seed) {
  ts::Rng rng(seed);
  ts::Series s(n);
  double v = 0.0;
  for (auto& x : s) {
    v += rng.Gaussian(0.0, 1.0);
    x = v;
  }
  return s;
}

sax::SaxOptions Sax(std::size_t window, std::size_t paa, int alphabet) {
  sax::SaxOptions opt;
  opt.window = window;
  opt.paa_size = paa;
  opt.alphabet = alphabet;
  return opt;
}

TEST(StagedDiscretization, ComposesToStreamingPath) {
  const ts::Series s = MakeSeries(300, 3);
  for (bool znorm : {true, false}) {
    for (bool numerosity : {true, false}) {
      for (std::size_t w : {std::size_t{8}, std::size_t{25}}) {
        for (std::size_t paa : {std::size_t{3}, std::size_t{7}}) {
          for (int alphabet : {3, 6}) {
            sax::SaxOptions opt;
            opt.window = w;
            opt.paa_size = paa;
            opt.alphabet = alphabet;
            opt.znormalize = znorm;
            opt.numerosity_reduction = numerosity;
            const auto windows = sax::SlidingWindows(s, w, znorm);
            const auto rows = sax::PaaRows(windows, paa);
            const auto staged =
                sax::RecordsFromPaa(rows, alphabet, numerosity);
            EXPECT_EQ(staged, sax::DiscretizeSlidingWindow(s, opt))
                << "w=" << w << " paa=" << paa << " a=" << alphabet
                << " z=" << znorm << " nr=" << numerosity;
          }
        }
      }
    }
  }
}

TEST(TrainingCache, MatchesDirectDiscretization) {
  const ts::Series s = MakeSeries(500, 11);
  TrainingCache cache;
  for (std::size_t w : {std::size_t{10}, std::size_t{40}}) {
    for (std::size_t paa : {std::size_t{4}, std::size_t{8}}) {
      for (int alphabet : {3, 5, 9}) {
        const sax::SaxOptions opt = Sax(w, paa, alphabet);
        EXPECT_EQ(cache.Discretize(s, opt),
                  sax::DiscretizeSlidingWindow(s, opt))
            << "w=" << w << " paa=" << paa << " a=" << alphabet;
      }
    }
  }
}

TEST(TrainingCache, SharesLayersAtTheRightGranularity) {
  const ts::Series s = MakeSeries(200, 21);
  TrainingCache cache;
  sax::SaxOptions opt = Sax(20, 5, 4);

  // Cold call misses both layers and keeps the window and PAA matrices.
  cache.Discretize(s, opt);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);

  // Same triple again: the PAA rows hit, nothing is recomputed.
  cache.Discretize(s, opt);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);

  // New alphabet at the same (window, paa): the PAA rows are reused.
  opt.alphabet = 7;
  EXPECT_EQ(cache.Discretize(s, opt), sax::DiscretizeSlidingWindow(s, opt));
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);

  // New paa at the same window: the window matrix is reused.
  opt.paa_size = 9;
  EXPECT_EQ(cache.Discretize(s, opt), sax::DiscretizeSlidingWindow(s, opt));
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().entries, 3u);  // only new PAA rows

  // A different series must not collide with any existing entry.
  const ts::Series other = MakeSeries(200, 22);
  EXPECT_EQ(cache.Discretize(other, opt),
            sax::DiscretizeSlidingWindow(other, opt));
  EXPECT_EQ(cache.stats().hits, 3u);
  EXPECT_EQ(cache.stats().entries, 5u);
}

TEST(TrainingCache, EvictsLruButStaysCorrect) {
  const ts::Series s = MakeSeries(600, 31);
  const sax::SaxOptions p4 = Sax(50, 4, 3);
  const sax::SaxOptions p6 = Sax(50, 6, 3);
  const sax::SaxOptions p8 = Sax(50, 8, 3);
  // A budget one byte short of the window matrix plus three PAA matrices.
  std::size_t all_bytes = 0;
  {
    TrainingCache probe;
    for (const auto& opt : {p4, p6, p8}) probe.Discretize(s, opt);
    all_bytes = probe.stats().bytes;
  }
  TrainingCache cache(all_bytes - 1);
  cache.Discretize(s, p4);
  cache.Discretize(s, p6);
  sax::SaxOptions p4_again = p4;
  p4_again.alphabet = 5;
  EXPECT_EQ(cache.Discretize(s, p4_again),
            sax::DiscretizeSlidingWindow(s, p4_again));  // touches p4's rows
  EXPECT_EQ(cache.stats().evictions, 0u);
  // p8's rows push the least recently used entry, p6's rows, out.
  EXPECT_EQ(cache.Discretize(s, p8), sax::DiscretizeSlidingWindow(s, p8));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_LE(cache.stats().bytes, all_bytes - 1);
  const auto before = cache.stats();
  cache.Discretize(s, p4);  // still resident: one hit, no miss
  EXPECT_EQ(cache.stats().hits, before.hits + 1);
  EXPECT_EQ(cache.stats().misses, before.misses);
  EXPECT_EQ(cache.Discretize(s, p6), sax::DiscretizeSlidingWindow(s, p6));
  EXPECT_EQ(cache.stats().misses, before.misses + 1);  // p6 recomputed

  // Budget far below one window matrix: results stay exact and only the
  // most recent insertion chain stays resident.
  TrainingCache tiny(4096);
  sax::SaxOptions opt = Sax(50, 6, 3);
  for (std::size_t w : {std::size_t{20}, std::size_t{50}}) {
    for (int alphabet = 3; alphabet <= 8; ++alphabet) {
      opt.window = w;
      opt.alphabet = alphabet;
      EXPECT_EQ(tiny.Discretize(s, opt), sax::DiscretizeSlidingWindow(s, opt));
    }
  }
  EXPECT_GT(tiny.stats().evictions, 0u);
  EXPECT_LE(tiny.stats().entries, 2u);
}

TEST(TrainingCache, ZeroWindowAndShortSeries) {
  TrainingCache cache;
  sax::SaxOptions opt;
  opt.window = 100;
  const ts::Series tiny = MakeSeries(10, 5);
  EXPECT_TRUE(cache.Discretize(tiny, opt).empty());
  opt.window = 0;
  EXPECT_TRUE(cache.Discretize(tiny, opt).empty());
  // Zero PAA segments: the PAA entry must not alias the window matrix.
  const ts::Series s = MakeSeries(200, 6);
  for (int alphabet : {3, 4}) {
    opt = Sax(20, 0, alphabet);
    EXPECT_EQ(cache.Discretize(s, opt), sax::DiscretizeSlidingWindow(s, opt))
        << "a=" << alphabet;
  }
}

TEST(TrainingCache, ShardedConcurrentHammerStaysExact) {
  const ts::Series s = MakeSeries(500, 37);
  // 64 KiB is far less than these combos' matrices take, so eviction
  // races the concurrent hits and misses; every returned value must
  // still be exact (runs under TSan via the `training` label).
  TrainingCache cache(std::size_t{64} << 10);
  std::vector<sax::SaxOptions> combos;
  for (std::size_t w : {std::size_t{10}, std::size_t{24}, std::size_t{40}}) {
    for (int alphabet : {3, 5, 7}) combos.push_back(Sax(w, 6, alphabet));
  }
  const std::size_t reps = 6;
  std::vector<int> ok(combos.size() * reps, 0);
  ts::ParallelFor(ok.size(), 8, [&](std::size_t i) {
    const auto& opt = combos[i % combos.size()];
    ok[i] = cache.Discretize(s, opt) == sax::DiscretizeSlidingWindow(s, opt)
                ? 1
                : 0;
  });
  for (std::size_t i = 0; i < ok.size(); ++i) EXPECT_EQ(ok[i], 1);
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(TrainingCache, ConcurrentLookupsAreConsistent) {
  const ts::Series s = MakeSeries(300, 41);
  TrainingCache cache;
  std::vector<sax::SaxOptions> combos;
  for (std::size_t w : {std::size_t{10}, std::size_t{20}}) {
    for (std::size_t paa : {std::size_t{4}, std::size_t{6}}) {
      for (int alphabet : {3, 5}) combos.push_back(Sax(w, paa, alphabet));
    }
  }
  // Hammer the cache from the pool, repeating each combo several times so
  // hits, misses, and eviction-free races all occur.
  const std::size_t reps = 8;
  std::vector<std::vector<sax::SaxRecord>> out(combos.size() * reps);
  ts::ParallelFor(out.size(), 8, [&](std::size_t i) {
    out[i] = cache.Discretize(s, combos[i % combos.size()]);
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i],
              sax::DiscretizeSlidingWindow(s, combos[i % combos.size()]));
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
}

// Candidate mining is the cache's one caller: with a cache, cold and then
// warm, it must return exactly the candidates it returns without one.
TEST(TrainingCache, CandidatesUnchangedByCache) {
  const ts::Dataset train = ts::MakeCbf(8, 1, 64, 7).train;
  const RpmOptions options;
  TrainingCache cache;
  for (const sax::SaxOptions& sax :
       {Sax(12, 4, 4), Sax(12, 6, 4), Sax(12, 4, 6), Sax(24, 4, 4)}) {
    std::map<int, sax::SaxOptions> sax_by_class;
    for (int label : train.ClassLabels()) sax_by_class[label] = sax;
    const std::vector<PatternCandidate> want =
        FindAllCandidates(train, sax_by_class, options);
    ASSERT_FALSE(want.empty()) << "w=" << sax.window;
    for (const char* pass : {"cold", "warm"}) {
      const std::vector<PatternCandidate> got =
          FindAllCandidates(train, sax_by_class, options, &cache);
      ASSERT_EQ(got.size(), want.size()) << pass;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].class_label, want[i].class_label) << pass << i;
        EXPECT_EQ(got[i].values, want[i].values) << pass << i;
        EXPECT_EQ(got[i].frequency, want[i].frequency) << pass << i;
        EXPECT_EQ(got[i].instance_coverage, want[i].instance_coverage)
            << pass << i;
        EXPECT_EQ(got[i].rule_id, want[i].rule_id) << pass << i;
        EXPECT_EQ(got[i].within_cluster_distances,
                  want[i].within_cluster_distances)
            << pass << i;
      }
    }
  }
  EXPECT_GT(cache.stats().hits, 0u);
}

}  // namespace
}  // namespace rpm::core
