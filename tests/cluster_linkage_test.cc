// Golden equivalence tests for the Lance-Williams complete-linkage
// agglomeration against the naive O(n^3) reference, plus the
// matrix-slicing IterativeSplit path and its thread-pool interaction.
// These carry the `training` ctest label and run under TSan via
// scripts/tsan_check.sh.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "cluster/hierarchical.h"
#include "distance/euclidean.h"
#include "ts/parallel.h"
#include "ts/rng.h"

namespace rpm::cluster {
namespace {

std::vector<ts::Series> RandomItems(std::size_t n, std::size_t dim,
                                    std::uint64_t seed,
                                    double cluster_spread = 0.0) {
  ts::Rng rng(seed);
  std::vector<ts::Series> items;
  items.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ts::Series s(dim);
    // Optionally place points near one of four centers so dendrograms
    // have meaningful structure (pure noise merges are tie-heavy too,
    // which is exactly what the tie-break equivalence needs).
    const double center =
        cluster_spread * static_cast<double>(i % 4);
    for (auto& v : s) v = center + rng.Gaussian(0.0, 1.0);
    items.push_back(std::move(s));
  }
  return items;
}

TEST(LanceWilliams, MatchesNaiveCutOnRandomInputs) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::size_t n = 3 + static_cast<std::size_t>(seed * 7 % 40);
    const auto items = RandomItems(n, 4, seed, seed % 3 == 0 ? 5.0 : 0.0);
    for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                          n / 2, n}) {
      if (k == 0) continue;
      EXPECT_EQ(CompleteLinkageCut(items, k),
                CompleteLinkageCutNaive(items, k))
          << "seed=" << seed << " n=" << n << " k=" << k;
    }
  }
}

TEST(LanceWilliams, MatchesNaiveWithDuplicatePoints) {
  // Exact duplicates force zero-distance ties; the incremental path must
  // break them in the same scan order as the reference.
  std::vector<ts::Series> items = {{0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0},
                                   {5.0, 5.0}, {5.0, 5.0}, {9.0, 0.0}};
  for (std::size_t k = 1; k <= items.size(); ++k) {
    EXPECT_EQ(CompleteLinkageCut(items, k),
              CompleteLinkageCutNaive(items, k))
        << "k=" << k;
  }
}

TEST(LanceWilliams, MergeTreeIsDeterministicAndOrdered) {
  const auto items = RandomItems(24, 3, 99);
  std::vector<double> dist = PairwiseDistanceMatrix(items);
  std::vector<double> dist2 = dist;
  const AgglomerationResult a =
      CompleteLinkageAgglomerate(dist, items.size(), 1);
  const AgglomerationResult b =
      CompleteLinkageAgglomerate(dist2, items.size(), 1);
  EXPECT_EQ(a.merges, b.merges);
  ASSERT_EQ(a.merges.size(), items.size() - 1);
  for (const Merge& m : a.merges) {
    EXPECT_LT(m.a, m.b);  // later slot always folds into the earlier one
    EXPECT_GE(m.height, 0.0);
  }
  // A full agglomeration ends in one cluster.
  for (int id : a.assignment) EXPECT_EQ(id, 0);
}

TEST(LanceWilliams, MergeHeightsAreMonotoneForCompleteLinkage) {
  // Complete linkage cannot produce dendrogram inversions.
  const auto items = RandomItems(30, 5, 7);
  std::vector<double> dist = PairwiseDistanceMatrix(items);
  const AgglomerationResult r =
      CompleteLinkageAgglomerate(dist, items.size(), 1);
  for (std::size_t i = 1; i < r.merges.size(); ++i) {
    EXPECT_GE(r.merges[i].height, r.merges[i - 1].height);
  }
}

TEST(MaxIntraDistance, MatchesPairwiseScan) {
  const auto items = RandomItems(12, 4, 5);
  const std::vector<double> dist = PairwiseDistanceMatrix(items);
  const std::vector<std::size_t> group = {0, 3, 5, 11};
  double expected = 0.0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    for (std::size_t j = i + 1; j < group.size(); ++j) {
      expected = std::max(
          expected, distance::Euclidean(items[group[i]], items[group[j]]));
    }
  }
  EXPECT_DOUBLE_EQ(MaxIntraDistance(dist, items.size(), group), expected);
  EXPECT_DOUBLE_EQ(MaxIntraDistance(dist, items.size(), {2}), 0.0);
}

TEST(IterativeSplitMatrix, GroupsMatchMatrixFreeApi) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    const auto items = RandomItems(40, 4, seed, 6.0);
    const SplitResult with = IterativeSplitWithMatrix(items);
    EXPECT_EQ(with.groups, IterativeSplit(items));
    ASSERT_EQ(with.matrix.size(), items.size() * items.size());
    // The returned matrix is the plain pairwise matrix.
    EXPECT_EQ(with.matrix, PairwiseDistanceMatrix(items));
  }
}

TEST(IterativeSplitMatrix, ConcurrentSplitsOnPoolAreIndependent) {
  // Many IterativeSplit calls in flight on the shared pool (the shape of
  // per-motif refinement inside candidate mining) must not interfere.
  const auto items = RandomItems(30, 4, 33, 5.0);
  const auto expected = IterativeSplit(items);
  std::vector<std::vector<std::vector<std::size_t>>> out(16);
  ts::ParallelFor(out.size(), 8, [&](std::size_t i) {
    out[i] = IterativeSplit(items);
  });
  for (const auto& got : out) EXPECT_EQ(got, expected);
}

TEST(Medoid, MatrixVariantMatchesDirect) {
  const auto items = RandomItems(15, 3, 44);
  const std::vector<double> dist = PairwiseDistanceMatrix(items);
  EXPECT_EQ(MedoidIndexFromMatrix(dist, items.size()), MedoidIndex(items));
}

}  // namespace
}  // namespace rpm::cluster
