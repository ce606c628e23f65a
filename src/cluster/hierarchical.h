// Complete-linkage agglomerative clustering plus the paper's iterative
// two-way splitting refinement (Section 3.2.2, Algorithm 1 lines 10-17):
// a motif's occurrence set is repeatedly split in two; a split is accepted
// only when both halves hold at least `min_fraction` of the parent, and
// splitting recurses until no group can be split further.
//
// The agglomeration runs on the Lance-Williams complete-linkage
// recurrence d(a∪b, k) = max(d(a,k), d(b,k)) over one distance matrix
// computed up front, with cached row minima so each merge costs O(n)
// amortized instead of the naive O(n^2) linkage re-derivation.
// IterativeSplit computes the pairwise matrix once for the whole
// occurrence set and *slices* it as the recursion descends, so no
// Euclidean distance is ever computed twice; the 30 %-imbalance rule and
// the homogeneity (diameter) check read the same matrix. Because
// complete linkage only takes maxima of the original entries — never new
// floating-point arithmetic — merge trees and assignments are
// bit-identical to the naive path (asserted by cluster_linkage_test).

#ifndef RPM_CLUSTER_HIERARCHICAL_H_
#define RPM_CLUSTER_HIERARCHICAL_H_

#include <cstddef>
#include <vector>

#include "ts/series.h"

namespace rpm::cluster {

/// Pairwise Euclidean distance matrix of equal-length items, row-major,
/// d(i,j) at [i * n + j].
std::vector<double> PairwiseDistanceMatrix(
    const std::vector<ts::Series>& items);

/// One agglomeration step: the clusters occupying dendrogram slots
/// `a < b` were merged (b into a) at complete-linkage height `height`.
/// Slot ids are the indices of the items that founded each cluster.
struct Merge {
  std::size_t a = 0;
  std::size_t b = 0;
  double height = 0.0;

  bool operator==(const Merge&) const = default;
};

/// Merge sequence plus the final assignment (cluster id in [0, k) per
/// item; ids are dense, ordered by the surviving slots' founding index).
struct AgglomerationResult {
  std::vector<Merge> merges;
  std::vector<int> assignment;
};

/// Complete-linkage agglomeration down to `k` clusters over a
/// caller-provided `n x n` distance matrix (row-major, symmetric; the
/// diagonal is ignored). The matrix is consumed as Lance-Williams
/// scratch space. Ties break exactly like the naive pairwise scan:
/// smallest first slot, then smallest second slot.
AgglomerationResult CompleteLinkageAgglomerate(std::vector<double>& dist,
                                               std::size_t n, std::size_t k);

/// Cuts a complete-linkage dendrogram over `items` into `k` clusters.
/// Returns a cluster id in [0, k) per item (ids are dense but arbitrary).
/// Items must share one length; k is clamped to [1, n].
std::vector<int> CompleteLinkageCut(const std::vector<ts::Series>& items,
                                    std::size_t k);

/// Reference implementation: the textbook O(n^3) re-agglomeration that
/// recomputes every cluster-pair linkage from member distances on each
/// step. Kept as the golden oracle for equivalence tests and the
/// clustering micro-benchmarks; production code paths use
/// CompleteLinkageCut / CompleteLinkageAgglomerate.
std::vector<int> CompleteLinkageCutNaive(const std::vector<ts::Series>& items,
                                         std::size_t k);

/// Max pairwise distance (cluster diameter) within `group`, read from a
/// precomputed `n x n` matrix instead of re-deriving Euclidean distances.
double MaxIntraDistance(const std::vector<double>& dist, std::size_t n,
                        const std::vector<std::size_t>& group);

/// Controls the iterative splitting refinement.
struct SplitOptions {
  /// A 2-way split is rejected when either side holds fewer than this
  /// fraction of the parent group (the paper's 30 % rule).
  double min_fraction = 0.3;
  /// Groups smaller than this are never split.
  std::size_t min_size_to_split = 4;
  /// A split is accepted only if the larger child diameter (max pairwise
  /// distance) drops below this fraction of the parent's diameter —
  /// otherwise the group is considered homogeneous and kept whole. This
  /// realizes the paper's intent of splitting only motifs that "contain
  /// more than one group of similar patterns".
  double max_child_diameter_fraction = 0.7;
};

/// Iteratively splits `items` per the paper's rule. Returns groups as
/// index lists into `items`; the union of groups is always the full index
/// set (no item is dropped here — frequency filtering happens later).
/// The pairwise matrix is computed once and sliced through the recursion.
std::vector<std::vector<std::size_t>> IterativeSplit(
    const std::vector<ts::Series>& items, const SplitOptions& options = {});

/// IterativeSplit plus the pairwise matrix it computed, so downstream
/// consumers (within-cluster distance pooling, medoid selection) reuse
/// the same distances instead of re-deriving them.
struct SplitResult {
  std::vector<std::vector<std::size_t>> groups;
  /// Row-major `items.size() x items.size()` Euclidean matrix.
  std::vector<double> matrix;
};
SplitResult IterativeSplitWithMatrix(const std::vector<ts::Series>& items,
                                     const SplitOptions& options = {});

/// Pointwise mean of equal-length members (empty input -> empty series).
ts::Series Centroid(const std::vector<ts::Series>& members);

/// Index of the member minimizing the sum of distances to the others.
/// Returns 0 for a single member; undefined (0) for empty input.
std::size_t MedoidIndex(const std::vector<ts::Series>& members);

/// MedoidIndex over a precomputed `n x n` distance matrix.
std::size_t MedoidIndexFromMatrix(const std::vector<double>& dist,
                                  std::size_t n);

}  // namespace rpm::cluster

#endif  // RPM_CLUSTER_HIERARCHICAL_H_
