// The candidate search shared by the four shapelet baselines (Fast
// Shapelets, Shapelet Transform, the Ye & Keogh tree and Logical
// Shapelets). Each samples subsequence candidates from a set of training
// series, measures every candidate's closest-match distance to each of
// those series, and scores a candidate by the information gain of a
// distance threshold. This header holds the one copy of those steps;
// each method keeps only its own: FS's SAX random projection, ST's
// greedy top-K selection and SVM, the tree's exhaustive scoring and
// Logical's AND/OR extension.

#ifndef RPM_BASELINES_SHAPELET_SEARCH_H_
#define RPM_BASELINES_SHAPELET_SEARCH_H_

#include <cstddef>
#include <span>
#include <vector>

#include "distance/matcher.h"
#include "ts/series.h"

namespace rpm::baselines {

/// A candidate: `length` points of training series `series` from `pos`.
struct Subsequence {
  std::size_t series = 0;
  std::size_t pos = 0;
  std::size_t length = 0;
};

/// One threshold on a candidate's distances to a node's series: those at
/// or below `threshold` go left.
struct Split {
  double gain = 0.0;
  /// Midway between the nearest distances on either side.
  double threshold = 0.0;
  /// Between those two distances: the tree's tie-breaker, the original
  /// paper's "maximum separation gap".
  double gap = 0.0;
};

/// Distances from candidates (rows) to a node's series (columns).
struct DistanceMatrix {
  std::size_t cols = 0;
  std::vector<double> values;

  /// Candidate r's distances, one per node series.
  std::span<const double> row(std::size_t r) const {
    return {values.data() + r * cols, cols};
  }
};

/// The classes of a node's series (`idx` into the training set), dense
/// in ascending label order, the order every entropy here sums in.
class NodeLabels {
 public:
  NodeLabels(const ts::Dataset& train, std::span<const std::size_t> idx);

  std::size_t num_classes() const { return labels_.size(); }
  std::size_t count(std::size_t c) const { return counts_[c]; }
  /// Class of the k-th node series.
  std::size_t class_of(std::size_t k) const { return class_of_[k]; }
  /// Class carrying `label`. Precondition: some node series has it.
  std::size_t class_index(int label) const;
  /// The most frequent label; the smallest of them on ties.
  int Majority() const;

  /// Information gain of splitting the node into one side that holds
  /// `side[c]` of its class-c series (`n_side` series in all) and
  /// another that holds the rest.
  double Gain(std::span<const std::size_t> side, std::size_t n_side) const;

  /// Every split point of one candidate's distances to the node series
  /// (`distances[k]` to the k-th), in ascending distance order, one per
  /// pair of adjacent distinct distances. The caller picks among them,
  /// so each method keeps its own tie rule.
  std::vector<Split> Splits(std::span<const double> distances) const;

 private:
  std::vector<int> labels_;
  std::vector<std::size_t> counts_;
  std::vector<std::size_t> class_of_;
  double entropy_ = 0.0;
};

/// One Train call's search state: the training set and one SeriesContext
/// per training series, built once and shared by every distance matrix.
class ShapeletSearch {
 public:
  explicit ShapeletSearch(const ts::Dataset& train);

  /// Indices of every training series, 0..N-1.
  const std::vector<std::size_t>& all() const { return all_; }

  /// Candidates from the series `idx`: for each fraction f, length
  /// round(f x the shortest of them) (skipped below 4), and start
  /// positions 0, s, 2s, ... in each series at least that long, with
  /// stride s = max(1, (series length - length) / starts_per_series).
  /// Ordered by fraction, then series, then position.
  std::vector<Subsequence> Sample(std::span<const std::size_t> idx,
                                  const std::vector<double>& fractions,
                                  std::size_t starts_per_series) const;

  /// The candidate's points, z-normalized.
  ts::Series Shapelet(const Subsequence& candidate) const;

  /// Closest-match distance of every candidate to every series `idx`:
  /// one batched MatchAll per series, series spread over the thread
  /// pool, time charged to PhaseProfile::kShapelets.
  DistanceMatrix Distances(const std::vector<Subsequence>& candidates,
                           std::span<const std::size_t> idx) const;

 private:
  const ts::Dataset& train_;
  std::vector<std::size_t> all_;
  std::vector<distance::SeriesContext> contexts_;
};

/// Internal nodes of a tree whose nodes have `leaf`, `left` and `right`,
/// counting those `counted` accepts (all of them by default).
template <typename Node, typename Counted>
std::size_t CountInternalNodes(const Node* node, Counted counted) {
  if (node == nullptr || node->leaf) return 0;
  return (counted(*node) ? 1 : 0) +
         CountInternalNodes(node->left.get(), counted) +
         CountInternalNodes(node->right.get(), counted);
}

template <typename Node>
std::size_t CountInternalNodes(const Node* node) {
  return CountInternalNodes(node, [](const Node&) { return true; });
}

}  // namespace rpm::baselines

#endif  // RPM_BASELINES_SHAPELET_SEARCH_H_
