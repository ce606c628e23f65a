// The original shapelet decision tree (Ye & Keogh 2009), the foundational
// method the paper's related work builds on (Section 2.2: "the original
// shapelet technique ... constructs a decision tree-based classifier
// which uses the shapelet similarity as the splitting criterion").
//
// Unlike Fast Shapelets (random-projection filtering), this classifier
// scores every candidate *directly* by information gain. The exhaustive
// O(n^2 m^3) search is intractable by design, so the candidates are a
// stride-bounded enumeration, and neither of the original paper's
// accelerations (early abandoning against the best-so-far gain, entropy
// pruning) is implemented: each node computes every candidate's exact
// closest-match distance to every node series in one batched distance
// matrix (baselines/shapelet_search.h).

#ifndef RPM_BASELINES_SHAPELET_TREE_H_
#define RPM_BASELINES_SHAPELET_TREE_H_

#include <memory>
#include <vector>

#include "baselines/classifier.h"

namespace rpm::baselines {

struct ShapeletTreeOptions {
  /// Candidate lengths as fractions of the shortest series.
  std::vector<double> length_fractions = {0.15, 0.25, 0.35, 0.5};
  /// Start positions sampled per series per length (stride bound).
  std::size_t starts_per_series = 10;
  std::size_t max_depth = 8;
  std::size_t min_node_size = 2;
};

class ShapeletTree : public Classifier {
 public:
  explicit ShapeletTree(ShapeletTreeOptions options = {})
      : options_(options) {}

  void Train(const ts::Dataset& train) override;
  int Classify(ts::SeriesView series) const override;
  std::string Name() const override { return "YK-Tree"; }

  std::size_t num_shapelet_nodes() const;

 private:
  struct Node {
    bool leaf = true;
    int label = 0;
    ts::Series shapelet;
    double threshold = 0.0;
    std::unique_ptr<Node> left;
    std::unique_ptr<Node> right;
  };

  ShapeletTreeOptions options_;
  std::unique_ptr<Node> root_;
};

}  // namespace rpm::baselines

#endif  // RPM_BASELINES_SHAPELET_TREE_H_
