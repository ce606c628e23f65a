#include "baselines/shapelet_tree.h"

#include <stdexcept>

#include "baselines/shapelet_search.h"
#include "distance/euclidean.h"

namespace rpm::baselines {

void ShapeletTree::Train(const ts::Dataset& train) {
  if (train.empty()) {
    throw std::invalid_argument("ShapeletTree::Train: empty training set");
  }
  const ShapeletSearch search(train);

  auto build = [&](auto&& self, std::vector<std::size_t> idx,
                   std::size_t depth) -> std::unique_ptr<Node> {
    auto node = std::make_unique<Node>();
    const NodeLabels labels(train, idx);
    node->label = labels.Majority();
    if (labels.num_classes() == 1 || depth >= options_.max_depth ||
        idx.size() < 2 * options_.min_node_size) {
      return node;
    }

    // Direct information-gain scoring of every (stride-bounded)
    // candidate — the Ye & Keogh search shape: the higher gain wins,
    // then the wider gap.
    const std::vector<Subsequence> cands = search.Sample(
        idx, options_.length_fractions, options_.starts_per_series);
    const DistanceMatrix dist = search.Distances(cands, idx);
    Split best;
    std::size_t best_cand = 0;
    for (std::size_t c = 0; c < cands.size(); ++c) {
      for (const Split& split : labels.Splits(dist.row(c))) {
        if (split.gain > best.gain ||
            (split.gain == best.gain && split.gap > best.gap)) {
          best = split;
          best_cand = c;
        }
      }
    }
    if (best.gain <= 1e-9) return node;

    // Route on the winner's matrix row: the distances the threshold was
    // chosen from.
    std::vector<std::size_t> left_idx;
    std::vector<std::size_t> right_idx;
    for (std::size_t k = 0; k < idx.size(); ++k) {
      (dist.row(best_cand)[k] <= best.threshold ? left_idx : right_idx)
          .push_back(idx[k]);
    }
    if (left_idx.empty() || right_idx.empty()) return node;
    node->leaf = false;
    node->shapelet = search.Shapelet(cands[best_cand]);
    node->threshold = best.threshold;
    node->left = self(self, std::move(left_idx), depth + 1);
    node->right = self(self, std::move(right_idx), depth + 1);
    return node;
  };

  root_ = build(build, search.all(), 0);
}

int ShapeletTree::Classify(ts::SeriesView series) const {
  if (root_ == nullptr) {
    throw std::logic_error("ShapeletTree::Classify before Train");
  }
  const Node* node = root_.get();
  while (!node->leaf) {
    const double d =
        distance::FindBestMatch(node->shapelet, series).distance;
    node = (d <= node->threshold) ? node->left.get() : node->right.get();
  }
  return node->label;
}

std::size_t ShapeletTree::num_shapelet_nodes() const {
  return CountInternalNodes(root_.get());
}

}  // namespace rpm::baselines
