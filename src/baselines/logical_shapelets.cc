#include "baselines/logical_shapelets.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "baselines/shapelet_search.h"
#include "distance/euclidean.h"

namespace rpm::baselines {

void LogicalShapelets::Train(const ts::Dataset& train) {
  if (train.empty()) {
    throw std::invalid_argument(
        "LogicalShapelets::Train: empty training set");
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

    // Score every candidate by its best single-threshold gain (the
    // first maximum).
    const std::vector<Subsequence> cands = search.Sample(
        idx, options_.length_fractions, options_.starts_per_series);
    if (cands.empty()) return node;
    const DistanceMatrix dist = search.Distances(cands, idx);
    struct Scored {
      Split split;
      std::size_t cand = 0;
    };
    std::vector<Scored> scored(cands.size());
    for (std::size_t c = 0; c < cands.size(); ++c) {
      scored[c] = {{-1.0}, c};
      for (const Split& split : labels.Splits(dist.row(c))) {
        if (split.gain > scored[c].split.gain) scored[c].split = split;
      }
    }
    std::sort(scored.begin(), scored.end(),
              [](const Scored& a, const Scored& b) {
                return a.split.gain > b.split.gain;
              });
    const Split& best1 = scored.front().split;
    if (best1.gain <= 1e-9) return node;
    const std::span<const double> dist1 = dist.row(scored.front().cand);

    // Try to extend the best single shapelet with a second one under AND
    // and OR, over the top-k runners-up.
    double best_gain = best1.gain;
    Connective best_conn = Connective::kSingle;
    std::size_t best_partner = 0;
    double best_t2 = 0.0;
    const std::size_t k2 = std::min(options_.combine_top_k + 1,
                                    scored.size());
    for (std::size_t r = 1; r < k2; ++r) {
      const std::span<const double> dist2 = dist.row(scored[r].cand);
      // Sweep the runner-up's threshold over its distinct distances.
      std::vector<double> t2s(dist2.begin(), dist2.end());
      std::sort(t2s.begin(), t2s.end());
      t2s.erase(std::unique(t2s.begin(), t2s.end()), t2s.end());
      for (double t2 : t2s) {
        std::vector<std::size_t> and_true(labels.num_classes(), 0);
        std::vector<std::size_t> or_true(labels.num_classes(), 0);
        std::size_t n_and = 0;
        std::size_t n_or = 0;
        for (std::size_t k = 0; k < idx.size(); ++k) {
          const bool p1 = dist1[k] <= best1.threshold;
          const bool p2 = dist2[k] <= t2;
          if (p1 && p2) {
            ++and_true[labels.class_of(k)];
            ++n_and;
          }
          if (p1 || p2) {
            ++or_true[labels.class_of(k)];
            ++n_or;
          }
        }
        const double g_and = labels.Gain(and_true, n_and);
        const double g_or = labels.Gain(or_true, n_or);
        if (g_and > best_gain + 1e-9) {
          best_gain = g_and;
          best_conn = Connective::kAnd;
          best_partner = r;
          best_t2 = t2;
        }
        if (g_or > best_gain + 1e-9) {
          best_gain = g_or;
          best_conn = Connective::kOr;
          best_partner = r;
          best_t2 = t2;
        }
      }
    }

    std::vector<std::size_t> true_idx;
    std::vector<std::size_t> false_idx;
    const std::span<const double> partner =
        dist.row(scored[best_partner].cand);
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const bool p1 = dist1[k] <= best1.threshold;
      bool pred = p1;
      if (best_conn != Connective::kSingle) {
        const bool p2 = partner[k] <= best_t2;
        pred = (best_conn == Connective::kAnd) ? (p1 && p2) : (p1 || p2);
      }
      (pred ? true_idx : false_idx).push_back(idx[k]);
    }
    if (true_idx.empty() || false_idx.empty()) return node;
    node->leaf = false;
    node->connective = best_conn;
    node->shapelet1 = search.Shapelet(cands[scored.front().cand]);
    node->threshold1 = best1.threshold;
    if (best_conn != Connective::kSingle) {
      node->shapelet2 = search.Shapelet(cands[scored[best_partner].cand]);
      node->threshold2 = best_t2;
    }
    node->left = self(self, std::move(true_idx), depth + 1);
    node->right = self(self, std::move(false_idx), depth + 1);
    return node;
  };

  root_ = build(build, search.all(), 0);
}

bool LogicalShapelets::Predicate(const Node& node,
                                 ts::SeriesView series) const {
  const bool p1 =
      distance::FindBestMatch(node.shapelet1, series).distance <=
      node.threshold1;
  if (node.connective == Connective::kSingle) return p1;
  const bool p2 =
      distance::FindBestMatch(node.shapelet2, series).distance <=
      node.threshold2;
  return node.connective == Connective::kAnd ? (p1 && p2) : (p1 || p2);
}

int LogicalShapelets::Classify(ts::SeriesView series) const {
  if (root_ == nullptr) {
    throw std::logic_error("LogicalShapelets::Classify before Train");
  }
  const Node* node = root_.get();
  while (!node->leaf) {
    node = Predicate(*node, series) ? node->left.get() : node->right.get();
  }
  return node->label;
}

std::size_t LogicalShapelets::num_logical_nodes() const {
  return CountInternalNodes(root_.get(), [](const Node& n) {
    return n.connective != Connective::kSingle;
  });
}

std::size_t LogicalShapelets::num_shapelet_nodes() const {
  return CountInternalNodes(root_.get());
}

}  // namespace rpm::baselines
