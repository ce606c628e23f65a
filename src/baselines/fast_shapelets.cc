#include "baselines/fast_shapelets.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>

#include "baselines/shapelet_search.h"
#include "distance/matcher.h"
#include "sax/sax.h"
#include "ts/rng.h"

namespace rpm::baselines {

void FastShapelets::Train(const ts::Dataset& train) {
  if (train.empty()) {
    throw std::invalid_argument("FastShapelets::Train: empty training set");
  }
  ts::Rng rng(options_.seed);
  const ShapeletSearch search(train);

  // Recursive node builder over index subsets.
  auto build = [&](auto&& self, std::vector<std::size_t> idx,
                   std::size_t depth) -> std::unique_ptr<Node> {
    auto node = std::make_unique<Node>();
    const NodeLabels labels(train, idx);
    node->label = labels.Majority();
    if (labels.num_classes() == 1 || depth >= options_.max_depth ||
        idx.size() < 2 * options_.min_node_size) {
      return node;
    }

    // --- Candidate sampling + SAX words. ---
    const std::vector<Subsequence> cands = search.Sample(
        idx, options_.length_fractions, options_.starts_per_series);
    if (cands.empty()) return node;
    std::vector<std::string> words;
    words.reserve(cands.size());
    for (const Subsequence& c : cands) {
      words.push_back(sax::SaxWord(search.Shapelet(c),
                                   std::min(options_.sax_word_length,
                                            c.length),
                                   options_.alphabet));
    }

    // --- Random projection rounds: collision counting per class. ---
    const std::size_t num_classes = labels.num_classes();
    std::vector<double> scores(cands.size(), 0.0);
    for (std::size_t round = 0; round < options_.projection_rounds; ++round) {
      // Random mask positions.
      std::vector<std::size_t> mask;
      const std::size_t word_len = words.front().size();
      for (std::size_t m = 0; m < options_.mask_size; ++m) {
        mask.push_back(static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(word_len) - 1)));
      }
      struct WordStats {
        std::vector<std::size_t> per_class;
        std::size_t last_series = static_cast<std::size_t>(-1);
      };
      std::unordered_map<std::string, WordStats> table;
      std::vector<std::string> masked(cands.size());
      for (std::size_t ci = 0; ci < cands.size(); ++ci) {
        std::string w = words[ci];
        for (std::size_t m : mask) {
          if (m < w.size()) w[m] = '*';
        }
        masked[ci] = w;
        WordStats& st = table[w];
        if (st.per_class.empty()) st.per_class.resize(num_classes, 0);
        // Count distinct series per word (candidates arrive grouped by
        // series because of the sampling order).
        const std::size_t series = cands[ci].series;
        if (st.last_series != series) {
          st.last_series = series;
          ++st.per_class[labels.class_index(train[series].label)];
        }
      }
      // Distinguishing power: spread of per-class presence fractions.
      for (std::size_t ci = 0; ci < cands.size(); ++ci) {
        const WordStats& st = table[masked[ci]];
        double lo = 1.0;
        double hi = 0.0;
        for (std::size_t c = 0; c < num_classes; ++c) {
          const double frac = static_cast<double>(st.per_class[c]) /
                              static_cast<double>(labels.count(c));
          lo = std::min(lo, frac);
          hi = std::max(hi, frac);
        }
        scores[ci] += hi - lo;
      }
    }

    // --- Exact evaluation of the top-k candidates. ---
    std::vector<std::size_t> order(cands.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    const std::size_t k = std::min(options_.top_k, order.size());
    std::partial_sort(
        order.begin(), order.begin() + static_cast<std::ptrdiff_t>(k),
        order.end(),
        [&](std::size_t a, std::size_t b) { return scores[a] > scores[b]; });
    std::vector<Subsequence> top(k);
    for (std::size_t oi = 0; oi < k; ++oi) top[oi] = cands[order[oi]];
    // Candidate x series distance matrix; the winner's row also routes
    // the split below without re-scanning the node series. The first
    // maximum gain over (candidate, split point) wins.
    const DistanceMatrix dist = search.Distances(top, idx);
    Split best{-1.0};
    std::size_t best_oi = 0;
    for (std::size_t oi = 0; oi < k; ++oi) {
      for (const Split& split : labels.Splits(dist.row(oi))) {
        if (split.gain > best.gain) {
          best = split;
          best_oi = oi;
        }
      }
    }
    if (best.gain <= 1e-9) return node;

    // Split and recurse, routing on the winner's matrix row — those are
    // the exact distances the threshold was chosen from.
    std::vector<std::size_t> left_idx;
    std::vector<std::size_t> right_idx;
    for (std::size_t t = 0; t < idx.size(); ++t) {
      (dist.row(best_oi)[t] <= best.threshold ? left_idx : right_idx)
          .push_back(idx[t]);
    }
    if (left_idx.empty() || right_idx.empty()) return node;
    node->leaf = false;
    node->shapelet = search.Shapelet(top[best_oi]);
    node->threshold = best.threshold;
    node->left = self(self, std::move(left_idx), depth + 1);
    node->right = self(self, std::move(right_idx), depth + 1);
    return node;
  };

  root_ = build(build, search.all(), 0);

  // Flatten the tree's shapelets into one SoA store. Every node's
  // routing test `d <= threshold` is exactly `d < nextafter(threshold,
  // +inf)`, so a single cutoff-seeded sweep decides all of them at once
  // — Classify reads found-ness per node instead of scanning per level.
  classify_matcher_ = distance::BatchMatcher{};
  classify_seeds_.clear();
  std::vector<Node*> stack;
  if (root_ != nullptr) stack.push_back(root_.get());
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    if (n->leaf) continue;
    n->slot = classify_matcher_.size();
    classify_matcher_.Add(n->shapelet);
    classify_seeds_.push_back(std::nextafter(
        n->threshold, std::numeric_limits<double>::infinity()));
    stack.push_back(n->left.get());
    stack.push_back(n->right.get());
  }
}

int FastShapelets::Classify(ts::SeriesView series) const {
  if (root_ == nullptr) {
    throw std::logic_error("FastShapelets::Classify before Train");
  }
  const Node* node = root_.get();
  if (node->leaf) return node->label;
  // One batched seeded sweep over every tree shapelet (shared window
  // moments, first-improvement abandon against each node's threshold
  // seed); the walk below then just reads each visited node's
  // found-ness: found <=> best distance < nextafter(threshold, +inf)
  // <=> distance <= threshold, the pre-batched routing test.
  const distance::SeriesContext ctx(series);
  distance::MatchScratch scratch;
  std::vector<distance::BestMatch> matches;
  classify_matcher_.MatchAllSeeded(ctx, &scratch, classify_seeds_,
                                   &matches);
  while (!node->leaf) {
    node = matches[node->slot].found() ? node->left.get()
                                       : node->right.get();
  }
  return node->label;
}

std::size_t FastShapelets::num_shapelet_nodes() const {
  return CountInternalNodes(root_.get());
}

const ts::Series& FastShapelets::root_shapelet() const {
  static const ts::Series kEmpty;
  return root_ != nullptr ? root_->shapelet : kEmpty;
}

}  // namespace rpm::baselines
