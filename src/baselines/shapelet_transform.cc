#include "baselines/shapelet_transform.h"

#include <algorithm>
#include <stdexcept>

#include "baselines/shapelet_search.h"
#include "distance/matcher.h"

namespace rpm::baselines {

void ShapeletTransform::Train(const ts::Dataset& train) {
  if (train.empty()) {
    throw std::invalid_argument(
        "ShapeletTransform::Train: empty training set");
  }
  shapelets_.clear();
  matcher_ = distance::BatchMatcher{};

  const ShapeletSearch search(train);
  const NodeLabels labels(train, search.all());
  // Majority label doubles as the degenerate fallback.
  lone_label_ = labels.Majority();
  trained_ = true;
  if (labels.num_classes() == 1) return;

  // Score sampled candidates by whole-train information gain: the
  // highest gain over a candidate's split points, 0 when none gains.
  const std::vector<Subsequence> cands = search.Sample(
      search.all(), options_.length_fractions, options_.starts_per_series);
  const DistanceMatrix dist = search.Distances(cands, search.all());
  struct Scored {
    double gain = 0.0;
    Subsequence cand;
  };
  std::vector<Scored> scored(cands.size());
  for (std::size_t c = 0; c < cands.size(); ++c) {
    scored[c].cand = cands[c];
    for (const Split& split : labels.Splits(dist.row(c))) {
      scored[c].gain = std::max(scored[c].gain, split.gain);
    }
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) { return a.gain > b.gain; });

  // Greedy selection, skipping candidates that overlap an accepted
  // shapelet of the same series.
  std::vector<Subsequence> accepted;
  for (const Scored& s : scored) {
    if (shapelets_.size() >= options_.num_shapelets) break;
    if (s.gain <= 0.0) break;
    const Subsequence& c = s.cand;
    if (std::any_of(accepted.begin(), accepted.end(),
                    [&](const Subsequence& a) {
                      return a.series == c.series &&
                             c.pos < a.pos + a.length &&
                             a.pos < c.pos + c.length;
                    })) {
      continue;
    }
    shapelets_.push_back(search.Shapelet(c));
    matcher_.Add(shapelets_.back());
    accepted.push_back(c);
  }
  if (shapelets_.empty()) return;  // Majority fallback stays in force.

  // Transform and fit the downstream classifier.
  ml::FeatureDataset features;
  for (const auto& inst : train) {
    features.Add(Transform(inst.values), inst.label);
  }
  svm_ = ml::SvmClassifier(options_.svm);
  svm_.Train(features);
}

std::vector<double> ShapeletTransform::Transform(
    ts::SeriesView series) const {
  std::vector<double> row;
  row.reserve(shapelets_.size());
  const distance::SeriesContext ctx(series);
  for (const auto& m : matcher_.MatchAll(ctx)) {
    row.push_back(m.found() ? m.distance : 1e6);
  }
  return row;
}

int ShapeletTransform::Classify(ts::SeriesView series) const {
  if (!trained_) {
    throw std::logic_error("ShapeletTransform::Classify before Train");
  }
  if (shapelets_.empty()) return lone_label_;
  return svm_.Predict(Transform(series));
}

}  // namespace rpm::baselines
