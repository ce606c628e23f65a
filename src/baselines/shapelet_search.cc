#include "baselines/shapelet_search.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "core/phase_profile.h"
#include "ts/parallel.h"
#include "ts/znorm.h"

namespace rpm::baselines {
namespace {

// p log2 p of `count` series out of `total`; 0 for an empty class.
double PLogP(std::size_t count, std::size_t total) {
  if (count == 0) return 0.0;
  const double p = static_cast<double>(count) / static_cast<double>(total);
  return p * std::log2(p);
}

}  // namespace

NodeLabels::NodeLabels(const ts::Dataset& train,
                       std::span<const std::size_t> idx) {
  for (std::size_t i : idx) labels_.push_back(train[i].label);
  std::sort(labels_.begin(), labels_.end());
  labels_.erase(std::unique(labels_.begin(), labels_.end()), labels_.end());
  counts_.assign(labels_.size(), 0);
  class_of_.reserve(idx.size());
  for (std::size_t i : idx) {
    class_of_.push_back(class_index(train[i].label));
    ++counts_[class_of_.back()];
  }
  for (std::size_t count : counts_) entropy_ -= PLogP(count, idx.size());
}

std::size_t NodeLabels::class_index(int label) const {
  return static_cast<std::size_t>(
      std::lower_bound(labels_.begin(), labels_.end(), label) -
      labels_.begin());
}

int NodeLabels::Majority() const {
  return labels_[static_cast<std::size_t>(
      std::max_element(counts_.begin(), counts_.end()) - counts_.begin())];
}

double NodeLabels::Gain(std::span<const std::size_t> side,
                        std::size_t n_side) const {
  const std::size_t n_rest = class_of_.size() - n_side;
  double h_side = 0.0;
  double h_rest = 0.0;
  for (std::size_t c = 0; c < counts_.size(); ++c) {
    h_side -= PLogP(side[c], n_side);
    h_rest -= PLogP(counts_[c] - side[c], n_rest);
  }
  const double nl = static_cast<double>(n_side);
  const double nr = static_cast<double>(n_rest);
  const double n = nl + nr;
  return entropy_ - (nl / n * h_side + nr / n * h_rest);
}

std::vector<Split> NodeLabels::Splits(
    std::span<const double> distances) const {
  std::vector<std::pair<double, std::size_t>> sorted;
  sorted.reserve(distances.size());
  for (std::size_t k = 0; k < distances.size(); ++k) {
    sorted.emplace_back(distances[k], class_of_[k]);
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<Split> splits;
  std::vector<std::size_t> left(counts_.size(), 0);
  for (std::size_t split = 1; split < sorted.size(); ++split) {
    ++left[sorted[split - 1].second];
    const double lo = sorted[split - 1].first;
    const double hi = sorted[split].first;
    if (hi == lo) continue;
    splits.push_back({Gain(left, split), 0.5 * (lo + hi), hi - lo});
  }
  return splits;
}

ShapeletSearch::ShapeletSearch(const ts::Dataset& train)
    : train_(train), all_(train.size()) {
  std::iota(all_.begin(), all_.end(), std::size_t{0});
  contexts_.reserve(train.size());
  for (const auto& inst : train) contexts_.emplace_back(inst.values);
}

std::vector<Subsequence> ShapeletSearch::Sample(
    std::span<const std::size_t> idx, const std::vector<double>& fractions,
    std::size_t starts_per_series) const {
  std::size_t min_len = train_[idx[0]].values.size();
  for (std::size_t i : idx) {
    min_len = std::min(min_len, train_[i].values.size());
  }
  std::vector<Subsequence> out;
  for (double frac : fractions) {
    const auto len = static_cast<std::size_t>(
        std::lround(frac * static_cast<double>(min_len)));
    if (len < 4) continue;
    for (std::size_t s : idx) {
      const std::size_t size = train_[s].values.size();
      if (size < len) continue;
      const std::size_t span = size - len;
      const std::size_t stride =
          std::max<std::size_t>(1, span / starts_per_series);
      for (std::size_t p = 0; p <= span; p += stride) {
        out.push_back({s, p, len});
      }
    }
  }
  return out;
}

ts::Series ShapeletSearch::Shapelet(const Subsequence& candidate) const {
  return ts::ZNormalize(ts::SeriesView(train_[candidate.series].values)
                            .subspan(candidate.pos, candidate.length));
}

DistanceMatrix ShapeletSearch::Distances(
    const std::vector<Subsequence>& candidates,
    std::span<const std::size_t> idx) const {
  DistanceMatrix out{idx.size(),
                     std::vector<double>(candidates.size() * idx.size())};
  if (candidates.empty()) return out;
  core::ScopedPhaseTimer scan_timer(core::PhaseProfile::kShapelets);
  // One SoA store over every candidate: each series is swept once for
  // all of them (window moments shared bucket-wide), and the distances
  // are bit-identical to one FindBestMatch per pair.
  distance::BatchMatcher matcher;
  for (const Subsequence& c : candidates) matcher.Add(Shapelet(c));
  ts::ParallelFor(idx.size(), ts::DefaultThreads(), [&](std::size_t k) {
    static thread_local distance::MatchScratch scratch;
    static thread_local std::vector<distance::BestMatch> matches;
    matcher.MatchAll(contexts_[idx[k]], &scratch, &matches);
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      out.values[c * idx.size() + k] = matches[c].distance;
    }
  });
  return out;
}

}  // namespace rpm::baselines
