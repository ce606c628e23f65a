#include "core/distinct.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/phase_profile.h"
#include "core/transform.h"
#include "distance/euclidean.h"
#include "distance/matcher.h"
#include "ml/feature_selection.h"

namespace rpm::core {

double CandidateDistance(const PatternCandidate& a,
                         const PatternCandidate& b) {
  const ts::Series& shorter = a.values.size() <= b.values.size()
                                  ? a.values
                                  : b.values;
  const ts::Series& longer = a.values.size() <= b.values.size()
                                 ? b.values
                                 : a.values;
  if (shorter.size() == longer.size()) {
    return distance::NormalizedEuclidean(shorter, longer);
  }
  return distance::FindBestMatch(shorter, longer).distance;
}

double ComputeSimilarityThreshold(
    const std::vector<PatternCandidate>& candidates, double percentile) {
  std::vector<double> pooled;
  for (const auto& c : candidates) {
    // Within-cluster distances were measured on full-length members;
    // normalize by sqrt(len) to line up with the closest-match scale.
    const double inv_sqrt_len =
        c.values.empty() ? 1.0
                         : 1.0 / std::sqrt(static_cast<double>(
                                     c.values.size()));
    for (double d : c.within_cluster_distances) {
      pooled.push_back(d * inv_sqrt_len);
    }
  }
  if (pooled.empty()) return 0.0;
  std::sort(pooled.begin(), pooled.end());
  const double rank = std::clamp(percentile, 0.0, 100.0) / 100.0 *
                      static_cast<double>(pooled.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, pooled.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return pooled[lo] * (1.0 - frac) + pooled[hi] * frac;
}

std::vector<PatternCandidate> RemoveSimilarCandidates(
    const std::vector<PatternCandidate>& candidates, double tau) {
  const std::size_t k = candidates.size();
  // Every unequal-length tau test asks one question: does the shorter
  // candidate match inside the longer one strictly below tau? One SoA
  // store over the whole candidate set can answer that for EVERY
  // shorter side at once: a single batched AnyBelow sweep of one
  // candidate decides all pairs it participates in as the longer side,
  // window-major with shared moments. But a sweep pays for a bucket
  // pass over every shorter pattern whether or not the kept-walk below
  // ever asks about it, and the walk's first-hit break means most
  // haystacks are probed far fewer times than a sweep covers (profiled
  // on the Table 2 datasets: candidates cluster so tightly in length
  // that a probe scans ~5 windows, so window-major moment sharing
  // recoups almost nothing per covered pattern). Ski-rental per
  // haystack: probes run as individual first-hit scans until a
  // haystack has been probed as many times as its sweep covers, then
  // one AnyBelow sweep answers everything else it will ever be asked.
  // Probe-light haystacks never pay for coverage they do not read,
  // probe-heavy ones (probes >> shorter patterns) get the batched
  // sweep at less than twice the offline-optimal cost, and each
  // batched decision is identical to the per-pair scan it replaces.
  distance::BatchMatcher matcher;
  for (const auto& c : candidates) matcher.Add(c.values);

  // shorter_than[j]: patterns a sweep of candidate j would cover — the
  // sweep's cost in per-pair-scan units (scaled below).
  std::vector<std::size_t> shorter_than(k, 0);
  {
    std::vector<std::size_t> lengths(k);
    for (std::size_t j = 0; j < k; ++j) {
      lengths[j] = candidates[j].values.size();
    }
    std::vector<std::size_t> sorted = lengths;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t j = 0; j < k; ++j) {
      shorter_than[j] = static_cast<std::size_t>(
          std::lower_bound(sorted.begin(), sorted.end(), lengths[j]) -
          sorted.begin());
    }
  }

  // Lazily built, cached per candidate: series-side context (probe
  // haystack) and sweep flags. The pattern-side contexts live in the
  // matcher — per-pair probes borrow them via matcher.pattern(), so no
  // candidate's context is ever built twice.
  std::vector<std::unique_ptr<distance::SeriesContext>> as_haystack(k);
  std::vector<std::vector<std::uint8_t>> below_of(k);
  std::vector<std::size_t> probes_of(k, 0);
  distance::MatchScratch scratch;

  auto haystack_ctx = [&](std::size_t j) -> const distance::SeriesContext& {
    if (as_haystack[j] == nullptr) {
      as_haystack[j] = std::make_unique<distance::SeriesContext>(
          candidates[j].values);
    }
    return *as_haystack[j];
  };
  auto below_in = [&](std::size_t longer, std::size_t shorter) -> bool {
    std::vector<std::uint8_t>& flags = below_of[longer];
    if (!flags.empty()) return flags[shorter] != 0;
    // Rent until the rents would have bought the sweep outright. The
    // sweep's price is one bucket pass over every shorter pattern plus
    // a fixed per-sweep setup (seed/flag init across the whole store),
    // so the threshold carries a constant on top of shorter_than.
    if (++probes_of[longer] >= shorter_than[longer] + 16) {
      matcher.AnyBelow(haystack_ctx(longer), &scratch, tau, &flags);
      return flags[shorter] != 0;
    }
    return distance::BatchedMatchBelow(matcher.pattern(shorter),
                                       haystack_ctx(longer), tau);
  };

  // Same pairwise rule as CandidateDistance. Only the `< tau` outcome
  // matters here, so both branches run their tau-bounded variants: the
  // unequal-length side asks for mere existence of a sub-tau window
  // (batched or per-pair, the decisions are identical) and the
  // equal-length distance abandons once its partial sum proves >= tau.
  // Both decide identically to comparing the unbounded distance against
  // tau.
  auto pair_below = [&](std::size_t i, std::size_t j) {
    if (candidates[i].values.size() == candidates[j].values.size()) {
      return distance::NormalizedEuclideanBounded(candidates[i].values,
                                                  candidates[j].values,
                                                  tau) < tau;
    }
    const std::size_t longer =
        candidates[i].values.size() > candidates[j].values.size() ? i : j;
    const std::size_t shorter = longer == i ? j : i;
    return below_in(longer, shorter);
  };

  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < k; ++i) {
    bool is_similar = false;
    for (std::size_t& kept_idx : kept) {
      if (pair_below(i, kept_idx)) {
        // Keep whichever occurs more often in its concatenated series.
        if (candidates[kept_idx].frequency < candidates[i].frequency) {
          kept_idx = i;
        }
        is_similar = true;
        break;
      }
    }
    if (!is_similar) kept.push_back(i);
  }
  std::vector<PatternCandidate> out;
  out.reserve(kept.size());
  for (std::size_t idx : kept) out.push_back(candidates[idx]);
  return out;
}

std::vector<RepresentativePattern> FindDistinctPatterns(
    const ts::Dataset& train, const std::vector<PatternCandidate>& candidates,
    const RpmOptions& options, ml::FeatureDataset* selected_rows) {
  if (selected_rows != nullptr) *selected_rows = ml::FeatureDataset{};
  if (candidates.empty()) return {};
  const std::vector<PatternCandidate> pruned = [&] {
    // The tau threshold and the O(K^2) similarity tests are the
    // distinct-selection hot loop; the transform/CFS below accrue to
    // kTransform as usual.
    ScopedPhaseTimer timer(PhaseProfile::kDistinct);
    const double tau =
        ComputeSimilarityThreshold(candidates, options.tau_percentile);
    return RemoveSimilarCandidates(candidates, tau);
  }();

  // Transform the training data into candidate-distance features and let
  // CFS pick the discriminative subset.
  const std::vector<RepresentativePattern> all = AsPatterns(pruned);
  const ml::FeatureDataset transformed =
      TransformEngine(all).Apply(train, options.num_threads);
  const std::vector<std::size_t> selected = ml::CfsSelect(transformed);

  std::vector<RepresentativePattern> out;
  out.reserve(selected.size());
  for (std::size_t idx : selected) out.push_back(all[idx]);
  if (selected_rows != nullptr) {
    *selected_rows = transformed.SelectColumns(selected);
  }
  return out;
}

}  // namespace rpm::core
