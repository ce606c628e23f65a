#include "core/transform.h"

#include <algorithm>

#include "core/phase_profile.h"
#include "distance/euclidean.h"
#include "ts/parallel.h"
#include "ts/resample.h"
#include "ts/rotation.h"
#include "ts/znorm.h"

namespace rpm::core {

namespace {

// Degenerate case: pattern longer than the series — compare at series
// length after resampling the pattern down.
double ShrunkPatternDistance(const ts::Series& pattern,
                             ts::SeriesView series) {
  ts::Series shrunk = ts::ResampleLinear(pattern, series.size());
  ts::ZNormalizeInPlace(shrunk);
  ts::Series z(series.begin(), series.end());
  ts::ZNormalizeInPlace(z);
  return distance::NormalizedEuclidean(shrunk, z);
}

}  // namespace

TransformEngine::TransformEngine(
    const std::vector<RepresentativePattern>& patterns) {
  for (const auto& p : patterns) matcher_.Add(p.values);
}

double TransformEngine::ResolveMatch(std::size_t i,
                                     const distance::BestMatch& match,
                                     ts::SeriesView series) const {
  // The store answers only the in-range scans; an empty pattern or
  // series reads 0 and a pattern longer than the series is shrunk.
  const ts::Series& pattern = matcher_.pattern(i).values;
  if (pattern.empty() || series.empty()) return 0.0;
  if (pattern.size() > series.size()) {
    return ShrunkPatternDistance(pattern, series);
  }
  // In-range pattern: the bucketed scan always finds a window.
  return match.distance;
}

std::vector<double> TransformEngine::Row(ts::SeriesView series,
                                         bool rotation_invariant) const {
  TransformScratch scratch;
  std::vector<double> row;
  RowInto(series, rotation_invariant, &scratch, &row);
  return row;
}

void TransformEngine::RowInto(ts::SeriesView series, bool rotate,
                              TransformScratch* scratch,
                              std::vector<double>* row) const {
  const std::size_t k = matcher_.size();
  row->clear();
  row->reserve(k);
  scratch->ctx.Assign(series);
  if (rotate) {
    scratch->rotated = ts::RotateAtMidpoint(series);
    scratch->rotated_ctx.Assign(scratch->rotated);
  }
  // One bucketed pass answers all K patterns per context.
  matcher_.MatchAll(scratch->ctx, &scratch->match_scratch, &scratch->matches);
  if (rotate) {
    matcher_.MatchAll(scratch->rotated_ctx, &scratch->match_scratch,
                      &scratch->rotated_matches);
  }
  for (std::size_t i = 0; i < k; ++i) {
    double d = ResolveMatch(i, scratch->matches[i], series);
    if (rotate) {
      d = std::min(
          d, ResolveMatch(i, scratch->rotated_matches[i], scratch->rotated));
    }
    row->push_back(d);
  }
}

ml::FeatureDataset TransformEngine::Apply(const ts::Dataset& data,
                                          std::size_t num_threads) const {
  ScopedPhaseTimer timer(PhaseProfile::kTransform);
  ml::FeatureDataset out;
  out.x.resize(data.size());
  out.y.resize(data.size());
  ts::ParallelFor(data.size(), num_threads, [&](std::size_t i) {
    // Warm per-worker buffers: pool threads persist across Apply calls,
    // so steady-state transforms allocate only the output rows.
    static thread_local TransformScratch scratch;
    RowInto(data[i].values, false, &scratch, &out.x[i]);
    out.y[i] = data[i].label;
  });
  return out;
}

std::vector<RepresentativePattern> AsPatterns(
    const std::vector<PatternCandidate>& candidates) {
  std::vector<RepresentativePattern> out;
  out.reserve(candidates.size());
  for (const auto& c : candidates) {
    out.push_back(RepresentativePattern{c.class_label, c.values, c.frequency});
  }
  return out;
}

}  // namespace rpm::core
