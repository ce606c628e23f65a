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

double PatternDistance(const ts::Series& pattern, ts::SeriesView series) {
  if (pattern.empty() || series.empty()) return 0.0;
  if (pattern.size() <= series.size()) {
    return distance::FindBestMatch(pattern, series).distance;
  }
  return ShrunkPatternDistance(pattern, series);
}

double PatternDistanceRotationInvariant(const ts::Series& pattern,
                                        ts::SeriesView series) {
  const double direct = PatternDistance(pattern, series);
  const ts::Series rotated = ts::RotateAtMidpoint(series);
  return std::min(direct, PatternDistance(pattern, rotated));
}

TransformEngine::TransformEngine(
    const std::vector<RepresentativePattern>& patterns,
    const TransformOptions& options)
    : patterns_(&patterns), options_(options) {
  for (const auto& p : patterns) matcher_.Add(p.values);
}

double TransformEngine::ResolveMatch(std::size_t i,
                                     const distance::BestMatch& match,
                                     ts::SeriesView series) const {
  // Same case order as PatternDistance: the store answers only the
  // in-range scans; the degenerate cells keep the per-call semantics.
  const ts::Series& pattern = (*patterns_)[i].values;
  if (pattern.empty() || series.empty()) return 0.0;
  if (pattern.size() > series.size()) {
    return ShrunkPatternDistance(pattern, series);
  }
  // In-range pattern: the bucketed scan always finds a window.
  return match.distance;
}

std::vector<double> TransformEngine::Row(ts::SeriesView series) const {
  TransformScratch scratch;
  std::vector<double> row;
  RowInto(series, &scratch, &row);
  return row;
}

void TransformEngine::RowInto(ts::SeriesView series, TransformScratch* scratch,
                              std::vector<double>* row) const {
  const std::size_t k = patterns_->size();
  row->clear();
  row->reserve(k);
  const bool rotate = options_.rotation_invariant;
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

ml::FeatureDataset TransformEngine::Apply(const ts::Dataset& data) const {
  ScopedPhaseTimer timer(PhaseProfile::kTransform);
  ml::FeatureDataset out;
  out.x.resize(data.size());
  out.y.resize(data.size());
  ts::ParallelFor(data.size(), options_.num_threads, [&](std::size_t i) {
    // Warm per-worker buffers: pool threads persist across Apply calls,
    // so steady-state transforms allocate only the output rows.
    static thread_local TransformScratch scratch;
    RowInto(data[i].values, &scratch, &out.x[i]);
    out.y[i] = data[i].label;
  });
  return out;
}

std::vector<double> TransformSeries(
    const std::vector<RepresentativePattern>& patterns,
    ts::SeriesView series, const TransformOptions& options) {
  return TransformEngine(patterns, options).Row(series);
}

ml::FeatureDataset TransformDataset(
    const std::vector<RepresentativePattern>& patterns,
    const ts::Dataset& data, const TransformOptions& options) {
  return TransformEngine(patterns, options).Apply(data);
}

std::vector<double> TransformSeries(
    const std::vector<RepresentativePattern>& patterns,
    ts::SeriesView series, bool rotation_invariant) {
  TransformOptions options;
  options.rotation_invariant = rotation_invariant;
  return TransformSeries(patterns, series, options);
}

ml::FeatureDataset TransformDataset(
    const std::vector<RepresentativePattern>& patterns,
    const ts::Dataset& data, bool rotation_invariant) {
  TransformOptions options;
  options.rotation_invariant = rotation_invariant;
  return TransformDataset(patterns, data, options);
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
