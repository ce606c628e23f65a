// Time-series -> feature-space transformation (Section 3.1): a series of
// length m becomes a K-vector of closest-match distances to the K
// representative patterns. The rotation-invariant variant (Section 6.1)
// also matches against the series rotated at its midpoint and keeps the
// minimum per pattern.

#ifndef RPM_CORE_TRANSFORM_H_
#define RPM_CORE_TRANSFORM_H_

#include <vector>

#include "core/pattern.h"
#include "distance/matcher.h"
#include "ml/feature_dataset.h"
#include "ts/series.h"

namespace rpm::core {

/// Controls how series are embedded into the pattern-distance space.
struct TransformOptions {
  /// Also match against the midpoint-rotated series (Section 6.1).
  bool rotation_invariant = false;
  /// Worker threads for whole-dataset transforms (deterministic).
  std::size_t num_threads = 1;
};

/// Reusable per-call buffers for TransformEngine::RowInto: the series
/// contexts (prefix sums), the rotated-series copy, and the matcher's
/// MatchAll scratch. A long-lived scratch makes steady-state rows
/// allocation-free — the warm-path hook the streaming scorer and the
/// dataset transform workers keep between calls. Default-constructed
/// scratch works anywhere; it just starts cold.
struct TransformScratch {
  distance::SeriesContext ctx;
  distance::SeriesContext rotated_ctx;
  ts::Series rotated;
  distance::MatchScratch match_scratch;
  std::vector<distance::BestMatch> matches;
  std::vector<distance::BestMatch> rotated_matches;
};

/// Closest-match distance of one pattern inside one series (both directions
/// of degenerate lengths handled: a pattern longer than the series is
/// resampled down before matching).
double PatternDistance(const ts::Series& pattern, ts::SeriesView series);

/// Rotation-invariant variant: min over the series and its
/// midpoint-rotated copy.
double PatternDistanceRotationInvariant(const ts::Series& pattern,
                                        ts::SeriesView series);

/// Reusable transform engine over the batched matching backend
/// (distance/matcher.h): one PatternContext per representative pattern,
/// built once and shared across every series and every worker thread.
/// Prefer this over the free functions when transforming repeatedly
/// against a fixed pattern set (classification loops, benches).
class TransformEngine {
 public:
  /// Keeps a reference to `patterns`; they must outlive the engine.
  TransformEngine(const std::vector<RepresentativePattern>& patterns,
                  const TransformOptions& options);

  /// The K-dim feature row of one series.
  std::vector<double> Row(ts::SeriesView series) const;

  /// Alloc-free form of Row: contexts and match buffers live in
  /// `scratch`, the row is written into `*row` (cleared first). All K
  /// patterns are matched through one bucketed SoA MatchAll pass per
  /// context; results are bit-identical to Row.
  void RowInto(ts::SeriesView series, TransformScratch* scratch,
               std::vector<double>* row) const;

  /// Transforms a labeled dataset (parallel over options.num_threads;
  /// bit-identical for any thread count).
  ml::FeatureDataset Apply(const ts::Dataset& data) const;

 private:
  /// Distance of pattern `i` given its MatchAll result against `series`
  /// (resolves the sentinel/degenerate cases the store cannot answer).
  double ResolveMatch(std::size_t i, const distance::BestMatch& match,
                      ts::SeriesView series) const;

  const std::vector<RepresentativePattern>* patterns_;
  TransformOptions options_;
  distance::BatchMatcher matcher_;
};

/// Transforms one series into the K-dim feature row.
std::vector<double> TransformSeries(
    const std::vector<RepresentativePattern>& patterns, ts::SeriesView series,
    const TransformOptions& options);

/// Transforms a labeled dataset; labels carry over.
ml::FeatureDataset TransformDataset(
    const std::vector<RepresentativePattern>& patterns,
    const ts::Dataset& data, const TransformOptions& options);

/// Back-compat overloads: `rotation_invariant` only, exact matching.
std::vector<double> TransformSeries(
    const std::vector<RepresentativePattern>& patterns, ts::SeriesView series,
    bool rotation_invariant = false);
ml::FeatureDataset TransformDataset(
    const std::vector<RepresentativePattern>& patterns,
    const ts::Dataset& data, bool rotation_invariant = false);

/// Convenience overload for candidate pools (Algorithm 2 transforms the
/// training data against *candidates* before feature selection).
std::vector<RepresentativePattern> AsPatterns(
    const std::vector<PatternCandidate>& candidates);

}  // namespace rpm::core

#endif  // RPM_CORE_TRANSFORM_H_
