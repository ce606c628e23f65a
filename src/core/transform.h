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

/// The transform over a fixed pattern set, on the batched matching
/// backend (distance/matcher.h): one PatternContext per representative
/// pattern, built once and shared read-only across every series and
/// every worker thread. The engine owns copies of the pattern values, so
/// it stays valid after `patterns` is gone and can be moved freely.
class TransformEngine {
 public:
  explicit TransformEngine(const std::vector<RepresentativePattern>& patterns);

  /// The K-dim feature row of one series. With `rotation_invariant` each
  /// pattern is also matched against the midpoint-rotated series and the
  /// smaller distance is kept (Section 6.1).
  std::vector<double> Row(ts::SeriesView series,
                          bool rotation_invariant = false) const;

  /// Alloc-free form of Row: contexts and match buffers live in
  /// `scratch`, the row is written into `*row` (cleared first). All K
  /// patterns are matched through one bucketed SoA MatchAll pass per
  /// context; results are bit-identical to Row.
  void RowInto(ts::SeriesView series, bool rotation_invariant,
               TransformScratch* scratch, std::vector<double>* row) const;

  /// Transforms a labeled dataset without rotation; labels carry over.
  /// Rows are computed on `num_threads` pool workers and are
  /// bit-identical for any thread count.
  ml::FeatureDataset Apply(const ts::Dataset& data,
                           std::size_t num_threads = 1) const;

 private:
  /// Distance of pattern `i` given its MatchAll result against `series`
  /// (resolves the sentinel/degenerate cases the store cannot answer).
  double ResolveMatch(std::size_t i, const distance::BestMatch& match,
                      ts::SeriesView series) const;

  distance::BatchMatcher matcher_;
};

/// Convenience overload for candidate pools (Algorithm 2 transforms the
/// training data against *candidates* before feature selection).
std::vector<RepresentativePattern> AsPatterns(
    const std::vector<PatternCandidate>& candidates);

}  // namespace rpm::core

#endif  // RPM_CORE_TRANSFORM_H_
