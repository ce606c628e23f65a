// Euclidean distance kernels and the early-abandoning best-match
// subsequence scan (Section 2.1 "closest match", Section 5.3 early
// abandoning). These are the hot loops of both RPM's transform and the
// shapelet baselines.

#ifndef RPM_DISTANCE_EUCLIDEAN_H_
#define RPM_DISTANCE_EUCLIDEAN_H_

#include <cstddef>
#include <limits>

#include "ts/series.h"

namespace rpm::distance {

/// Squared Euclidean distance between equal-length views.
/// Precondition: a.size() == b.size().
double SquaredEuclidean(ts::SeriesView a, ts::SeriesView b);

/// Euclidean distance between equal-length views.
double Euclidean(ts::SeriesView a, ts::SeriesView b);

/// Squared Euclidean distance that abandons (returning a value >= `cutoff`)
/// as soon as the running sum exceeds `cutoff`.
double SquaredEuclideanEarlyAbandon(ts::SeriesView a, ts::SeriesView b,
                                    double cutoff);

/// Length-normalized Euclidean distance: ||a-b|| / sqrt(n). Allows
/// comparing match quality across patterns of different lengths, which RPM
/// needs because representative patterns vary in length.
double NormalizedEuclidean(ts::SeriesView a, ts::SeriesView b);

/// NormalizedEuclidean for callers that only act on values strictly below
/// `cutoff`: abandons and returns +inf once the partial sum alone proves
/// the result >= cutoff. The accumulation order matches
/// NormalizedEuclidean and partial sums of non-negative terms are
/// monotone in floating point, so `result < cutoff` decides identically
/// to the unbounded form, and any finite return value is bit-identical.
double NormalizedEuclideanBounded(ts::SeriesView a, ts::SeriesView b,
                                  double cutoff);

/// Result of a best-match scan.
struct BestMatch {
  /// Start offset of the closest window in the haystack; npos when the
  /// haystack is shorter than the pattern.
  std::size_t position = npos;
  /// Length-normalized z-normalized Euclidean distance of that window.
  double distance = std::numeric_limits<double>::infinity();

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  bool found() const { return position != npos; }
};

/// Finds the closest match of `pattern` inside `haystack` (Definition
/// "closest match"): every window of `haystack` of length |pattern| is
/// z-normalized and compared to the (already z-normalized) pattern under
/// length-normalized Euclidean distance, with a lower-bound cascade
/// against the best-so-far. Returns an unfound BestMatch when
/// |haystack| < |pattern| or the pattern is empty.
///
/// Builds a PatternContext and a SeriesContext and runs the pattern-store
/// scan kernels on them as a one-pattern bucket (BatchedBestMatch,
/// distance/matcher.h), so results are bit-identical to every batched
/// path. Callers scanning many pattern x series pairs should build the
/// contexts once via BatchMatcher / SeriesContext instead.
BestMatch FindBestMatch(ts::SeriesView pattern, ts::SeriesView haystack);

/// The pre-batching reference implementation (per-call sort, rolling
/// window moments, no lower-bound cascade). Kept as the ground truth for
/// the matcher equivalence tests and the bench/micro_kernels speedup
/// baseline; not used by the pipeline.
BestMatch FindBestMatchNaive(ts::SeriesView pattern, ts::SeriesView haystack);

/// Convenience: the closest-match distance only (infinity when unfound).
double BestMatchDistance(ts::SeriesView pattern, ts::SeriesView haystack);

}  // namespace rpm::distance

#endif  // RPM_DISTANCE_EUCLIDEAN_H_
