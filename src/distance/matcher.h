// Batched best-match engine: precomputed per-pattern and per-series
// contexts for the z-normalized closest-match scan (Section 2.1,
// Section 5.3 early abandoning).
//
// A per-call scan would re-derive the haystack's window moments on every
// pattern x series pair; the transform stage runs K x |dataset| such
// pairs, and parameter selection repeats the transform for every DIRECT
// combo x split. The engine therefore splits the state by lifetime:
//  * PatternContext — the z-normalized pattern, its sums, computed once
//    per pattern and reused against every series.
//  * SeriesContext — prefix-sum / prefix-sum-of-squares arrays over the
//    haystack, so the mean and stddev of *any* window of *any* length
//    come from two O(1) lookups; built once per series and shared by all
//    patterns regardless of their lengths.
//  * BatchMatcher — a pattern set matched against many series through
//    the length-bucketed SoA store (pattern_store.h).
//
// The scan itself lives in pattern_store.cc and nowhere else: a
// closed-form z-normalized distance with a first/last-point lower bound
// cascaded before each window's dot product. The one-pattern calls
// below (and FindBestMatch, distance/euclidean.h, which builds both
// contexts on the fly) run it as a one-pattern bucket, so per-call,
// MatchAll and seeded/existence results are bit-identical.

#ifndef RPM_DISTANCE_MATCHER_H_
#define RPM_DISTANCE_MATCHER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "distance/euclidean.h"
#include "ts/series.h"

namespace rpm::distance {

class PatternStore;

/// Reusable per-call state for the batched MatchAll path (per-pattern
/// best-so-far in the scan's squared space). Callers on hot paths keep
/// one scratch alive across calls so steady-state matching allocates
/// nothing; a default-constructed scratch works for one-off calls.
struct MatchScratch {
  std::vector<double> best_sq;
  std::vector<std::size_t> best_pos;
  /// Per-pattern decided/hit flags, used by the AnyBelow existence scan.
  std::vector<std::uint8_t> below;
};

/// Per-pattern precomputation for the batched scan. The pattern is
/// copied, so the context owns everything it needs.
struct PatternContext {
  PatternContext() = default;
  /// `pattern` must already be z-normalized (the RPM pipeline invariant;
  /// FindBestMatch has always assumed the same).
  explicit PatternContext(ts::SeriesView pattern);

  std::size_t size() const { return values.size(); }
  bool empty() const { return values.empty(); }

  /// The (z-normalized) pattern values.
  ts::Series values;
  /// 1 / |pattern| (0 when empty), for length normalization.
  double inv_n = 0.0;
  /// Sum and sum of squares of the pattern values (for a z-normalized
  /// pattern these are ~0 and ~|pattern|, but the kernel uses the exact
  /// floating-point values so nothing depends on perfect normalization).
  double sum = 0.0;
  double sum_sq = 0.0;
};

/// Per-series precomputation: prefix sums of values and squared values.
/// Holds a *view* of the series — the underlying data must outlive the
/// context (datasets are stable for the duration of a transform).
class SeriesContext {
 public:
  SeriesContext() = default;
  explicit SeriesContext(ts::SeriesView series);

  /// Rebuilds the context over a new series, reusing the prefix buffers
  /// when capacity allows — the alloc-free path for streaming callers
  /// that re-context every window slide.
  void Assign(ts::SeriesView series);

  ts::SeriesView data() const { return data_; }
  std::size_t size() const { return data_.size(); }

  /// Mean and inverse stddev of the window [pos, pos+len) in O(1).
  /// Flat windows (stddev < ts::kFlatThreshold) get inv_sigma = 1, the
  /// same mean-center-only rule the scan kernels apply.
  /// Precondition: pos + len <= size(), len > 0.
  void WindowMoments(std::size_t pos, std::size_t len, double* mu,
                     double* inv_sigma) const;

  /// Raw prefix arrays (size() + 1 entries each) for the scan kernels,
  /// which batch window-moment computation across consecutive positions.
  const double* PrefixData() const { return prefix_.data(); }
  const double* PrefixSqData() const { return prefix_sq_.data(); }

 private:
  ts::SeriesView data_;
  std::vector<double> prefix_;     // prefix_[i] = sum of data[0..i)
  std::vector<double> prefix_sq_;  // prefix_sq_[i] = sum of squares
};

/// Closest match of the pattern inside the series (same contract as
/// FindBestMatch): every window of length |pattern| is z-normalized and
/// compared under length-normalized Euclidean distance. Returns an
/// explicit unfound sentinel (position == npos, distance == inf) when the
/// pattern is empty or longer than the series — mid-batch callers must
/// not rely on pre-checking sizes.
BestMatch BatchedBestMatch(const PatternContext& pattern,
                           const SeriesContext& series);

/// Cutoff-seeded variant for callers that only act on matches strictly
/// below `cutoff` (e.g. the tau test of similar-candidate removal): the
/// scan starts with best-so-far = cutoff, so the end-point lower bound
/// prunes windows that cannot beat it without running their dot product.
/// Returns the exact best match when its distance is below the cutoff,
/// and the unfound sentinel (npos, +inf) otherwise — so `result.distance
/// < cutoff` decides identically to the unseeded scan.
BestMatch BatchedBestMatch(const PatternContext& pattern,
                           const SeriesContext& series, double cutoff);

/// Existence test: true iff the closest match of `pattern` in `series`
/// is strictly below `cutoff`. Decides identically to
/// `BatchedBestMatch(pattern, series).distance < cutoff`, but stops at
/// the first window proven below the cutoff instead of scanning on for
/// the minimum — the right primitive for threshold tests that never
/// read the distance itself.
bool BatchedMatchBelow(const PatternContext& pattern,
                       const SeriesContext& series, double cutoff);

/// A set of pattern contexts built once and matched against many series.
///
/// MatchAll runs through a lazily built length-bucketed SoA PatternStore
/// (pattern_store.h): each bucket scans the series window-major so one
/// window's moments are shared by every same-length pattern, with
/// scalar/AVX2/AVX-512 kernels under the runtime ISA dispatcher
/// (isa_dispatch.h). Results are bit-identical to one-pattern Match on
/// every tier. The store is rebuilt on first MatchAll after an Add;
/// concurrent first-builds are serialized internally, so MatchAll stays
/// safe to call from parallel transform workers.
class BatchMatcher {
 public:
  BatchMatcher();
  /// Builds one context per pattern (patterns are copied).
  explicit BatchMatcher(const std::vector<ts::Series>& patterns);
  BatchMatcher(const BatchMatcher& other);
  BatchMatcher& operator=(const BatchMatcher& other);
  BatchMatcher(BatchMatcher&& other) noexcept;
  BatchMatcher& operator=(BatchMatcher&& other) noexcept;
  ~BatchMatcher();

  /// Appends one pattern (invalidates the SoA store; it is rebuilt on
  /// the next MatchAll).
  void Add(ts::SeriesView pattern);

  std::size_t size() const { return patterns_.size(); }
  bool empty() const { return patterns_.empty(); }
  const PatternContext& pattern(std::size_t i) const { return patterns_[i]; }

  /// Best match of pattern `i` in the series (sentinel when unfound).
  BestMatch Match(std::size_t i, const SeriesContext& series) const {
    return BatchedBestMatch(patterns_[i], series);
  }

  /// Best match of every pattern in the series, in pattern order.
  /// Patterns longer than the series yield the explicit unfound sentinel
  /// at their slot. The scratch/out overload is the alloc-free hot path;
  /// the returning overload wraps it for one-off callers.
  void MatchAll(const SeriesContext& series, MatchScratch* scratch,
                std::vector<BestMatch>* out) const;
  std::vector<BestMatch> MatchAll(const SeriesContext& series) const;

  /// MatchAll with per-pattern initial best-so-fars (`seeds[i]` in
  /// distance space, +inf = unseeded): bit-identical to calling the
  /// cutoff-seeded `BatchedBestMatch(pattern(i), series, seeds[i])` per
  /// pattern — slots whose scan never beats the seed get the unfound
  /// sentinel. `seeds` must have size() entries.
  void MatchAllSeeded(const SeriesContext& series, MatchScratch* scratch,
                      const std::vector<double>& seeds,
                      std::vector<BestMatch>* out) const;

  /// Batched existence test over every pattern at once: each decision is
  /// identical to `BatchedMatchBelow(pattern(i), series, tau)`, but the
  /// series is swept window-major through the SoA store, stopping each
  /// pattern at its first sub-tau window. With `below == nullptr` the
  /// call returns at the first sub-tau window of any pattern; otherwise
  /// `below` gets one 0/1 flag per pattern. Returns true iff any
  /// pattern matched below `tau`.
  bool AnyBelow(const SeriesContext& series, MatchScratch* scratch,
                double tau, std::vector<std::uint8_t>* below = nullptr) const;

  /// The lazily built SoA store (bench/introspection hook; builds it if
  /// no MatchAll has run yet).
  const PatternStore& store() const;

 private:
  PatternStore& EnsureStore() const;

  std::vector<PatternContext> patterns_;
  // Lazily (re)built from patterns_; guarded so concurrent MatchAll
  // calls racing on the first build stay safe.
  mutable std::mutex store_mutex_;
  mutable std::unique_ptr<PatternStore> store_;
};

}  // namespace rpm::distance

#endif  // RPM_DISTANCE_MATCHER_H_
