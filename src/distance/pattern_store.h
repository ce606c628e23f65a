// Length-bucketed structure-of-arrays pattern store: the storage layout
// behind BatchMatcher::MatchAll and the transform hot path, and the home
// of the only best-match scan kernels in the library.
//
// Patterns are grouped into *buckets* by exact length; for each bucket
// the scan walks the series once, computes each window block's moments a
// single time, and streams them against every pattern in the bucket:
//
//   * slab layout — all pattern values live in one 64-byte-aligned
//     arena, one contiguous zero-padded row per pattern (row stride
//     rounded up to 8 doubles, so every row starts on a cache line).
//     The padding lanes are never read by the dot kernels (which stop at
//     the true length); they exist so rows stay aligned.
//   * per-bucket SoA metadata — first/last values, value sums and
//     squared sums, one entry per pattern, contiguous — the inputs of
//     the endpoint/sigma lower-bound cascade.
//   * window-major kernels per ISA tier (scalar / AVX2 / AVX-512 under
//     the runtime dispatcher, see isa_dispatch.h) — the window moments
//     and the (window - mu) endpoint terms are computed once per block
//     and shared by the whole bucket; each pattern then pays only its
//     own lower-bound test, and dot products run only for windows that
//     survive it.
//
// The one-pattern calls (BatchedBestMatch, BatchedMatchBelow,
// FindBestMatch) run the same kernels as a count = 1 bucket over the
// PatternContext's own row and sums (MatchOne / BelowOne): no arena
// copy, no allocation, and no second scan body.
//
// Bit-identity: the vector kernels apply exactly the scalar operations
// per lane (explicit mul/add/sub/sqrt, never FMA), prune with the
// block-start best (at least as permissive as the scalar loop's running
// threshold), and re-gate every surviving lane with the scalar rule, in
// window order. Every tier therefore reproduces the scalar body bit for
// bit — MatchAll, MatchAllSeeded, AnyBelow and the one-pattern calls
// alike — which the golden tier-sweep tests assert exactly.

#ifndef RPM_DISTANCE_PATTERN_STORE_H_
#define RPM_DISTANCE_PATTERN_STORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "distance/euclidean.h"
#include "distance/matcher.h"
#include "ts/series.h"

namespace rpm::distance {

class PatternStore {
 public:
  PatternStore() = default;

  /// Builds the bucketed slabs from `patterns` (values are copied into
  /// the arena; `patterns` need not outlive the store). Patterns must
  /// already be z-normalized — the same invariant PatternContext and
  /// FindBestMatch assume.
  explicit PatternStore(const std::vector<ts::Series>& patterns);

  /// Rebuilds from pattern contexts (shares the build path; used by
  /// BatchMatcher, whose incremental Add keeps contexts as the source of
  /// truth and rebuilds the store lazily).
  void Build(const std::vector<PatternContext>& patterns);

  std::size_t size() const { return num_patterns_; }
  bool empty() const { return num_patterns_ == 0; }

  /// Best match of every pattern against `series`, in the original
  /// pattern order (the store's bucket permutation is internal).
  /// Patterns longer than the series — and empty patterns — yield the
  /// explicit unfound sentinel at their slot, exactly like
  /// BatchedBestMatch. `out` is resized to size(). Returns the number of
  /// buckets actually scanned (length fits the series), for the
  /// rpm_matcher_bucket_scans_total counter.
  std::size_t MatchAll(const SeriesContext& series, MatchScratch* scratch,
                       std::vector<BestMatch>* out) const;

  /// MatchAll with a per-pattern initial best-so-far: pattern i's scan
  /// starts from `seeds[i]` (distance space, +inf = unseeded), so
  /// windows that cannot beat the seed are pruned by the endpoint lower
  /// bound exactly as in the cutoff-seeded one-pattern scan. Slots whose
  /// scan never improves on the seed yield the unfound sentinel —
  /// bit-identical to `BatchedBestMatch(pattern, series, seeds[i])` per
  /// pattern, on every ISA tier. `seeds` must have size() entries, in
  /// the original (caller) pattern order. Returns buckets scanned.
  std::size_t MatchAllSeeded(const SeriesContext& series,
                             MatchScratch* scratch,
                             const std::vector<double>& seeds,
                             std::vector<BestMatch>* out) const;

  /// First-hit existence scan: decides, for every pattern, whether some
  /// window of `series` matches it strictly below `tau` — each decision
  /// identical to `BatchedMatchBelow(pattern, series, tau)` (the
  /// pre-hit thresholds of that first-improvement scan are all
  /// seed-derived, and "some window passes both gates" does not depend
  /// on sweep order). A pattern's bucket sweep stops at its first
  /// sub-tau window; with `below == nullptr` the whole call returns at
  /// the first sub-tau window of any pattern. Returns true iff any
  /// pattern matched below `tau`; when `below` is non-null it is
  /// resized to size() and gets one 0/1 flag per pattern in original
  /// order (empty or too-long patterns decide false, like the
  /// one-pattern scan).
  bool AnyBelow(const SeriesContext& series, MatchScratch* scratch,
                double tau,
                std::vector<std::uint8_t>* below = nullptr) const;

  /// One-pattern scans: the bucket kernels with count = 1, run over the
  /// context's own row and sums (no store is built, nothing is
  /// allocated). MatchOne is the best match of `pattern` in `series`
  /// that beats `cutoff` (distance space, +inf = unseeded; the unfound
  /// sentinel when none does, or when the pattern is empty or longer
  /// than the series). BelowOne decides `MatchOne(...).distance <
  /// cutoff`, stopping at the first window that proves it. Both seed the
  /// scan exactly as MatchAllSeeded and AnyBelow seed each slot, so the
  /// per-slot results of those calls are bit-identical to these.
  static BestMatch MatchOne(const PatternContext& pattern,
                            const SeriesContext& series, double cutoff);
  static bool BelowOne(const PatternContext& pattern,
                       const SeriesContext& series, double cutoff);

  /// One bucket's summary, for benchmarks and introspection.
  struct BucketInfo {
    std::size_t length = 0;       ///< exact pattern length of the bucket
    std::size_t padded = 0;       ///< slab row stride (multiple of 8)
    std::size_t patterns = 0;     ///< patterns in the bucket
  };
  std::size_t num_buckets() const { return buckets_.size(); }
  BucketInfo bucket_info(std::size_t b) const;

  /// Scans only bucket `b`, writing one BestMatch per bucket pattern
  /// into `out[0 .. patterns)`, in bucket-internal order. Benchmark
  /// hook: per-bucket timing rows in BENCH_kernels.json come from here.
  void MatchBucket(std::size_t b, const SeriesContext& series,
                   BestMatch* out) const;

 private:
  struct Bucket {
    std::size_t length = 0;   ///< exact pattern length (n)
    std::size_t padded = 0;   ///< row stride in doubles (n rounded to 8)
    std::size_t first = 0;    ///< first pattern slot (store order)
    std::size_t count = 0;    ///< patterns in the bucket
    std::size_t slab = 0;     ///< arena offset of the first row
    double inv_n = 0.0;       ///< 1 / length
  };

  void BuildFromViews(const std::vector<ts::SeriesView>& patterns);
  const double* Row(const Bucket& bucket, std::size_t i) const {
    return arena_.get() + bucket.slab + i * bucket.padded;
  }
  // Shared bucket loop behind MatchAll (seeds == nullptr) and
  // MatchAllSeeded.
  std::size_t MatchAllImpl(const SeriesContext& series,
                           MatchScratch* scratch,
                           const std::vector<double>* seeds,
                           std::vector<BestMatch>* out) const;

  // One aligned arena for every slab row (64-byte aligned rows).
  std::unique_ptr<double[], void (*)(double*)> arena_{nullptr, nullptr};
  std::vector<Bucket> buckets_;            // ascending by length
  // Pattern metadata in store order (bucket-major), SoA.
  std::vector<double> first_;              // pattern's first value
  std::vector<double> last_;               // pattern's last value
  std::vector<double> sum_;                // sum of values
  std::vector<double> sum_sq_;             // sum of squared values
  std::vector<std::uint32_t> orig_index_;  // store slot -> caller index
  std::size_t num_patterns_ = 0;
  std::size_t num_empty_ = 0;              // empty patterns (sentinel slots)
};

}  // namespace rpm::distance

#endif  // RPM_DISTANCE_PATTERN_STORE_H_
