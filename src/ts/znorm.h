// Z-normalization utilities (Section 3.2.1: SAX operates on z-normalized
// subsequences). A subsequence whose standard deviation falls below
// `kFlatThreshold` is treated as flat and only mean-centered, following the
// standard SAX practice of avoiding noise amplification on constant segments.

#ifndef RPM_TS_ZNORM_H_
#define RPM_TS_ZNORM_H_

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "ts/series.h"

namespace rpm::ts {

/// Standard deviation below which a window is considered flat.
inline constexpr double kFlatThreshold = 1e-8;

/// Mean and (flat-rule) standard deviation of a window from its value sum
/// and squared-value sum. This is the single definition of the
/// sum-to-moments recurrence: the scan kernels' prefix-sum lookups
/// (distance/pattern_store.cc) and the streaming RollingStats below derive
/// their window moments here, so the flat-window convention
/// (sigma < kFlatThreshold -> sigma = 1.0, i.e. mean-center only) cannot
/// drift between the batch and streaming paths. `inv_len` is 1/len,
/// passed in so hot loops can hoist the division out of the window scan.
inline void WindowMomentsFromSums(double sum, double sum_sq, double inv_len,
                                  double* mu, double* sigma) {
  *mu = sum * inv_len;
  const double var = std::max(0.0, sum_sq * inv_len - *mu * *mu);
  double s = std::sqrt(var);
  if (s < kFlatThreshold) s = 1.0;
  *sigma = s;
}

/// Incremental first and second moments of a sliding window over an
/// unbounded sample stream. Each arriving sample updates the running
/// sum / sum-of-squares in O(1) (`Add` while the window is filling,
/// `Slide` once it is full); every `refresh_interval` slides the caller
/// is asked (NeedsRefresh) to hand back the materialized window so the
/// accumulators are recomputed exactly, bounding floating-point drift to
/// what at most `refresh_interval` catastrophic-cancellation-free
/// add/subtract pairs can accumulate (~1e-11 over 1e6 samples of O(1)
/// magnitude; see StreamDrift tests).
class RollingStats {
 public:
  RollingStats() = default;
  /// `window` > 0; `refresh_interval` == 0 disables exact refreshes.
  RollingStats(std::size_t window, std::size_t refresh_interval)
      : window_(window),
        inv_window_(window == 0 ? 0.0 : 1.0 / static_cast<double>(window)),
        refresh_interval_(refresh_interval) {}

  /// Accumulates one sample while the window is still filling
  /// (count() < window()).
  void Add(double v) {
    sum_ += v;
    sum_sq_ += v * v;
    ++count_;
  }

  /// Steady state: `in` enters the window, `out` (the sample that left,
  /// i.e. the one `window` positions back) is retired.
  void Slide(double in, double out) {
    sum_ += in - out;
    sum_sq_ += in * in - out * out;
    ++slides_;
  }

  /// True when `refresh_interval` slides have passed since the last exact
  /// recompute — call Refresh with the current window contents.
  bool NeedsRefresh() const {
    return refresh_interval_ != 0 && slides_ >= refresh_interval_;
  }

  /// Exact recompute from the materialized current window (direct
  /// summation), resetting the drift clock.
  void Refresh(SeriesView window) {
    sum_ = 0.0;
    sum_sq_ = 0.0;
    for (const double v : window) {
      sum_ += v;
      sum_sq_ += v * v;
    }
    slides_ = 0;
  }

  /// Moments of the current (full) window via WindowMomentsFromSums.
  /// Precondition: count() >= window().
  void Moments(double* mu, double* sigma) const {
    WindowMomentsFromSums(sum_, sum_sq_, inv_window_, mu, sigma);
  }

  std::size_t window() const { return window_; }
  std::size_t count() const { return count_; }
  double sum() const { return sum_; }
  double sum_sq() const { return sum_sq_; }

 private:
  std::size_t window_ = 0;
  double inv_window_ = 0.0;
  std::size_t refresh_interval_ = 0;
  std::size_t count_ = 0;   // samples absorbed during the filling phase
  std::size_t slides_ = 0;  // slides since the last exact refresh
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

/// Arithmetic mean of `values`; 0.0 for an empty span.
double Mean(SeriesView values);

/// Population standard deviation of `values`; 0.0 for an empty span.
double StdDev(SeriesView values);

/// StdDev with the mean already known. The accumulation is identical to
/// the one-argument form, so passing `Mean(values)` gives a bit-identical
/// result while skipping the redundant mean pass — the form the
/// sliding-window discretization hot loop uses.
double StdDev(SeriesView values, double mean);

/// Returns a z-normalized copy: (x - mean) / stddev.
/// Flat inputs (stddev < kFlatThreshold) are mean-centered only.
Series ZNormalize(SeriesView values);

/// In-place z-normalization with the same flat-input rule.
void ZNormalizeInPlace(Series& values);

/// Z-normalizes every instance of `data` in place.
void ZNormalizeDataset(Dataset& data);

}  // namespace rpm::ts

#endif  // RPM_TS_ZNORM_H_
