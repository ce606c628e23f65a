#include "distance/euclidean.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "distance/matcher.h"
#include "ts/znorm.h"

namespace rpm::distance {

double SquaredEuclidean(ts::SeriesView a, ts::SeriesView b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double Euclidean(ts::SeriesView a, ts::SeriesView b) {
  return std::sqrt(SquaredEuclidean(a, b));
}

double SquaredEuclideanEarlyAbandon(ts::SeriesView a, ts::SeriesView b,
                                    double cutoff) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
    if (acc >= cutoff) return acc;
  }
  return acc;
}

double NormalizedEuclidean(ts::SeriesView a, ts::SeriesView b) {
  if (a.empty()) return 0.0;
  return std::sqrt(SquaredEuclidean(a, b) /
                   static_cast<double>(a.size()));
}

double NormalizedEuclideanBounded(ts::SeriesView a, ts::SeriesView b,
                                  double cutoff) {
  if (a.empty()) return 0.0;
  const double n = static_cast<double>(a.size());
  double acc = 0.0;
  std::size_t i = 0;
  for (std::size_t block = 16; i < a.size();) {
    const std::size_t stop = std::min(a.size(), i + block);
    for (; i < stop; ++i) {
      const double d = a[i] - b[i];
      acc += d * d;
    }
    // The partial sum is a floating-point-monotone lower bound of the
    // final sum, and sqrt/divide preserve ordering, so this check can
    // only fire when the unbounded result would be >= cutoff.
    if (std::sqrt(acc / n) >= cutoff) {
      return std::numeric_limits<double>::infinity();
    }
  }
  return std::sqrt(acc / n);
}

BestMatch FindBestMatch(ts::SeriesView pattern, ts::SeriesView haystack) {
  // The contexts are rebuilt per call, which is exactly the redundant
  // work BatchMatcher amortizes — but the scan is the same one-pattern
  // bucket scan, so per-call and batched results are bit-identical.
  const std::size_t n = pattern.size();
  if (n == 0 || haystack.size() < n) return BestMatch{};
  const PatternContext pattern_ctx(pattern);
  const SeriesContext series_ctx(haystack);
  return BatchedBestMatch(pattern_ctx, series_ctx);
}

BestMatch FindBestMatchNaive(ts::SeriesView pattern,
                             ts::SeriesView haystack) {
  BestMatch best;
  const std::size_t n = pattern.size();
  if (n == 0 || haystack.size() < n) return best;

  // UCR-suite-style reordered early abandoning: accumulate the squared
  // distance at the pattern's largest-|z| points first — those contribute
  // the biggest terms against a z-normalized window, so the running sum
  // crosses the best-so-far threshold sooner.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::abs(pattern[a]) > std::abs(pattern[b]);
  });

  // Rolling sums let each window's mean/stddev be computed in O(1).
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += haystack[i];
    sum_sq += haystack[i] * haystack[i];
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  double best_sq = std::numeric_limits<double>::infinity();

  for (std::size_t pos = 0; pos + n <= haystack.size(); ++pos) {
    const double mu = sum * inv_n;
    const double var = std::max(0.0, sum_sq * inv_n - mu * mu);
    const double sigma = std::sqrt(var);
    const double inv_sigma =
        sigma < ts::kFlatThreshold ? 1.0 : 1.0 / sigma;
    // Early-abandoning z-normalized squared distance for this window.
    double acc = 0.0;
    for (std::size_t k = 0; k < n && acc < best_sq; ++k) {
      const std::size_t i = order[k];
      const double d = (haystack[pos + i] - mu) * inv_sigma - pattern[i];
      acc += d * d;
    }
    if (acc < best_sq) {
      best_sq = acc;
      best.position = pos;
    }
    if (pos + n < haystack.size()) {
      sum += haystack[pos + n] - haystack[pos];
      sum_sq += haystack[pos + n] * haystack[pos + n] -
                haystack[pos] * haystack[pos];
    }
  }
  best.distance = std::sqrt(best_sq * inv_n);
  return best;
}

double BestMatchDistance(ts::SeriesView pattern, ts::SeriesView haystack) {
  return FindBestMatch(pattern, haystack).distance;
}

}  // namespace rpm::distance
