#include "sax/sax.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <stdexcept>

#include "ts/znorm.h"

namespace rpm::sax {
namespace {

// Acklam's rational approximation to the inverse normal CDF; relative
// error < 1.15e-9, far below what symbol binning needs.
double InverseNormalCdf(double p) {
  static constexpr std::array<double, 6> a = {
      -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr std::array<double, 5> b = {
      -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01};
  static constexpr std::array<double, 6> c = {
      -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00};
  static constexpr std::array<double, 4> d = {
      7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  constexpr double p_high = 1.0 - p_low;
  if (p <= 0.0 || p >= 1.0) {
    throw std::invalid_argument("InverseNormalCdf: p must be in (0,1)");
  }
  double q, r;
  if (p < p_low) {
    q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p <= p_high) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r +
            1.0);
  }
  q = std::sqrt(-2.0 * std::log(1.0 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
}

}  // namespace

const std::vector<double>& GaussianBreakpoints(int alphabet) {
  if (alphabet < kMinAlphabet || alphabet > kMaxAlphabet) {
    throw std::invalid_argument("SAX alphabet size must be in [2, 26], got " +
                                std::to_string(alphabet));
  }
  // One fixed slot per legal alphabet size, initialized once: after the
  // first call for a size, lookups are a lock-free array index (callers
  // like the symbol-binning loops hit this once per word, so a mutex +
  // map here used to show up in profiles).
  static std::array<std::vector<double>, kMaxAlphabet - kMinAlphabet + 1>
      cache;
  static std::array<std::once_flag, kMaxAlphabet - kMinAlphabet + 1> once;
  const auto slot = static_cast<std::size_t>(alphabet - kMinAlphabet);
  std::call_once(once[slot], [&] {
    std::vector<double> bps(static_cast<std::size_t>(alphabet) - 1);
    for (int i = 1; i < alphabet; ++i) {
      bps[static_cast<std::size_t>(i) - 1] =
          InverseNormalCdf(static_cast<double>(i) / alphabet);
    }
    cache[slot] = std::move(bps);
  });
  return cache[slot];
}

ts::Series Paa(ts::SeriesView values, std::size_t segments) {
  ts::Series out(segments, 0.0);
  const std::size_t n = values.size();
  if (n == 0 || segments == 0) return out;
  if (segments >= n) {
    // Upsample: each output point takes the covering input point.
    for (std::size_t i = 0; i < segments; ++i) {
      out[i] = values[i * n / segments];
    }
    return out;
  }
  // Fractional boundaries: input point j contributes to output segment(s)
  // proportionally to overlap, so sums are exact for any n/segments.
  std::vector<double> weight(segments, 0.0);
  const double seg_width = static_cast<double>(n) / segments;
  for (std::size_t j = 0; j < n; ++j) {
    const double lo = static_cast<double>(j);
    const double hi = lo + 1.0;
    auto first = static_cast<std::size_t>(lo / seg_width);
    first = std::min(first, segments - 1);
    for (std::size_t s = first; s < segments; ++s) {
      const double seg_lo = s * seg_width;
      const double seg_hi = seg_lo + seg_width;
      const double overlap =
          std::min(hi, seg_hi) - std::max(lo, seg_lo);
      if (overlap <= 0.0) break;
      out[s] += values[j] * overlap;
      weight[s] += overlap;
    }
  }
  for (std::size_t s = 0; s < segments; ++s) {
    if (weight[s] > 0.0) out[s] /= weight[s];
  }
  return out;
}

namespace {

// Symbol binning against an already-fetched breakpoint table; the loops
// below hoist the table fetch out of their per-value iterations.
inline char SymbolFromBreakpoints(double value,
                                  const std::vector<double>& bps) {
  const auto it = std::upper_bound(bps.begin(), bps.end(), value);
  return static_cast<char>('a' + (it - bps.begin()));
}

}  // namespace

char Symbol(double value, int alphabet) {
  return SymbolFromBreakpoints(value, GaussianBreakpoints(alphabet));
}

std::string SaxWord(ts::SeriesView znormed, std::size_t paa_size,
                    int alphabet) {
  const ts::Series paa = Paa(znormed, paa_size);
  const auto& bps = GaussianBreakpoints(alphabet);
  std::string word(paa_size, 'a');
  for (std::size_t i = 0; i < paa_size; ++i) {
    word[i] = SymbolFromBreakpoints(paa[i], bps);
  }
  return word;
}

std::vector<SaxRecord> DiscretizeSlidingWindow(ts::SeriesView series,
                                               const SaxOptions& options) {
  std::vector<SaxRecord> out;
  if (options.window == 0 || series.size() < options.window) return out;
  const std::size_t count = series.size() - options.window + 1;
  out.reserve(count);
  ts::Series buf;
  for (std::size_t pos = 0; pos < count; ++pos) {
    ts::SeriesView window = series.subspan(pos, options.window);
    std::string word;
    if (options.znormalize) {
      buf.assign(window.begin(), window.end());
      ts::ZNormalizeInPlace(buf);
      word = SaxWord(buf, options.paa_size, options.alphabet);
    } else {
      word = SaxWord(window, options.paa_size, options.alphabet);
    }
    if (options.numerosity_reduction && !out.empty() &&
        out.back().word == word) {
      continue;  // Record only the first of a run of identical words.
    }
    out.push_back(SaxRecord{std::move(word), pos});
  }
  return out;
}

WindowMatrix SlidingWindows(ts::SeriesView series, std::size_t window,
                            bool znormalize) {
  WindowMatrix out;
  out.window = window;
  if (window == 0 || series.size() < window) return out;
  out.count = series.size() - window + 1;
  out.data.resize(out.count * window);
  for (std::size_t pos = 0; pos < out.count; ++pos) {
    double* row = out.data.data() + pos * window;
    const double* src = series.data() + pos;
    if (!znormalize) {
      std::copy_n(src, window, row);
      continue;
    }
    // Same flat-window rule and accumulation order as ZNormalizeInPlace,
    // with the mean pass shared between the mean and stddev. The moments
    // are read straight off the source window (identical values in
    // identical order), so the row is written exactly once — normalized —
    // instead of copy-then-normalize-in-place.
    const ts::SeriesView view(src, window);
    const double mu = ts::Mean(view);
    const double sigma = ts::StdDev(view, mu);
    if (sigma < ts::kFlatThreshold) {
      for (std::size_t i = 0; i < window; ++i) row[i] = src[i] - mu;
      continue;
    }
    for (std::size_t i = 0; i < window; ++i) row[i] = (src[i] - mu) / sigma;
  }
  return out;
}

namespace {

// Precomputed point -> segment coverage for the fractional-boundary PAA
// (the `segments < n` branch of Paa). The overlap weights depend only on
// (n, segments), so PaaRows builds them once and shares the read-only
// plan across every window row instead of re-deriving the divisions and
// boundary tests per row. The build mirrors Paa's loop expressions
// exactly and PaaApply accumulates contributions in the same (j outer,
// segment inner) order, so the per-row output is bit-identical to Paa.
struct PaaPlan {
  std::vector<std::size_t> first;    // per point: first covered segment
  std::vector<std::size_t> count;    // per point: covered segment count
  std::vector<std::size_t> offset;   // per point: start into `overlap`
  std::vector<double> overlap;       // concatenated coverage weights
  std::vector<double> weight;        // per segment: total coverage
};

PaaPlan BuildPaaPlan(std::size_t n, std::size_t segments) {
  PaaPlan plan;
  plan.first.resize(n);
  plan.count.resize(n);
  plan.offset.resize(n);
  plan.weight.assign(segments, 0.0);
  const double seg_width = static_cast<double>(n) / segments;
  for (std::size_t j = 0; j < n; ++j) {
    const double lo = static_cast<double>(j);
    const double hi = lo + 1.0;
    auto first = static_cast<std::size_t>(lo / seg_width);
    first = std::min(first, segments - 1);
    plan.first[j] = first;
    plan.offset[j] = plan.overlap.size();
    std::size_t covered = 0;
    for (std::size_t s = first; s < segments; ++s) {
      const double seg_lo = s * seg_width;
      const double seg_hi = seg_lo + seg_width;
      const double overlap = std::min(hi, seg_hi) - std::max(lo, seg_lo);
      if (overlap <= 0.0) break;
      plan.overlap.push_back(overlap);
      plan.weight[s] += overlap;
      ++covered;
    }
    plan.count[j] = covered;
  }
  return plan;
}

void PaaApply(ts::SeriesView values, std::size_t segments,
              const PaaPlan& plan, double* out) {
  std::fill_n(out, segments, 0.0);
  for (std::size_t j = 0; j < values.size(); ++j) {
    const double v = values[j];
    const double* ov = plan.overlap.data() + plan.offset[j];
    std::size_t s = plan.first[j];
    for (std::size_t c = 0; c < plan.count[j]; ++c, ++s) {
      out[s] += v * ov[c];
    }
  }
  for (std::size_t s = 0; s < segments; ++s) {
    if (plan.weight[s] > 0.0) out[s] /= plan.weight[s];
  }
}

}  // namespace

PaaMatrix PaaRows(const WindowMatrix& windows, std::size_t paa_size) {
  PaaMatrix out;
  out.paa_size = paa_size;
  out.count = windows.count;
  out.data.resize(out.count * paa_size);  // Value-initialized to 0.0.
  const std::size_t n = windows.window;
  if (out.count == 0 || paa_size == 0 || n == 0) return out;
  if (paa_size >= n) {
    // Upsample branch of Paa: each output point takes the covering input
    // point; nothing to precompute.
    for (std::size_t i = 0; i < out.count; ++i) {
      const ts::SeriesView row = windows.Row(i);
      double* dst = out.data.data() + i * paa_size;
      for (std::size_t s = 0; s < paa_size; ++s) {
        dst[s] = row[s * n / paa_size];
      }
    }
    return out;
  }
  const PaaPlan plan = BuildPaaPlan(n, paa_size);
  for (std::size_t i = 0; i < out.count; ++i) {
    PaaApply(windows.Row(i), paa_size, plan,
             out.data.data() + i * paa_size);
  }
  return out;
}

std::vector<SaxRecord> RecordsFromPaa(const PaaMatrix& paa, int alphabet,
                                      bool numerosity_reduction) {
  std::vector<SaxRecord> out;
  out.reserve(paa.count);
  const auto& bps = GaussianBreakpoints(alphabet);
  std::string word(paa.paa_size, 'a');
  for (std::size_t i = 0; i < paa.count; ++i) {
    const ts::SeriesView row = paa.Row(i);
    for (std::size_t s = 0; s < paa.paa_size; ++s) {
      word[s] = SymbolFromBreakpoints(row[s], bps);
    }
    if (numerosity_reduction && !out.empty() && out.back().word == word) {
      continue;  // Record only the first of a run of identical words.
    }
    out.push_back(SaxRecord{word, i});
  }
  return out;
}

double MinDist(const std::string& a, const std::string& b, int alphabet,
               std::size_t n) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("MinDist: words must have equal length");
  }
  if (a.empty()) return 0.0;
  const auto& bps = GaussianBreakpoints(alphabet);
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const int ia = a[i] - 'a';
    const int ib = b[i] - 'a';
    const int lo = std::min(ia, ib);
    const int hi = std::max(ia, ib);
    if (hi - lo <= 1) continue;  // Adjacent or equal symbols: cell dist 0.
    const double d = bps[static_cast<std::size_t>(hi) - 1] -
                     bps[static_cast<std::size_t>(lo)];
    acc += d * d;
  }
  const double w = static_cast<double>(a.size());
  return std::sqrt(static_cast<double>(n) / w) * std::sqrt(acc);
}

}  // namespace rpm::sax
