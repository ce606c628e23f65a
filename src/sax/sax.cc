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

PaaPlan::PaaPlan(std::size_t points, std::size_t segments)
    : points_(points), segments_(segments), upsample_(segments >= points) {
  begin_.assign(segments + 1, 0);
  weight_.assign(segments, 0.0);
  if (points == 0 || segments == 0) return;
  if (upsample_) {
    // Each output point takes the covering input point.
    terms_.resize(segments);
    for (std::size_t s = 0; s < segments; ++s) {
      terms_[s] = Term{s * points / segments, 1.0};
      begin_[s + 1] = s + 1;
    }
    return;
  }
  // Fractional boundaries: input point j covers segment s by the length
  // of their overlap. These are the direct loop's expressions, walked in
  // its order (point outer, segment inner), so every overlap and every
  // segment's weight sum come out the same bits.
  struct Cover {
    std::size_t segment;
    Term term;
  };
  std::vector<Cover> covers;
  covers.reserve(points + segments);
  const double seg_width = static_cast<double>(points) / segments;
  for (std::size_t j = 0; j < points; ++j) {
    const double lo = static_cast<double>(j);
    const double hi = lo + 1.0;
    auto first = static_cast<std::size_t>(lo / seg_width);
    first = std::min(first, segments - 1);
    for (std::size_t s = first; s < segments; ++s) {
      const double seg_lo = s * seg_width;
      const double seg_hi = seg_lo + seg_width;
      const double overlap = std::min(hi, seg_hi) - std::max(lo, seg_lo);
      if (overlap <= 0.0) break;
      covers.push_back(Cover{s, Term{j, overlap}});
      weight_[s] += overlap;
      ++begin_[s + 1];
    }
  }
  // Group by segment, keeping point order within each: a segment then
  // receives its additions in the order the direct loop made them.
  for (std::size_t s = 0; s < segments; ++s) begin_[s + 1] += begin_[s];
  terms_.resize(covers.size());
  std::vector<std::size_t> fill(begin_.begin(), begin_.end() - 1);
  for (const Cover& c : covers) terms_[fill[c.segment]++] = c.term;
}

void PaaPlan::Apply(const double* values, double* out) const {
  if (upsample_) {
    for (std::size_t s = 0; s < segments_; ++s) {
      out[s] = points_ == 0 ? 0.0 : values[terms_[s].point];
    }
    return;
  }
  for (std::size_t s = 0; s < segments_; ++s) {
    double acc = 0.0;
    for (std::size_t t = begin_[s]; t < begin_[s + 1]; ++t) {
      acc += values[terms_[t].point] * terms_[t].overlap;
    }
    out[s] = weight_[s] > 0.0 ? acc / weight_[s] : acc;
  }
}

ts::Series Paa(ts::SeriesView values, std::size_t segments) {
  ts::Series out(segments, 0.0);
  if (values.empty() || segments == 0) return out;
  PaaPlan(values.size(), segments).Apply(values.data(), out.data());
  return out;
}

namespace {

// Symbol binning against an already-fetched breakpoint table; the loops
// below hoist the table fetch out of their per-value iterations. The
// region index is std::upper_bound's over the sorted table, counted
// without branches: the breakpoints `value` is not below (all of them
// for NaN, where upper_bound also returns the end).
inline char SymbolFromBreakpoints(double value,
                                  const std::vector<double>& bps) {
  int region = 0;
  for (const double b : bps) region += !(value < b);
  return static_cast<char>('a' + region);
}

// Moments of `B` consecutive windows of `w` points starting at `src`:
// mu[b] and sigma[b] of window src + b, each with ts::Mean's and
// ts::StdDev's additions in their order (so the same bits). The B
// windows' sums are independent chains, interleaved so they overlap in
// the pipeline instead of each waiting on one add latency per point.
template <std::size_t B>
void WindowMoments(const double* src, std::size_t w, double* mu,
                   double* sigma) {
  const auto n = static_cast<double>(w);
  double sum[B] = {};
  for (std::size_t i = 0; i < w; ++i) {
    for (std::size_t b = 0; b < B; ++b) sum[b] += src[b + i];
  }
  for (std::size_t b = 0; b < B; ++b) mu[b] = sum[b] / n;
  double acc[B] = {};
  for (std::size_t i = 0; i < w; ++i) {
    for (std::size_t b = 0; b < B; ++b) {
      acc[b] += (src[b + i] - mu[b]) * (src[b + i] - mu[b]);
    }
  }
  for (std::size_t b = 0; b < B; ++b) sigma[b] = std::sqrt(acc[b] / n);
}

// Windows whose moments are computed together.
constexpr std::size_t kMomentBlock = 4;

// Moments of the `count` (<= kMomentBlock) windows starting at `src`.
void BlockMoments(const double* src, std::size_t w, std::size_t count,
                  double* mu, double* sigma) {
  if (count == kMomentBlock) {
    WindowMoments<kMomentBlock>(src, w, mu, sigma);
    return;
  }
  for (std::size_t b = 0; b < count; ++b) {
    WindowMoments<1>(src + b, w, mu + b, sigma + b);
  }
}

// ts::ZNormalizeInPlace's output for the window at `src`, given its
// moments, written to `row`: flat windows are only mean-centered.
void NormalizeWindow(const double* __restrict src, std::size_t w, double mu,
                     double sigma, double* __restrict row) {
  if (sigma < ts::kFlatThreshold) {
    for (std::size_t i = 0; i < w; ++i) row[i] = src[i] - mu;
    return;
  }
  std::size_t i = 0;
  for (; i + 2 <= w; i += 2) {
    row[i] = (src[i] - mu) / sigma;
    row[i + 1] = (src[i + 1] - mu) / sigma;
  }
  for (; i < w; ++i) row[i] = (src[i] - mu) / sigma;
}

// Calls fn(pos, values) for every window position of `series`, in
// order: `values` are the window's `w` points, z-normalized into `row`
// when requested and read in place otherwise.
template <typename Fn>
void ForEachWindow(ts::SeriesView series, std::size_t w, bool znormalize,
                   double* row, Fn&& fn) {
  const std::size_t count = series.size() - w + 1;
  double mu[kMomentBlock];
  double sigma[kMomentBlock];
  for (std::size_t pos = 0; pos < count; pos += kMomentBlock) {
    const std::size_t block = std::min(kMomentBlock, count - pos);
    const double* src = series.data() + pos;
    if (!znormalize) {
      for (std::size_t b = 0; b < block; ++b) fn(pos + b, src + b);
      continue;
    }
    BlockMoments(src, w, block, mu, sigma);
    for (std::size_t b = 0; b < block; ++b) {
      NormalizeWindow(src + b, w, mu[b], sigma[b], row);
      fn(pos + b, static_cast<const double*>(row));
    }
  }
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
  const std::size_t w = options.window;
  if (w == 0 || series.size() < w) return out;
  const auto& bps = GaussianBreakpoints(options.alphabet);
  const std::size_t paa_size = options.paa_size;
  const PaaPlan plan(w, paa_size);
  ts::Series row(w);
  ts::Series paa(paa_size);
  std::string word(paa_size, 'a');
  out.reserve(series.size() - w + 1);
  ForEachWindow(
      series, w, options.znormalize, row.data(),
      [&](std::size_t pos, const double* values) {
        plan.Apply(values, paa.data());
        for (std::size_t s = 0; s < paa_size; ++s) {
          word[s] = SymbolFromBreakpoints(paa[s], bps);
        }
        // Record only the first of a run of identical words.
        if (options.numerosity_reduction && !out.empty() &&
            out.back().word == word) {
          return;
        }
        out.push_back(SaxRecord{word, pos});
      });
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
