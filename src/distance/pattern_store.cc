#include "distance/pattern_store.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <utility>

#include "distance/isa_dispatch.h"
#include "distance/kernel_common.h"
#include "ts/znorm.h"

namespace rpm::distance {
namespace {

constexpr std::size_t kNpos = BestMatch::npos;

// Row stride: length rounded up to 8 doubles so every slab row starts on
// a 64-byte boundary.
std::size_t PaddedLength(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

// A distance-space cutoff as a seed in the scans' length-scaled squared
// space: distance < cutoff iff n * distance^2 < n * cutoff^2, so only
// provably-not-better windows are skipped. Infinities pass through
// sign-preserved (+inf = unseeded scan, -inf = nothing qualifies).
double SeedSq(double cutoff, std::size_t n) {
  return std::isinf(cutoff) ? cutoff
                            : cutoff * cutoff * static_cast<double>(n);
}

// Everything one scan needs, flattened so the per-ISA kernels share a
// single signature. The inputs describe `count` same-length pattern
// rows against one series (filled by ScanArgs); the state belongs to the
// scan kind:
//   * best match — `best_sq` / `best_pos` are the per-pattern running
//     best (scan squared space / window position), `count` entries
//     each, updated in place;
//   * existence — the threshold seed `seed_sq` (tau^2 * n) is uniform
//     and never improves, so a pattern is simply decided the first time
//     a window passes both gates. `hit` is one 0/1 flag per pattern;
//     `*remaining` counts still-undecided patterns so the sweep stops
//     once the whole bucket is decided; `first_hit` makes the sweep stop
//     at the first hit of ANY pattern (aggregate existence mode).
struct BucketScan {
  const double* hay;
  const double* prefix;
  const double* prefix_sq;
  std::size_t m;  // series length
  std::size_t n;  // pattern length (>= 2 inside the kernels, see RunScan)
  double inv_n;
  const double* slab;  // first pattern row
  std::size_t stride;  // row stride in doubles
  std::size_t count;   // patterns in the bucket
  const double* p_first;
  const double* p_last;
  const double* p_sum;
  const double* p_sum_sq;
  internal::DotFn dot;  // DotBase unless RunScan picks the tier's vector dot

  double* best_sq = nullptr;
  std::size_t* best_pos = nullptr;

  double seed_sq = 0.0;
  std::uint8_t* hit = nullptr;
  std::size_t* remaining = nullptr;
  bool first_hit = false;
};

// The one place scan inputs are filled: `count` rows of length n >= 1,
// `stride` doubles apart from `slab`, with one first/last value and one
// sum / squared sum per row — a store bucket, or a single
// PatternContext as a count = 1 bucket over its own row and sums.
BucketScan ScanArgs(const SeriesContext& series, std::size_t n,
                    const double* slab, std::size_t stride,
                    std::size_t count, const double* first,
                    const double* last, const double* sum,
                    const double* sum_sq) {
  BucketScan a;
  a.hay = series.data().data();
  a.prefix = series.PrefixData();
  a.prefix_sq = series.PrefixSqData();
  a.m = series.size();
  a.n = n;
  a.inv_n = 1.0 / static_cast<double>(n);
  a.slab = slab;
  a.stride = stride;
  a.count = count;
  a.p_first = first;
  a.p_last = last;
  a.p_sum = sum;
  a.p_sum_sq = sum_sq;
  a.dot = &internal::DotBase;
  return a;
}

// Scalar bucket kernel, starting at window `pos`: the bit-exact
// reference every vector tier is swept against, and the tail handler
// for their trailing < lane-width positions. Window-major: each
// window's moments and (window - mu) endpoint terms are computed once
// and shared by every pattern in the bucket; the per-pattern gates are
// applied in window order, so each pattern's sequence of best updates
// does not depend on which other patterns share its bucket.
void ScanBucketScalarFrom(const BucketScan& a, std::size_t pos) {
  const double nd = static_cast<double>(a.n);
  for (; pos + a.n <= a.m; ++pos) {
    const double sum = a.prefix[pos + a.n] - a.prefix[pos];
    const double sum_sq = a.prefix_sq[pos + a.n] - a.prefix_sq[pos];
    // Shared moments recurrence, including the flat-window rule (sigma
    // below the threshold means mean-center only).
    double mu = 0.0;
    double sigma = 0.0;
    ts::WindowMomentsFromSums(sum, sum_sq, a.inv_n, &mu, &sigma);
    // All comparisons happen in sigma-scaled space (everything
    // multiplied by sigma^2), which keeps the window free of divisions;
    // the one division below runs only when a window improves the best.
    const double sig2 = sigma * sigma;
    // Shared endpoint terms: (hay[pos] - mu) rounds identically whether
    // hoisted here or recomputed per pattern.
    const double w_f = a.hay[pos] - mu;
    const double w_l = a.hay[pos + a.n - 1] - mu;
    for (std::size_t p = 0; p < a.count; ++p) {
      const double thresh = a.best_sq[p] * sig2;
      // Lower-bound cascade: the first/last-point terms alone bound the
      // window's distance from below (all terms of the squared sum are
      // non-negative), so pruned windows never touch the other n-2
      // points.
      const double d_first = w_f - a.p_first[p] * sigma;
      double lb = d_first * d_first;
      const double d_last = w_l - a.p_last[p] * sigma;
      lb += d_last * d_last;
      if (lb >= thresh) continue;
      // Surviving windows: closed-form z-normalized distance. Expanding
      //   sigma^2 * sum((x - mu)/sigma - p)^2
      // gives  csq - 2*sigma*(dot - mu*sum_p) + psq*sigma^2  with
      // csq = sum_sq - n*mu^2, so the only O(n) work is one dot product
      // of raw window values against the pattern row.
      const double dot = a.dot(a.hay + pos, a.slab + p * a.stride, a.n);
      const double csq = std::max(0.0, sum_sq - nd * mu * mu);
      const double d2s = std::max(
          0.0, csq - 2.0 * sigma * (dot - mu * a.p_sum[p]) +
                   a.p_sum_sq[p] * sig2);
      if (d2s < thresh) {
        a.best_sq[p] = d2s / sig2;
        a.best_pos[p] = pos;
      }
    }
  }
}

// Scalar existence kernel, starting at window `pos`. Decision-identical
// to a best-match scan seeded with `seed_sq` that stops at its first
// improvement: every threshold that scan ever tests is seed-derived —
// exactly `seed_sq * sig2` here — and "some window passes both gates"
// does not depend on sweep order, so deciding window-major decides
// identically.
void ScanBucketBelowScalarFrom(const BucketScan& a, std::size_t pos) {
  const double nd = static_cast<double>(a.n);
  for (; pos + a.n <= a.m && *a.remaining > 0; ++pos) {
    const double sum = a.prefix[pos + a.n] - a.prefix[pos];
    const double sum_sq = a.prefix_sq[pos + a.n] - a.prefix_sq[pos];
    double mu = 0.0;
    double sigma = 0.0;
    ts::WindowMomentsFromSums(sum, sum_sq, a.inv_n, &mu, &sigma);
    const double sig2 = sigma * sigma;
    // The whole bucket shares one threshold: the seed never improves,
    // so it hoists out of the pattern loop.
    const double thresh = a.seed_sq * sig2;
    const double w_f = a.hay[pos] - mu;
    const double w_l = a.hay[pos + a.n - 1] - mu;
    for (std::size_t p = 0; p < a.count; ++p) {
      if (a.hit[p] != 0) continue;
      const double d_first = w_f - a.p_first[p] * sigma;
      double lb = d_first * d_first;
      const double d_last = w_l - a.p_last[p] * sigma;
      lb += d_last * d_last;
      if (lb >= thresh) continue;
      const double dot = a.dot(a.hay + pos, a.slab + p * a.stride, a.n);
      const double csq = std::max(0.0, sum_sq - nd * mu * mu);
      const double d2s = std::max(
          0.0, csq - 2.0 * sigma * (dot - mu * a.p_sum[p]) +
                   a.p_sum_sq[p] * sig2);
      if (d2s < thresh) {
        a.hit[p] = 1;
        if (a.first_hit) {
          *a.remaining = 0;
          return;
        }
        if (--*a.remaining == 0) return;
      }
    }
  }
}

#if defined(RPM_DOT_AVX2_DISPATCH)

// AVX2 kernels: four window positions per iteration. The block's
// moments, endpoint terms and csq are computed once per iteration
// (per-lane arithmetic identical to the scalar body, explicit
// mul/add/sub/sqrt, never FMA) and reused by every pattern. The dot
// products are vectorized ACROSS the four windows: element i of windows
// pos..pos+3 is the contiguous load hay[pos+i .. pos+i+3], multiplied by
// the broadcast pattern value row[i], accumulated into partial-sum
// vector v(i mod 4) — each lane therefore replays the canonical
// four-partial accumulation order (kernel_common.h) element for element,
// so the per-lane dot is bit-identical to DotBase on that window.

// Per-block window state shared by every pattern in the bucket, with
// the scalar body's expression trees (see ScanBucketScalarFrom).
struct Block256 {
  __m256d vmu;
  __m256d vsigma;
  __m256d vsig2;
  __m256d vw_f;
  __m256d vw_l;
  __m256d vcsq;
};

__attribute__((target("avx2"), always_inline)) inline Block256 LoadBlock256(
    const BucketScan& a, std::size_t pos, __m256d vinv_n, __m256d vnd) {
  const __m256d vzero = _mm256_setzero_pd();
  const std::size_t n = a.n;
  Block256 b;
  const __m256d vsum = _mm256_sub_pd(_mm256_loadu_pd(a.prefix + pos + n),
                                     _mm256_loadu_pd(a.prefix + pos));
  const __m256d vsum_sq =
      _mm256_sub_pd(_mm256_loadu_pd(a.prefix_sq + pos + n),
                    _mm256_loadu_pd(a.prefix_sq + pos));
  b.vmu = _mm256_mul_pd(vsum, vinv_n);
  const __m256d vvar = _mm256_max_pd(
      vzero, _mm256_sub_pd(_mm256_mul_pd(vsum_sq, vinv_n),
                           _mm256_mul_pd(b.vmu, b.vmu)));
  const __m256d vsigma = _mm256_sqrt_pd(vvar);
  // Flat-window rule per lane: sigma < threshold -> 1.0.
  b.vsigma = _mm256_blendv_pd(
      vsigma, _mm256_set1_pd(1.0),
      _mm256_cmp_pd(vsigma, _mm256_set1_pd(ts::kFlatThreshold), _CMP_LT_OQ));
  b.vsig2 = _mm256_mul_pd(b.vsigma, b.vsigma);
  b.vw_f = _mm256_sub_pd(_mm256_loadu_pd(a.hay + pos), b.vmu);
  b.vw_l = _mm256_sub_pd(_mm256_loadu_pd(a.hay + pos + n - 1), b.vmu);
  // csq = max(0, sum_sq - nd*mu*mu): pattern-independent, hoisted.
  b.vcsq = _mm256_max_pd(
      vzero, _mm256_sub_pd(vsum_sq,
                           _mm256_mul_pd(_mm256_mul_pd(vnd, b.vmu), b.vmu)));
  return b;
}

// Endpoint lower bound for one pattern over a block.
__attribute__((target("avx2"), always_inline)) inline __m256d LowerBound256(
    const Block256& b, double p_first, double p_last) {
  const __m256d vd_f = _mm256_sub_pd(
      b.vw_f, _mm256_mul_pd(_mm256_set1_pd(p_first), b.vsigma));
  const __m256d vlb = _mm256_mul_pd(vd_f, vd_f);
  const __m256d vd_l = _mm256_sub_pd(
      b.vw_l, _mm256_mul_pd(_mm256_set1_pd(p_last), b.vsigma));
  return _mm256_add_pd(vlb, _mm256_mul_pd(vd_l, vd_l));
}

// The four windows' dots against `row`, one per lane: accumulator k
// takes the i % 4 == k elements in index order, tail elements fold into
// v0, and the partials combine as (s0+s1)+(s2+s3) — the pinned order.
__attribute__((target("avx2"), always_inline)) inline __m256d Dot256(
    const double* hb, const double* row, std::size_t n) {
  __m256d v0 = _mm256_setzero_pd();
  __m256d v1 = _mm256_setzero_pd();
  __m256d v2 = _mm256_setzero_pd();
  __m256d v3 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    v0 = _mm256_add_pd(
        v0, _mm256_mul_pd(_mm256_loadu_pd(hb + i), _mm256_set1_pd(row[i])));
    v1 = _mm256_add_pd(v1, _mm256_mul_pd(_mm256_loadu_pd(hb + i + 1),
                                         _mm256_set1_pd(row[i + 1])));
    v2 = _mm256_add_pd(v2, _mm256_mul_pd(_mm256_loadu_pd(hb + i + 2),
                                         _mm256_set1_pd(row[i + 2])));
    v3 = _mm256_add_pd(v3, _mm256_mul_pd(_mm256_loadu_pd(hb + i + 3),
                                         _mm256_set1_pd(row[i + 3])));
  }
  for (; i < n; ++i) {
    v0 = _mm256_add_pd(
        v0, _mm256_mul_pd(_mm256_loadu_pd(hb + i), _mm256_set1_pd(row[i])));
  }
  return _mm256_add_pd(_mm256_add_pd(v0, v1), _mm256_add_pd(v2, v3));
}

// d2s = max(0, csq - 2*sigma*(dot - mu*p_sum) + p_sum_sq*sig2), the
// scalar body's expression tree per lane.
__attribute__((target("avx2"), always_inline)) inline __m256d Distances256(
    const Block256& b, __m256d vdot, double p_sum, double p_sum_sq) {
  const __m256d vcross = _mm256_mul_pd(
      _mm256_mul_pd(_mm256_set1_pd(2.0), b.vsigma),
      _mm256_sub_pd(vdot, _mm256_mul_pd(b.vmu, _mm256_set1_pd(p_sum))));
  return _mm256_max_pd(
      _mm256_setzero_pd(),
      _mm256_add_pd(_mm256_sub_pd(b.vcsq, vcross),
                    _mm256_mul_pd(_mm256_set1_pd(p_sum_sq), b.vsig2)));
}

// AVX2 best-match kernel. A dot has no side effects, so whenever any
// lane survives the block-start prune the kernel computes all four
// lanes' distances; the best-update sweep then applies the scalar
// loop's exact gates (endpoint lower bound, then d2s < thresh, both
// against the *current* best) in window order, so the per-pattern
// sequence of best updates is identical to the scalar body's.
__attribute__((target("avx2"))) void ScanBucketAvx2(const BucketScan& a) {
  const __m256d vinv_n = _mm256_set1_pd(a.inv_n);
  const __m256d vnd = _mm256_set1_pd(static_cast<double>(a.n));
  alignas(32) double sig2_l[4];
  alignas(32) double lb_l[4];
  alignas(32) double d2s_l[4];

  std::size_t pos = 0;
  for (; pos + 3 + a.n <= a.m; pos += 4) {
    const Block256 b = LoadBlock256(a, pos, vinv_n, vnd);
    for (std::size_t p = 0; p < a.count; ++p) {
      const __m256d vlb = LowerBound256(b, a.p_first[p], a.p_last[p]);
      // Block-start threshold. The best only shrinks within a block, so
      // this is an upper bound on every later threshold: an all-lanes
      // prune here means the scalar loop prunes all four windows too,
      // and a lane failing both gates here cannot update later either.
      const __m256d vthresh =
          _mm256_mul_pd(_mm256_set1_pd(a.best_sq[p]), b.vsig2);
      const __m256d vkeep = _mm256_cmp_pd(vlb, vthresh, _CMP_LT_OQ);
      if (_mm256_movemask_pd(vkeep) == 0) continue;
      const __m256d vd2s =
          Distances256(b, Dot256(a.hay + pos, a.slab + p * a.stride, a.n),
                       a.p_sum[p], a.p_sum_sq[p]);
      const int cand = _mm256_movemask_pd(
          _mm256_and_pd(vkeep, _mm256_cmp_pd(vd2s, vthresh, _CMP_LT_OQ)));
      if (cand == 0) continue;
      _mm256_store_pd(sig2_l, b.vsig2);
      _mm256_store_pd(lb_l, vlb);
      _mm256_store_pd(d2s_l, vd2s);
      for (int lane = 0; lane < 4; ++lane) {
        // The scalar loop's gates against the *current* best: skip on
        // the endpoint bound first — exactly the windows the scalar loop
        // skips — then update on d2s < thresh.
        const double thresh = a.best_sq[p] * sig2_l[lane];
        if (lb_l[lane] >= thresh) continue;
        if (d2s_l[lane] < thresh) {
          a.best_sq[p] = d2s_l[lane] / sig2_l[lane];
          a.best_pos[p] = pos + static_cast<std::size_t>(lane);
        }
      }
    }
  }
  ScanBucketScalarFrom(a, pos);  // trailing < 4 positions
}

// AVX2 existence kernel. The threshold is seed-derived and fixed for the
// whole scan, so the vector gates ARE the per-window decisions: there is
// no running best to re-gate against — any set lane in
// (lb < thresh) & (d2s < thresh) means some window decides the pattern,
// exactly as in the scalar body. There is no 512-bit variant: the
// decisions are tier-invariant because the per-lane arithmetic is, so
// AVX-512 hosts run this kernel.
__attribute__((target("avx2"))) void ScanBucketBelowAvx2(
    const BucketScan& a) {
  const __m256d vinv_n = _mm256_set1_pd(a.inv_n);
  const __m256d vnd = _mm256_set1_pd(static_cast<double>(a.n));
  const __m256d vseed = _mm256_set1_pd(a.seed_sq);

  std::size_t pos = 0;
  for (; pos + 3 + a.n <= a.m && *a.remaining > 0; pos += 4) {
    const Block256 b = LoadBlock256(a, pos, vinv_n, vnd);
    // One threshold for the whole bucket (the seed never improves).
    const __m256d vthresh = _mm256_mul_pd(vseed, b.vsig2);
    for (std::size_t p = 0; p < a.count; ++p) {
      if (a.hit[p] != 0) continue;
      const __m256d vkeep = _mm256_cmp_pd(
          LowerBound256(b, a.p_first[p], a.p_last[p]), vthresh, _CMP_LT_OQ);
      if (_mm256_movemask_pd(vkeep) == 0) continue;
      const __m256d vd2s =
          Distances256(b, Dot256(a.hay + pos, a.slab + p * a.stride, a.n),
                       a.p_sum[p], a.p_sum_sq[p]);
      const int cand = _mm256_movemask_pd(
          _mm256_and_pd(vkeep, _mm256_cmp_pd(vd2s, vthresh, _CMP_LT_OQ)));
      if (cand == 0) continue;
      a.hit[p] = 1;
      if (a.first_hit) {
        *a.remaining = 0;
        return;
      }
      if (--*a.remaining == 0) return;
    }
  }
  ScanBucketBelowScalarFrom(a, pos);  // trailing < 4 positions
}

// AVX-512 bucket kernel: sixteen window positions per iteration as two
// 8-wide blocks (A at pos, B at pos+8), each with the same across-window
// dot and re-gate discipline as the AVX2 body. Two blocks per iteration
// is a latency play: one 8-wide block gives the dot loop four dependent
// add chains — at 4-cycle vaddpd latency that caps throughput at one
// accumulate per cycle while the FP ports can retire two. Interleaving a
// second block doubles the independent chains (and shares each row[i]
// broadcast between them), saturating the adders. Per-lane arithmetic
// and the best-update sweep are identical to the 8-wide epilogue body,
// which handles the trailing 8..15 positions before the scalar tail.
//
// GCC 12's avx512fintrin.h initializes _mm512_undefined_pd() as
// `__Y = __Y`, which -Wmaybe-uninitialized flags inside the inlined
// sqrt/cmp intrinsics; the value is a don't-care by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// Per-block window state shared by every pattern in the bucket: moments,
// endpoint terms and csq for the 8 windows starting at `pos`, computed
// with the scalar body's expression trees (see ScanBucketScalarFrom).
struct Block512 {
  __m512d vmu;
  __m512d vsigma;
  __m512d vsig2;
  __m512d vw_f;
  __m512d vw_l;
  __m512d vcsq;
};

__attribute__((target("avx512f"), always_inline)) inline Block512
LoadBlock512(const BucketScan& a, std::size_t pos, __m512d vinv_n,
             __m512d vnd) {
  const __m512d vzero = _mm512_setzero_pd();
  const __m512d vone = _mm512_set1_pd(1.0);
  const __m512d vflat = _mm512_set1_pd(ts::kFlatThreshold);
  const std::size_t n = a.n;
  Block512 b;
  const __m512d vsum = _mm512_sub_pd(_mm512_loadu_pd(a.prefix + pos + n),
                                     _mm512_loadu_pd(a.prefix + pos));
  const __m512d vsum_sq =
      _mm512_sub_pd(_mm512_loadu_pd(a.prefix_sq + pos + n),
                    _mm512_loadu_pd(a.prefix_sq + pos));
  b.vmu = _mm512_mul_pd(vsum, vinv_n);
  const __m512d vvar = _mm512_max_pd(
      vzero, _mm512_sub_pd(_mm512_mul_pd(vsum_sq, vinv_n),
                           _mm512_mul_pd(b.vmu, b.vmu)));
  __m512d vsigma = _mm512_sqrt_pd(vvar);
  // Flat-window rule per lane: sigma < threshold -> 1.0.
  const __mmask8 flat = _mm512_cmp_pd_mask(vsigma, vflat, _CMP_LT_OQ);
  b.vsigma = _mm512_mask_blend_pd(flat, vsigma, vone);
  b.vsig2 = _mm512_mul_pd(b.vsigma, b.vsigma);
  b.vw_f = _mm512_sub_pd(_mm512_loadu_pd(a.hay + pos), b.vmu);
  b.vw_l = _mm512_sub_pd(_mm512_loadu_pd(a.hay + pos + n - 1), b.vmu);
  b.vcsq = _mm512_max_pd(
      vzero,
      _mm512_sub_pd(vsum_sq, _mm512_mul_pd(_mm512_mul_pd(vnd, b.vmu), b.vmu)));
  return b;
}

// Endpoint lower bound for pattern p over a block, against the
// block-start best (conservative: the best only shrinks, so an all-lanes
// prune is exactly the scalar loop's outcome for these windows).
__attribute__((target("avx512f"), always_inline)) inline __m512d
LowerBound512(const Block512& b, double p_first, double p_last) {
  const __m512d vd_f = _mm512_sub_pd(
      b.vw_f, _mm512_mul_pd(_mm512_set1_pd(p_first), b.vsigma));
  __m512d vlb = _mm512_mul_pd(vd_f, vd_f);
  const __m512d vd_l = _mm512_sub_pd(
      b.vw_l, _mm512_mul_pd(_mm512_set1_pd(p_last), b.vsigma));
  return _mm512_add_pd(vlb, _mm512_mul_pd(vd_l, vd_l));
}

// The eight windows' dots against `row`, one per lane (Dot256's order).
__attribute__((target("avx512f"), always_inline)) inline __m512d Dot512(
    const double* hb, const double* row, std::size_t n) {
  __m512d v0 = _mm512_setzero_pd();
  __m512d v1 = _mm512_setzero_pd();
  __m512d v2 = _mm512_setzero_pd();
  __m512d v3 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    v0 = _mm512_add_pd(
        v0, _mm512_mul_pd(_mm512_loadu_pd(hb + i), _mm512_set1_pd(row[i])));
    v1 = _mm512_add_pd(v1, _mm512_mul_pd(_mm512_loadu_pd(hb + i + 1),
                                         _mm512_set1_pd(row[i + 1])));
    v2 = _mm512_add_pd(v2, _mm512_mul_pd(_mm512_loadu_pd(hb + i + 2),
                                         _mm512_set1_pd(row[i + 2])));
    v3 = _mm512_add_pd(v3, _mm512_mul_pd(_mm512_loadu_pd(hb + i + 3),
                                         _mm512_set1_pd(row[i + 3])));
  }
  for (; i < n; ++i) {
    v0 = _mm512_add_pd(
        v0, _mm512_mul_pd(_mm512_loadu_pd(hb + i), _mm512_set1_pd(row[i])));
  }
  return _mm512_add_pd(_mm512_add_pd(v0, v1), _mm512_add_pd(v2, v3));
}

// d2s = max(0, csq - 2*sigma*(dot - mu*p_sum) + p_sum_sq*sig2), the
// scalar body's expression tree per lane.
__attribute__((target("avx512f"), always_inline)) inline __m512d
Distances512(const Block512& b, __m512d vdot, double p_sum,
             double p_sum_sq) {
  const __m512d vcross = _mm512_mul_pd(
      _mm512_mul_pd(_mm512_set1_pd(2.0), b.vsigma),
      _mm512_sub_pd(vdot, _mm512_mul_pd(b.vmu, _mm512_set1_pd(p_sum))));
  return _mm512_max_pd(
      _mm512_setzero_pd(),
      _mm512_add_pd(_mm512_sub_pd(b.vcsq, vcross),
                    _mm512_mul_pd(_mm512_set1_pd(p_sum_sq), b.vsig2)));
}

// Best-update sweep over one block's 8 lanes, in window order, applying
// the scalar loop's gates against the *current* best (the vector prune
// used the block-start best, which may have improved): skip on the
// endpoint bound first — exactly the windows the scalar loop skips —
// then update on d2s < thresh.
__attribute__((target("avx512f"), always_inline)) inline void SweepBlock512(
    const BucketScan& a, std::size_t p, std::size_t pos, const Block512& b,
    __m512d vlb, __m512d vd2s) {
  // Fast path: test every lane against the sweep-start best. The best
  // only shrinks lane to lane, so this threshold is the largest any lane
  // in the block will face — if no lane passes both gates with it, no
  // lane can update, exactly as in the scalar loop.
  const __m512d vthresh =
      _mm512_mul_pd(_mm512_set1_pd(a.best_sq[p]), b.vsig2);
  const __mmask8 cand =
      _mm512_cmp_pd_mask(vlb, vthresh, _CMP_LT_OQ) &
      _mm512_cmp_pd_mask(vd2s, vthresh, _CMP_LT_OQ);
  if (cand == 0) return;
  alignas(64) double sig2_l[8];
  alignas(64) double lb_l[8];
  alignas(64) double d2s_l[8];
  _mm512_store_pd(sig2_l, b.vsig2);
  _mm512_store_pd(lb_l, vlb);
  _mm512_store_pd(d2s_l, vd2s);
  for (int lane = 0; lane < 8; ++lane) {
    const double thresh = a.best_sq[p] * sig2_l[lane];
    if (lb_l[lane] >= thresh) continue;
    if (d2s_l[lane] < thresh) {
      a.best_sq[p] = d2s_l[lane] / sig2_l[lane];
      a.best_pos[p] = pos + static_cast<std::size_t>(lane);
    }
  }
}

__attribute__((target("avx512f"))) void ScanBucketAvx512(
    const BucketScan& a) {
  const std::size_t n = a.n;
  const std::size_t m = a.m;
  const __m512d vinv_n = _mm512_set1_pd(a.inv_n);
  const __m512d vnd = _mm512_set1_pd(static_cast<double>(n));
  const __m512d vzero = _mm512_setzero_pd();

  std::size_t pos = 0;
  // Main loop: two 8-wide blocks per iteration.
  for (; pos + 15 + n <= m; pos += 16) {
    const Block512 ba = LoadBlock512(a, pos, vinv_n, vnd);
    const Block512 bb = LoadBlock512(a, pos + 8, vinv_n, vnd);
    for (std::size_t p = 0; p < a.count; ++p) {
      const __m512d vlb_a = LowerBound512(ba, a.p_first[p], a.p_last[p]);
      const __m512d vlb_b = LowerBound512(bb, a.p_first[p], a.p_last[p]);
      const __m512d vthresh_b = _mm512_set1_pd(a.best_sq[p]);
      const __mmask8 keep_a = _mm512_cmp_pd_mask(
          vlb_a, _mm512_mul_pd(vthresh_b, ba.vsig2), _CMP_LT_OQ);
      const __mmask8 keep_b = _mm512_cmp_pd_mask(
          vlb_b, _mm512_mul_pd(vthresh_b, bb.vsig2), _CMP_LT_OQ);
      // Rarely-pruning workloads pay nothing for lumping the two blocks
      // into one survive-check; prune-heavy ones still skip the dots
      // whenever all sixteen windows are out.
      if ((keep_a | keep_b) == 0) continue;

      // Sixteen windows' dots at once: eight independent accumulate
      // chains (Dot512's per-lane order), block A and block B sharing
      // each row[i] broadcast.
      const double* row = a.slab + p * a.stride;
      const double* hb = a.hay + pos;
      __m512d va0 = vzero;
      __m512d va1 = vzero;
      __m512d va2 = vzero;
      __m512d va3 = vzero;
      __m512d vb0 = vzero;
      __m512d vb1 = vzero;
      __m512d vb2 = vzero;
      __m512d vb3 = vzero;
      std::size_t i = 0;
      for (; i + 4 <= n; i += 4) {
        const __m512d r0 = _mm512_set1_pd(row[i]);
        const __m512d r1 = _mm512_set1_pd(row[i + 1]);
        const __m512d r2 = _mm512_set1_pd(row[i + 2]);
        const __m512d r3 = _mm512_set1_pd(row[i + 3]);
        va0 = _mm512_add_pd(va0, _mm512_mul_pd(_mm512_loadu_pd(hb + i), r0));
        vb0 = _mm512_add_pd(
            vb0, _mm512_mul_pd(_mm512_loadu_pd(hb + i + 8), r0));
        va1 = _mm512_add_pd(
            va1, _mm512_mul_pd(_mm512_loadu_pd(hb + i + 1), r1));
        vb1 = _mm512_add_pd(
            vb1, _mm512_mul_pd(_mm512_loadu_pd(hb + i + 9), r1));
        va2 = _mm512_add_pd(
            va2, _mm512_mul_pd(_mm512_loadu_pd(hb + i + 2), r2));
        vb2 = _mm512_add_pd(
            vb2, _mm512_mul_pd(_mm512_loadu_pd(hb + i + 10), r2));
        va3 = _mm512_add_pd(
            va3, _mm512_mul_pd(_mm512_loadu_pd(hb + i + 3), r3));
        vb3 = _mm512_add_pd(
            vb3, _mm512_mul_pd(_mm512_loadu_pd(hb + i + 11), r3));
      }
      for (; i < n; ++i) {
        const __m512d r0 = _mm512_set1_pd(row[i]);
        va0 = _mm512_add_pd(va0, _mm512_mul_pd(_mm512_loadu_pd(hb + i), r0));
        vb0 = _mm512_add_pd(
            vb0, _mm512_mul_pd(_mm512_loadu_pd(hb + i + 8), r0));
      }
      const __m512d vdot_a =
          _mm512_add_pd(_mm512_add_pd(va0, va1), _mm512_add_pd(va2, va3));
      const __m512d vdot_b =
          _mm512_add_pd(_mm512_add_pd(vb0, vb1), _mm512_add_pd(vb2, vb3));

      const __m512d vd2s_a =
          Distances512(ba, vdot_a, a.p_sum[p], a.p_sum_sq[p]);
      const __m512d vd2s_b =
          Distances512(bb, vdot_b, a.p_sum[p], a.p_sum_sq[p]);
      // Window order: all of block A before any of block B.
      SweepBlock512(a, p, pos, ba, vlb_a, vd2s_a);
      SweepBlock512(a, p, pos + 8, bb, vlb_b, vd2s_b);
    }
  }
  // Epilogue: one 8-wide block for the trailing 8..15 positions.
  for (; pos + 7 + n <= m; pos += 8) {
    const Block512 ba = LoadBlock512(a, pos, vinv_n, vnd);
    for (std::size_t p = 0; p < a.count; ++p) {
      const __m512d vlb = LowerBound512(ba, a.p_first[p], a.p_last[p]);
      const __mmask8 keep = _mm512_cmp_pd_mask(
          vlb, _mm512_mul_pd(_mm512_set1_pd(a.best_sq[p]), ba.vsig2),
          _CMP_LT_OQ);
      if (keep == 0) continue;
      const __m512d vd2s =
          Distances512(ba, Dot512(a.hay + pos, a.slab + p * a.stride, n),
                       a.p_sum[p], a.p_sum_sq[p]);
      SweepBlock512(a, p, pos, ba, vlb, vd2s);
    }
  }
  ScanBucketScalarFrom(a, pos);  // trailing < 8 positions
}
#pragma GCC diagnostic pop

#endif  // RPM_DOT_AVX2_DISPATCH

enum class ScanKind { kBestMatch, kExistence };

// Length-1 rows, for both scan kinds: every single-point window is
// exactly flat (z-value 0), so all positions tie at distance |p| and the
// first window decides — going through the prefix sums would instead
// see cancellation noise above the flat threshold.
void ScanLengthOne(const BucketScan& a, ScanKind kind) {
  for (std::size_t p = 0; p < a.count; ++p) {
    const double d2 = a.p_first[p] * a.p_first[p];
    if (kind == ScanKind::kBestMatch) {
      if (d2 < a.best_sq[p]) {
        a.best_sq[p] = d2;
        a.best_pos[p] = 0;
      }
    } else if (d2 < a.seed_sq) {
      a.hit[p] = 1;
      --*a.remaining;
      if (a.first_hit) return;
    }
  }
}

// The one ISA-tier dispatcher: every scan, a store bucket or a single
// pattern, runs through here. Returns false, leaving the state
// untouched, when the rows are longer than the series (their slots stay
// unfound / undecided); otherwise runs the length-1 special case or the
// current tier's kernel.
bool RunScan(BucketScan& a, ScanKind kind) {
  if (a.n > a.m) return false;
  if (a.n == 1) {
    ScanLengthOne(a, kind);
    return true;
  }
#if defined(RPM_DOT_AVX2_DISPATCH)
  const IsaTier tier = CurrentIsaTier();
  if (tier >= IsaTier::kAvx2) {
    a.dot = internal::VectorDotForLength(a.n);
    if (kind == ScanKind::kExistence) {
      ScanBucketBelowAvx2(a);
    } else if (tier == IsaTier::kAvx512) {
      ScanBucketAvx512(a);
    } else {
      ScanBucketAvx2(a);
    }
    return true;
  }
#endif
  if (kind == ScanKind::kExistence) {
    ScanBucketBelowScalarFrom(a, 0);
  } else {
    ScanBucketScalarFrom(a, 0);
  }
  return true;
}

}  // namespace

PatternStore::PatternStore(const std::vector<ts::Series>& patterns) {
  std::vector<ts::SeriesView> views;
  views.reserve(patterns.size());
  for (const auto& p : patterns) views.emplace_back(p);
  BuildFromViews(views);
}

void PatternStore::Build(const std::vector<PatternContext>& patterns) {
  std::vector<ts::SeriesView> views;
  views.reserve(patterns.size());
  for (const auto& p : patterns) views.emplace_back(p.values);
  BuildFromViews(views);
}

void PatternStore::BuildFromViews(const std::vector<ts::SeriesView>& patterns) {
  buckets_.clear();
  first_.clear();
  last_.clear();
  sum_.clear();
  sum_sq_.clear();
  orig_index_.clear();
  num_patterns_ = patterns.size();
  num_empty_ = 0;

  // Store order: ascending length, insertion order within a length
  // (stable), empty patterns excluded (their slots stay sentinels).
  std::vector<std::pair<std::size_t, std::size_t>> order;  // (length, orig)
  order.reserve(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    if (patterns[i].empty()) {
      ++num_empty_;
    } else {
      order.emplace_back(patterns[i].size(), i);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& x, const auto& y) {
                     return x.first < y.first;
                   });

  // Lay out buckets and size the arena.
  std::size_t total = 0;
  for (std::size_t i = 0; i < order.size();) {
    const std::size_t n = order[i].first;
    std::size_t j = i;
    while (j < order.size() && order[j].first == n) ++j;
    Bucket b;
    b.length = n;
    b.padded = PaddedLength(n);
    b.first = i;
    b.count = j - i;
    b.slab = total;
    b.inv_n = 1.0 / static_cast<double>(n);
    total += b.padded * b.count;
    buckets_.push_back(b);
    i = j;
  }

  if (total == 0) {
    arena_ = {nullptr, nullptr};
    return;
  }
  // Row strides are multiples of 8 doubles, so the byte count is a
  // multiple of 64 — the aligned_alloc contract.
  auto* raw = static_cast<double*>(
      std::aligned_alloc(64, total * sizeof(double)));
  arena_ = {raw, +[](double* p) { std::free(p); }};
  std::fill(raw, raw + total, 0.0);  // zero the padding lanes

  const std::size_t stored = order.size();
  first_.resize(stored);
  last_.resize(stored);
  sum_.resize(stored);
  sum_sq_.resize(stored);
  orig_index_.resize(stored);
  for (const Bucket& b : buckets_) {
    for (std::size_t k = 0; k < b.count; ++k) {
      const std::size_t slot = b.first + k;
      const ts::SeriesView p = patterns[order[slot].second];
      double* row = raw + b.slab + k * b.padded;
      std::copy(p.begin(), p.end(), row);
      // Same sequential accumulation as PatternContext, so the sums that
      // feed the closed-form distance are bit-identical to the
      // one-pattern scans'.
      double s = 0.0;
      double ssq = 0.0;
      for (const double v : p) {
        s += v;
        ssq += v * v;
      }
      first_[slot] = p.front();
      last_[slot] = p.back();
      sum_[slot] = s;
      sum_sq_[slot] = ssq;
      orig_index_[slot] = static_cast<std::uint32_t>(order[slot].second);
    }
  }
}

PatternStore::BucketInfo PatternStore::bucket_info(std::size_t b) const {
  const Bucket& bucket = buckets_[b];
  return BucketInfo{bucket.length, bucket.padded, bucket.count};
}

BestMatch PatternStore::MatchOne(const PatternContext& pattern,
                                 const SeriesContext& series,
                                 double cutoff) {
  BestMatch best;  // Explicit sentinel: npos position, infinite distance.
  if (pattern.empty()) return best;
  const ts::Series& row = pattern.values;
  BucketScan a = ScanArgs(series, row.size(), row.data(), row.size(), 1,
                          &row.front(), &row.back(), &pattern.sum,
                          &pattern.sum_sq);
  double best_sq = SeedSq(cutoff, row.size());
  a.best_sq = &best_sq;
  a.best_pos = &best.position;
  RunScan(a, ScanKind::kBestMatch);
  if (best.found()) best.distance = std::sqrt(best_sq * a.inv_n);
  return best;
}

bool PatternStore::BelowOne(const PatternContext& pattern,
                            const SeriesContext& series, double cutoff) {
  if (pattern.empty()) return false;
  const ts::Series& row = pattern.values;
  BucketScan a = ScanArgs(series, row.size(), row.data(), row.size(), 1,
                          &row.front(), &row.back(), &pattern.sum,
                          &pattern.sum_sq);
  std::uint8_t hit = 0;
  std::size_t remaining = 1;
  a.seed_sq = SeedSq(cutoff, row.size());
  a.hit = &hit;
  a.remaining = &remaining;
  RunScan(a, ScanKind::kExistence);
  return hit != 0;
}

std::size_t PatternStore::MatchAllImpl(const SeriesContext& series,
                                       MatchScratch* scratch,
                                       const std::vector<double>* seeds,
                                       std::vector<BestMatch>* out) const {
  out->assign(num_patterns_, BestMatch{});  // all slots start unfound
  const std::size_t stored = orig_index_.size();
  if (stored == 0) return 0;
  std::size_t buckets_scanned = 0;

  scratch->best_sq.assign(stored,
                          std::numeric_limits<double>::infinity());
  scratch->best_pos.assign(stored, kNpos);
  double* best_sq = scratch->best_sq.data();
  std::size_t* best_pos = scratch->best_pos.data();
  if (seeds != nullptr) {
    // Seed each slot exactly as the one-pattern seeded scan does.
    for (const Bucket& b : buckets_) {
      for (std::size_t k = 0; k < b.count; ++k) {
        const std::size_t slot = b.first + k;
        best_sq[slot] = SeedSq((*seeds)[orig_index_[slot]], b.length);
      }
    }
  }

  for (const Bucket& b : buckets_) {
    BucketScan a = ScanArgs(series, b.length, Row(b, 0), b.padded, b.count,
                            first_.data() + b.first, last_.data() + b.first,
                            sum_.data() + b.first, sum_sq_.data() + b.first);
    a.best_sq = best_sq + b.first;
    a.best_pos = best_pos + b.first;
    if (RunScan(a, ScanKind::kBestMatch)) ++buckets_scanned;
  }

  for (const Bucket& b : buckets_) {
    for (std::size_t k = 0; k < b.count; ++k) {
      const std::size_t slot = b.first + k;
      if (best_pos[slot] == kNpos) continue;
      BestMatch& bm = (*out)[orig_index_[slot]];
      bm.position = best_pos[slot];
      bm.distance = std::sqrt(best_sq[slot] * b.inv_n);
    }
  }
  return buckets_scanned;
}

std::size_t PatternStore::MatchAll(const SeriesContext& series,
                                   MatchScratch* scratch,
                                   std::vector<BestMatch>* out) const {
  return MatchAllImpl(series, scratch, nullptr, out);
}

std::size_t PatternStore::MatchAllSeeded(const SeriesContext& series,
                                         MatchScratch* scratch,
                                         const std::vector<double>& seeds,
                                         std::vector<BestMatch>* out) const {
  return MatchAllImpl(series, scratch, &seeds, out);
}

bool PatternStore::AnyBelow(const SeriesContext& series,
                            MatchScratch* scratch, double tau,
                            std::vector<std::uint8_t>* below) const {
  if (below != nullptr) below->assign(num_patterns_, 0);
  const std::size_t stored = orig_index_.size();
  if (stored == 0) return false;

  scratch->below.assign(stored, 0);
  std::uint8_t* hit = scratch->below.data();
  const bool first_hit = below == nullptr;
  bool any = false;

  for (const Bucket& b : buckets_) {
    std::size_t remaining = b.count;
    BucketScan a = ScanArgs(series, b.length, Row(b, 0), b.padded, b.count,
                            first_.data() + b.first, last_.data() + b.first,
                            sum_.data() + b.first, sum_sq_.data() + b.first);
    a.seed_sq = SeedSq(tau, b.length);
    a.hit = hit + b.first;
    a.remaining = &remaining;
    a.first_hit = first_hit;
    RunScan(a, ScanKind::kExistence);
    if (remaining < b.count) {
      any = true;
      if (first_hit) return true;
    }
  }

  if (below != nullptr) {
    for (const Bucket& b : buckets_) {
      for (std::size_t k = 0; k < b.count; ++k) {
        const std::size_t slot = b.first + k;
        (*below)[orig_index_[slot]] = hit[slot];
      }
    }
  }
  return any;
}

void PatternStore::MatchBucket(std::size_t b, const SeriesContext& series,
                               BestMatch* out) const {
  const Bucket& bucket = buckets_[b];
  std::vector<double> best_sq(bucket.count,
                              std::numeric_limits<double>::infinity());
  std::vector<std::size_t> best_pos(bucket.count, kNpos);
  BucketScan a = ScanArgs(
      series, bucket.length, Row(bucket, 0), bucket.padded, bucket.count,
      first_.data() + bucket.first, last_.data() + bucket.first,
      sum_.data() + bucket.first, sum_sq_.data() + bucket.first);
  a.best_sq = best_sq.data();
  a.best_pos = best_pos.data();
  RunScan(a, ScanKind::kBestMatch);
  for (std::size_t k = 0; k < bucket.count; ++k) {
    out[k] = BestMatch{};
    if (best_pos[k] == kNpos) continue;
    out[k].position = best_pos[k];
    out[k].distance = std::sqrt(best_sq[k] * bucket.inv_n);
  }
}

}  // namespace rpm::distance
