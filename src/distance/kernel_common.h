// Internal header: the canonical dot-product kernels behind the scan
// kernels of the SoA pattern store (pattern_store.cc). Not part of the
// public API.
//
// THE PINNED ACCUMULATION ORDER. Every distance the engine reports
// flows through one dot product whose summation order is fixed across
// all ISA tiers:
//
//   * four partial sums s0..s3; element i of the stride-4 body
//     accumulates into s(i mod 4);
//   * the tail (n mod 4 trailing elements) accumulates into s0, in
//     index order;
//   * the partial sums combine as the fixed tree (s0 + s1) + (s2 + s3).
//
// The scalar/SSE2 form, the AVX2 form, and every length-specialized
// unrolled form below apply exactly this order with explicit
// mul-then-add arithmetic (never FMA, which rounds once instead of
// twice), so all of them return bit-identical doubles for the same
// inputs. Any new kernel variant must reproduce the same order — the
// cross-tier golden tests (pattern_store_test) and the checksum_drift
// assertion in `micro_kernels --json` both pin it.

#ifndef RPM_DISTANCE_KERNEL_COMMON_H_
#define RPM_DISTANCE_KERNEL_COMMON_H_

#include <cstddef>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define RPM_DOT_AVX2_DISPATCH 1
#endif

namespace rpm::distance::internal {

// Baseline-ISA form of the canonical dot (SSE2 pairs {s0,s1}/{s2,s3}
// when available, plain scalars otherwise). The explicit partial sums
// also free the scalar loop from serializing on one accumulator's add
// latency.
inline double DotBase(const double* a, const double* b, std::size_t n) {
#if defined(__SSE2__)
  __m128d va = _mm_setzero_pd();  // lanes {s0, s1}
  __m128d vb = _mm_setzero_pd();  // lanes {s2, s3}
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    va = _mm_add_pd(va, _mm_mul_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
    vb = _mm_add_pd(
        vb, _mm_mul_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2)));
  }
  double s0 = _mm_cvtsd_f64(va);
  double s1 = _mm_cvtsd_f64(_mm_unpackhi_pd(va, va));
  double s2 = _mm_cvtsd_f64(vb);
  double s3 = _mm_cvtsd_f64(_mm_unpackhi_pd(vb, vb));
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
#else
  double s0 = 0.0;
  double s1 = 0.0;
  double s2 = 0.0;
  double s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
#endif
}

#if defined(RPM_DOT_AVX2_DISPATCH)
// One ymm register holds the same four partial sums {s0, s1, s2, s3}, so
// the per-lane accumulation and the final combine are identical to the
// base path — only the instruction count halves.
__attribute__((target("avx2"))) inline double DotAvx2(const double* a,
                                                      const double* b,
                                                      std::size_t n) {
  __m256d acc = _mm256_setzero_pd();  // lanes {s0, s1, s2, s3}
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  alignas(32) double s[4];
  _mm256_store_pd(s, acc);
  for (; i < n; ++i) s[0] += a[i] * b[i];
  return (s[0] + s[1]) + (s[2] + s[3]);
}

// Length-specialized form: `kBlocks` stride-4 iterations are known at
// compile time, so the body unrolls completely — no loop-count branches
// in the hot path of short-pattern buckets. Same lanes, same tail rule,
// same combine tree as DotAvx2, hence bit-identical.
template <int kBlocks>
__attribute__((target("avx2"))) inline double DotAvx2Fixed(const double* a,
                                                           const double* b,
                                                           std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
#pragma GCC unroll 16
  for (int k = 0; k < kBlocks; ++k) {
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a + 4 * k),
                                           _mm256_loadu_pd(b + 4 * k)));
  }
  alignas(32) double s[4];
  _mm256_store_pd(s, acc);
  for (std::size_t i = 4 * kBlocks; i < n; ++i) s[0] += a[i] * b[i];
  return (s[0] + s[1]) + (s[2] + s[3]);
}
#endif  // RPM_DOT_AVX2_DISPATCH

/// Dot kernel signature shared by all variants.
using DotFn = double (*)(const double*, const double*, std::size_t);

/// The vector-tier dot kernel for patterns of length `n`: a fully
/// unrolled specialization when one exists (n <= 64), the generic AVX2
/// loop otherwise, and the base kernel on builds without AVX2 dispatch.
/// Every returned kernel computes the canonical order, so the choice is
/// purely a speed decision.
inline DotFn VectorDotForLength(std::size_t n) {
#if defined(RPM_DOT_AVX2_DISPATCH)
  switch (n / 4) {
    case 0:  // n < 4: tail-only
      return &DotAvx2Fixed<0>;
    case 1:
      return &DotAvx2Fixed<1>;
    case 2:
      return &DotAvx2Fixed<2>;
    case 3:
      return &DotAvx2Fixed<3>;
    case 4:
      return &DotAvx2Fixed<4>;
    case 5:
      return &DotAvx2Fixed<5>;
    case 6:
      return &DotAvx2Fixed<6>;
    case 7:
      return &DotAvx2Fixed<7>;
    case 8:
      return &DotAvx2Fixed<8>;
    case 9:
      return &DotAvx2Fixed<9>;
    case 10:
      return &DotAvx2Fixed<10>;
    case 11:
      return &DotAvx2Fixed<11>;
    case 12:
      return &DotAvx2Fixed<12>;
    case 13:
      return &DotAvx2Fixed<13>;
    case 14:
      return &DotAvx2Fixed<14>;
    case 15:
      return &DotAvx2Fixed<15>;
    case 16:
      return &DotAvx2Fixed<16>;
    default:
      return &DotAvx2;
  }
#else
  (void)n;
  return &DotBase;
#endif
}

}  // namespace rpm::distance::internal

#endif  // RPM_DISTANCE_KERNEL_COMMON_H_
