// Micro-benchmarks (google-benchmark) for the Section 5.3 complexity
// claims: SAX discretization and Sequitur inference are linear in the
// input; the best-match scan is the classification-time hot loop; DTW
// cost scales with the band width.
//
// `--json` skips the google-benchmark suite and instead times (a) the
// batched matching engine against the legacy per-call kernel on a
// 50-pattern x 200-series workload, (b) the LB-cascaded 1NN-DTW
// against full banded DTW at a 10 % band and (c) the archive CRC-32
// against a byte-at-a-time table loop, writing BENCH_kernels.json.

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "distance/dtw.h"
#include "distance/euclidean.h"
#include "distance/isa_dispatch.h"
#include "distance/matcher.h"
#include "distance/pattern_store.h"
#include "grammar/motifs.h"
#include "grammar/repair.h"
#include "grammar/sequitur.h"
#include "harness.h"
#include "sax/sax.h"
#include "ts/dataset_io.h"
#include "ts/rng.h"
#include "ts/znorm.h"

namespace {

rpm::ts::Series RandomWalk(std::size_t n, std::uint64_t seed) {
  rpm::ts::Rng rng(seed);
  rpm::ts::Series s(n);
  double v = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    v += rng.Gaussian(0.0, 1.0);
    s[i] = v;
  }
  return s;
}

// Byte-at-a-time table CRC-32 (reflected 0xEDB88320): the crc32 row's
// baseline, and the loop ts::Crc32 keeps for inputs under 64 bytes.
std::uint32_t Crc32TableLoop(const unsigned char* p, std::size_t bytes) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < bytes; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void BM_SaxDiscretize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const rpm::ts::Series s = RandomWalk(n, 1);
  rpm::sax::SaxOptions opt;
  opt.window = 32;
  opt.paa_size = 6;
  opt.alphabet = 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpm::sax::DiscretizeSlidingWindow(s, opt));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SaxDiscretize)->Range(256, 16384)->Complexity(benchmark::oN);

void BM_SequiturInfer(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rpm::ts::Rng rng(2);
  std::vector<std::uint32_t> tokens(n);
  for (auto& t : tokens) {
    t = static_cast<std::uint32_t>(rng.UniformInt(0, 7));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpm::grammar::InferGrammar(tokens));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SequiturInfer)->Range(256, 16384)->Complexity(benchmark::oN);

void BM_RePairInfer(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rpm::ts::Rng rng(2);
  std::vector<std::uint32_t> tokens(n);
  for (auto& t : tokens) {
    t = static_cast<std::uint32_t>(rng.UniformInt(0, 7));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpm::grammar::InferGrammarRePair(tokens));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RePairInfer)->Range(256, 8192)->Complexity();

void BM_BestMatchScan(benchmark::State& state) {
  const auto hay_len = static_cast<std::size_t>(state.range(0));
  const rpm::ts::Series hay = RandomWalk(hay_len, 3);
  rpm::ts::Series pattern = RandomWalk(32, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpm::distance::FindBestMatchNaive(pattern, hay));
  }
}
BENCHMARK(BM_BestMatchScan)->Range(256, 8192);

// One-pattern call of the bucket kernel on the same workload, contexts
// prebuilt: what a single pattern x series probe pays after
// amortization.
void BM_BestMatchBatched(benchmark::State& state) {
  const auto hay_len = static_cast<std::size_t>(state.range(0));
  const rpm::ts::Series hay = RandomWalk(hay_len, 3);
  rpm::ts::Series pattern = RandomWalk(32, 4);
  const rpm::distance::PatternContext pattern_ctx(pattern);
  const rpm::distance::SeriesContext hay_ctx(hay);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rpm::distance::BatchedBestMatch(pattern_ctx, hay_ctx));
  }
}
BENCHMARK(BM_BestMatchBatched)->Range(256, 8192);

void BM_DtwBanded(benchmark::State& state) {
  const std::size_t n = 256;
  const auto band = static_cast<std::size_t>(state.range(0));
  const rpm::ts::Series a = RandomWalk(n, 5);
  const rpm::ts::Series b = RandomWalk(n, 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpm::distance::Dtw(a, b, band));
  }
}
BENCHMARK(BM_DtwBanded)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_LbKeogh(benchmark::State& state) {
  const std::size_t n = 256;
  const rpm::ts::Series a = RandomWalk(n, 7);
  const rpm::ts::Series b = RandomWalk(n, 8);
  const rpm::distance::Envelope env = rpm::distance::MakeEnvelope(b, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpm::distance::LbKeogh(a, env));
  }
}
BENCHMARK(BM_LbKeogh);

void BM_MotifCandidates(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const rpm::ts::Series s = RandomWalk(n, 9);
  rpm::sax::SaxOptions opt;
  opt.window = 32;
  opt.paa_size = 5;
  opt.alphabet = 4;
  const auto records = rpm::sax::DiscretizeSlidingWindow(s, opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpm::grammar::FindMotifCandidates(
        records, opt.window, s.size(), {}, true));
  }
}
BENCHMARK(BM_MotifCandidates)->Range(512, 8192);

// --json workload: 50 patterns (lengths 16..64) matched into 200 series
// of length 256, the shape of one transform pass over a mid-sized UCR
// dataset. Three exact kernels are timed on it:
//   * best_match_per_call — the legacy kernel (re-sorts the pattern and
//     re-derives window moments on every pair);
//   * best_match_batched  — the one-pattern call of the bucket kernel
//     (contexts prebuilt, one count = 1 bucket scan per pattern x
//     series);
//   * best_match_soa      — the length-bucketed SoA store behind
//     MatchAll (window-major, one moments pass per window block shared
//     by the bucket), plus one row per ISA tier via ForceIsaTier and one
//     row per length bucket via MatchBucket.
// Two training-loop rows ride the same workload: match_all_seeded (the
// cutoff-seeded scan the shapelet baselines feed with info-gain
// cutoffs) and any_below (the first-hit existence sweep behind the
// distinct-selection tau tests), each also pinned per ISA tier that has
// a kernel of its own.
// Context/store construction is charged to the side that uses it.
//
// checksum_drift is the forced-scalar vs dispatched-tier difference of
// the summed SoA distances: the tiers are bit-identical by construction,
// so the drift must be exactly zero and the run aborts otherwise. The
// naive-vs-SoA gap (different moments algorithm, rounding-level) is kept
// as the informational legacy_checksum_gap.
void RunJsonWorkload() {
  constexpr std::size_t kPatterns = 50;
  constexpr std::size_t kSeries = 200;
  constexpr std::size_t kSeriesLen = 256;

  std::vector<rpm::ts::Series> patterns;
  patterns.reserve(kPatterns);
  for (std::size_t p = 0; p < kPatterns; ++p) {
    rpm::ts::Series s = RandomWalk(16 + (p * 48) / (kPatterns - 1), 100 + p);
    rpm::ts::ZNormalizeInPlace(s);
    patterns.push_back(std::move(s));
  }
  std::vector<rpm::ts::Series> series;
  series.reserve(kSeries);
  for (std::size_t i = 0; i < kSeries; ++i) {
    series.push_back(RandomWalk(kSeriesLen, 500 + i));
  }

  using Clock = std::chrono::steady_clock;
  const auto ops = static_cast<double>(kPatterns * kSeries);
  // Interleaved passes, keeping the minimum of each: interleaving
  // exposes all kernels to the same machine conditions and the minimum
  // is robust against scheduler interference.
  constexpr int kReps = 5;

  // One timed SoA pass over the whole workload; returns summed distances.
  const auto soa_pass = [&](double* ns_out) {
    double checksum = 0.0;
    const auto t0 = Clock::now();
    rpm::distance::BatchMatcher matcher(patterns);
    rpm::distance::MatchScratch scratch;
    std::vector<rpm::distance::BestMatch> matches;
    for (const auto& hay : series) {
      const rpm::distance::SeriesContext ctx(hay);
      matcher.MatchAll(ctx, &scratch, &matches);
      for (const auto& m : matches) checksum += m.distance;
    }
    const auto t1 = Clock::now();
    *ns_out = std::min(
        *ns_out,
        std::chrono::duration<double, std::nano>(t1 - t0).count() / ops);
    return checksum;
  };

  double naive_checksum = 0.0;
  double batched_checksum = 0.0;
  double soa_checksum = 0.0;
  double naive_ns = std::numeric_limits<double>::infinity();
  double batched_ns = std::numeric_limits<double>::infinity();
  double soa_ns = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    naive_checksum = 0.0;
    const auto t0 = Clock::now();
    for (const auto& hay : series) {
      for (const auto& pattern : patterns) {
        naive_checksum +=
            rpm::distance::FindBestMatchNaive(pattern, hay).distance;
      }
    }
    const auto t1 = Clock::now();
    naive_ns = std::min(
        naive_ns,
        std::chrono::duration<double, std::nano>(t1 - t0).count() / ops);

    batched_checksum = 0.0;
    // Context construction is rebuilt every pass so it stays charged to
    // the batched side.
    const auto t2 = Clock::now();
    rpm::distance::BatchMatcher matcher(patterns);
    for (const auto& hay : series) {
      const rpm::distance::SeriesContext ctx(hay);
      for (std::size_t i = 0; i < matcher.size(); ++i) {
        batched_checksum += matcher.Match(i, ctx).distance;
      }
    }
    const auto t3 = Clock::now();
    batched_ns = std::min(
        batched_ns,
        std::chrono::duration<double, std::nano>(t3 - t2).count() / ops);

    soa_checksum = soa_pass(&soa_ns);
  }
  const double speedup = naive_ns / batched_ns;
  const double soa_speedup = naive_ns / soa_ns;
  const double soa_vs_batched = batched_ns / soa_ns;
  // Different moments algorithm (rolling vs prefix sums): rounding-level
  // gap only; a visible gap means a kernel bug.
  const double legacy_gap = naive_checksum - soa_checksum;

  // Per-ISA-tier rows: the same SoA pass pinned to each tier the host
  // can run. Every tier must reproduce the dispatched checksum bit for
  // bit — that difference is THE checksum_drift, and it must be zero.
  struct TierRow {
    const char* name;
    double ns = std::numeric_limits<double>::infinity();
    double checksum = 0.0;
  };
  std::vector<TierRow> tier_rows;
  double drift = 0.0;
  for (rpm::distance::IsaTier tier :
       {rpm::distance::IsaTier::kScalar, rpm::distance::IsaTier::kAvx2,
        rpm::distance::IsaTier::kAvx512}) {
    if (!rpm::distance::IsaTierAvailable(tier)) continue;
    rpm::distance::ForceIsaTier(tier);
    TierRow row;
    row.name = rpm::distance::IsaTierName(tier);
    for (int rep = 0; rep < kReps; ++rep) {
      row.checksum = soa_pass(&row.ns);
    }
    tier_rows.push_back(row);
    const double tier_drift = row.checksum - soa_checksum;
    if (tier_drift != 0.0) drift = tier_drift;
  }
  rpm::distance::ResetIsaTier();
  if (drift != 0.0) {
    std::fprintf(stderr,
                 "FATAL: cross-tier checksum drift %.17g — the ISA tiers "
                 "must be bit-identical\n",
                 drift);
    std::exit(1);
  }

  // Per-bucket rows: each length bucket scanned alone across all series
  // (store built once, outside the timing). ns_per_op is per pattern x
  // series, comparable with the aggregate rows.
  struct BucketRow {
    std::size_t length;
    std::size_t padded;
    std::size_t count;
    double ns = std::numeric_limits<double>::infinity();
  };
  std::vector<BucketRow> bucket_rows;
  {
    rpm::distance::BatchMatcher matcher(patterns);
    const rpm::distance::PatternStore& store = matcher.store();
    std::vector<rpm::distance::SeriesContext> contexts;
    contexts.reserve(series.size());
    for (const auto& hay : series) contexts.emplace_back(hay);
    std::vector<rpm::distance::BestMatch> out(kPatterns);
    for (std::size_t b = 0; b < store.num_buckets(); ++b) {
      const auto info = store.bucket_info(b);
      BucketRow row{info.length, info.padded, info.patterns,
                    std::numeric_limits<double>::infinity()};
      const double bucket_ops =
          static_cast<double>(info.patterns * series.size());
      for (int rep = 0; rep < kReps; ++rep) {
        const auto t0 = Clock::now();
        for (const auto& ctx : contexts) {
          store.MatchBucket(b, ctx, out.data());
        }
        const auto t1 = Clock::now();
        row.ns = std::min(
            row.ns, std::chrono::duration<double, std::nano>(t1 - t0).count() /
                        bucket_ops);
      }
      bucket_rows.push_back(row);
    }
  }

  // Training-loop kernels: the cutoff-seeded MatchAll and the AnyBelow
  // existence sweep (the primitives behind the shapelet-baseline
  // scoring loops and the distinct-selection tau tests). Seeds and the
  // tau come from an untimed dispatched pre-pass, so every tier answers
  // exactly the same question and the checksums must agree bit for bit.
  std::vector<double> tight_seeds(kPatterns,
                                  std::numeric_limits<double>::infinity());
  {
    rpm::distance::BatchMatcher matcher(patterns);
    rpm::distance::MatchScratch scratch;
    std::vector<rpm::distance::BestMatch> matches;
    for (const auto& hay : series) {
      const rpm::distance::SeriesContext ctx(hay);
      matcher.MatchAll(ctx, &scratch, &matches);
      for (std::size_t i = 0; i < matches.size(); ++i) {
        tight_seeds[i] = std::min(tight_seeds[i], matches[i].distance);
      }
    }
  }
  // Seeds sit 2 % above each pattern's global best: almost every scan
  // abandons against the seed (the regime info-gain pruning produces),
  // only near-best series still improve on it.
  for (double& s : tight_seeds) s *= 1.02;
  // Tau at the median per-pattern best: roughly half the patterns exist
  // below it somewhere, so the first-hit sweep sees hits and misses.
  double tau = 0.0;
  {
    std::vector<double> sorted = tight_seeds;
    std::sort(sorted.begin(), sorted.end());
    tau = sorted[sorted.size() / 2];
  }

  const auto seeded_pass = [&](double* ns_out) {
    double checksum = 0.0;
    const auto t0 = Clock::now();
    rpm::distance::BatchMatcher matcher(patterns);
    rpm::distance::MatchScratch scratch;
    std::vector<rpm::distance::BestMatch> matches;
    for (const auto& hay : series) {
      const rpm::distance::SeriesContext ctx(hay);
      matcher.MatchAllSeeded(ctx, &scratch, tight_seeds, &matches);
      for (const auto& m : matches) {
        checksum += m.found() ? m.distance : -1.0;
      }
    }
    const auto t1 = Clock::now();
    *ns_out = std::min(
        *ns_out,
        std::chrono::duration<double, std::nano>(t1 - t0).count() / ops);
    return checksum;
  };
  const auto below_pass = [&](double* ns_out) {
    double checksum = 0.0;
    const auto t0 = Clock::now();
    rpm::distance::BatchMatcher matcher(patterns);
    rpm::distance::MatchScratch scratch;
    std::vector<std::uint8_t> flags;
    for (const auto& hay : series) {
      const rpm::distance::SeriesContext ctx(hay);
      matcher.AnyBelow(ctx, &scratch, tau, &flags);
      for (std::uint8_t fl : flags) checksum += fl;
    }
    const auto t1 = Clock::now();
    *ns_out = std::min(
        *ns_out,
        std::chrono::duration<double, std::nano>(t1 - t0).count() / ops);
    return checksum;
  };

  double seeded_checksum = 0.0;
  double below_checksum = 0.0;
  double seeded_ns = std::numeric_limits<double>::infinity();
  double below_ns = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    seeded_checksum = seeded_pass(&seeded_ns);
    below_checksum = below_pass(&below_ns);
  }
  std::vector<TierRow> seeded_rows;
  std::vector<TierRow> below_rows;
  double train_drift = 0.0;
  for (rpm::distance::IsaTier tier :
       {rpm::distance::IsaTier::kScalar, rpm::distance::IsaTier::kAvx2,
        rpm::distance::IsaTier::kAvx512}) {
    if (!rpm::distance::IsaTierAvailable(tier)) continue;
    rpm::distance::ForceIsaTier(tier);
    TierRow srow;
    srow.name = rpm::distance::IsaTierName(tier);
    // The existence scan has no AVX-512 body (AVX-512 hosts run the AVX2
    // kernel), so that tier gets no any_below row of its own.
    const bool own_below = tier != rpm::distance::IsaTier::kAvx512;
    TierRow brow;
    brow.name = srow.name;
    for (int rep = 0; rep < kReps; ++rep) {
      srow.checksum = seeded_pass(&srow.ns);
      if (own_below) brow.checksum = below_pass(&brow.ns);
    }
    seeded_rows.push_back(srow);
    if (srow.checksum != seeded_checksum) {
      train_drift = srow.checksum - seeded_checksum;
    }
    if (!own_below) continue;
    below_rows.push_back(brow);
    if (brow.checksum != below_checksum) {
      train_drift = brow.checksum - below_checksum;
    }
  }
  rpm::distance::ResetIsaTier();
  if (train_drift != 0.0) {
    std::fprintf(stderr,
                 "FATAL: cross-tier checksum drift %.17g in the seeded/"
                 "any-below kernels — the ISA tiers must be bit-identical\n",
                 train_drift);
    std::exit(1);
  }

  // 1NN-DTW workload: 20 queries against a 100-candidate pool, length
  // 128, Sakoe-Chiba band at 10 % of the length. The full kernel runs
  // banded DTW on every pair with no cutoff; the cascade prunes with the
  // endpoint bound and LB_Keogh (both directions) before an
  // early-abandoning DTW seeded with the best-so-far. Envelope
  // construction is charged to the cascade side. The cascade is
  // decision-exact, so both sides must find identical neighbors.
  constexpr std::size_t kQueries = 20;
  constexpr std::size_t kPool = 100;
  constexpr std::size_t kLen = 128;
  const std::size_t band = kLen / 10;

  std::vector<rpm::ts::Series> queries;
  queries.reserve(kQueries);
  for (std::size_t q = 0; q < kQueries; ++q) {
    rpm::ts::Series s = RandomWalk(kLen, 900 + q);
    rpm::ts::ZNormalizeInPlace(s);
    queries.push_back(std::move(s));
  }
  std::vector<rpm::ts::Series> pool;
  pool.reserve(kPool);
  for (std::size_t c = 0; c < kPool; ++c) {
    rpm::ts::Series s = RandomWalk(kLen, 2000 + c);
    rpm::ts::ZNormalizeInPlace(s);
    pool.push_back(std::move(s));
  }

  const auto dtw_ops = static_cast<double>(kQueries * kPool);
  double full_checksum = 0.0;
  double cascade_checksum = 0.0;
  double full_ns = std::numeric_limits<double>::infinity();
  double cascade_ns = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kReps; ++rep) {
    full_checksum = 0.0;
    const auto t0 = Clock::now();
    for (const auto& q : queries) {
      double best = std::numeric_limits<double>::infinity();
      for (const auto& c : pool) {
        best = std::min(best, rpm::distance::Dtw(q, c, band));
      }
      full_checksum += best;
    }
    const auto t1 = Clock::now();
    full_ns = std::min(
        full_ns,
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
            dtw_ops);

    cascade_checksum = 0.0;
    const auto t2 = Clock::now();
    std::vector<rpm::distance::Envelope> envelopes;
    envelopes.reserve(kPool);
    for (const auto& c : pool) {
      envelopes.push_back(rpm::distance::MakeEnvelope(c, band));
    }
    for (const auto& q : queries) {
      const rpm::distance::Envelope q_env =
          rpm::distance::MakeEnvelope(q, band);
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < kPool; ++c) {
        const double d = rpm::distance::DtwCascade(q, pool[c], &q_env,
                                                   &envelopes[c], band,
                                                   best);
        if (d < best) best = d;
      }
      cascade_checksum += best;
    }
    const auto t3 = Clock::now();
    cascade_ns = std::min(
        cascade_ns,
        std::chrono::duration<double, std::nano>(t3 - t2).count() /
            dtw_ops);
  }
  const double dtw_speedup = full_ns / cascade_ns;
  // The cascade only skips candidates provably >= the best-so-far, so the
  // nearest-neighbor distances must be bit-identical: any drift at all is
  // a pruning bug.
  const double dtw_drift = full_checksum - cascade_checksum;

  // Archive CRC: ts::Crc32 (carry-less-multiply folding on CPUs with
  // PCLMULQDQ) against the table loop, over one RPMD chunk (4 MiB, the
  // writer's default chunk_bytes) at an odd offset. Both must give the
  // same CRC. Each side takes the minimum of 20 back-to-back passes: a
  // fold pass is well under 1 ms, and interleaving it with ~15 ms table
  // passes let other processes evict the buffer, timing memory instead.
  constexpr std::size_t kCrcBytes = std::size_t{4} << 20;
  constexpr int kCrcReps = 20;
  std::vector<unsigned char> crc_buf(kCrcBytes + 1);
  std::uint64_t crc_state = 17;
  for (auto& b : crc_buf) {
    crc_state = crc_state * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<unsigned char>(crc_state >> 56);
  }
  const unsigned char* crc_data = crc_buf.data() + 1;
  std::uint32_t kernel_crc = 0;
  std::uint32_t table_crc = 0;
  double kernel_crc_ns = std::numeric_limits<double>::infinity();
  double table_crc_ns = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kCrcReps; ++rep) {
    const auto t0 = Clock::now();
    kernel_crc = rpm::ts::Crc32(crc_data, kCrcBytes);
    const auto t1 = Clock::now();
    kernel_crc_ns = std::min(
        kernel_crc_ns,
        std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  for (int rep = 0; rep < kCrcReps; ++rep) {
    const auto t0 = Clock::now();
    table_crc = Crc32TableLoop(crc_data, kCrcBytes);
    const auto t1 = Clock::now();
    table_crc_ns = std::min(
        table_crc_ns,
        std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  if (kernel_crc != table_crc) {
    std::fprintf(stderr,
                 "FATAL: ts::Crc32 gave %08x, the table loop %08x — every "
                 "CRC path must agree\n",
                 kernel_crc, table_crc);
    std::exit(1);
  }
  // bytes per ns * 1e3 = MB/s (1 MB = 1e6 bytes).
  const double kernel_mb_s =
      static_cast<double>(kCrcBytes) * 1e3 / kernel_crc_ns;
  const double table_mb_s =
      static_cast<double>(kCrcBytes) * 1e3 / table_crc_ns;

  std::FILE* f = std::fopen("BENCH_kernels.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_kernels.json\n");
    std::exit(1);
  }
  std::fprintf(f,
               "{\n"
               "  \"host\": %s,\n"
               "  \"workload\": {\"patterns\": %zu, \"series\": %zu, "
               "\"series_length\": %zu},\n"
               "  \"dtw_workload\": {\"queries\": %zu, \"pool\": %zu, "
               "\"length\": %zu, \"band\": %zu},\n"
               "  \"kernels\": [\n"
               "    {\"name\": \"best_match_per_call\", \"ns_per_op\": %.1f, "
               "\"speedup\": 1.0},\n"
               "    {\"name\": \"best_match_batched\", \"ns_per_op\": %.1f, "
               "\"speedup\": %.2f},\n"
               "    {\"name\": \"best_match_soa\", \"ns_per_op\": %.1f, "
               "\"speedup\": %.2f, \"speedup_vs_batched\": %.2f},\n",
               rpm::bench::HostJson().c_str(), kPatterns, kSeries,
               kSeriesLen, kQueries, kPool, kLen, band, naive_ns, batched_ns,
               speedup, soa_ns, soa_speedup, soa_vs_batched);
  for (const TierRow& row : tier_rows) {
    std::fprintf(f,
                 "    {\"name\": \"best_match_soa_%s\", \"ns_per_op\": %.1f, "
                 "\"speedup\": %.2f},\n",
                 row.name, row.ns, naive_ns / row.ns);
  }
  std::fprintf(f,
               "    {\"name\": \"match_all_seeded\", \"ns_per_op\": %.1f, "
               "\"speedup_vs_matchall\": %.2f},\n",
               seeded_ns, soa_ns / seeded_ns);
  for (const TierRow& row : seeded_rows) {
    std::fprintf(f,
                 "    {\"name\": \"match_all_seeded_%s\", "
                 "\"ns_per_op\": %.1f, \"speedup_vs_matchall\": %.2f},\n",
                 row.name, row.ns, soa_ns / row.ns);
  }
  std::fprintf(f,
               "    {\"name\": \"any_below\", \"ns_per_op\": %.1f, "
               "\"speedup_vs_matchall\": %.2f},\n",
               below_ns, soa_ns / below_ns);
  for (const TierRow& row : below_rows) {
    std::fprintf(f,
                 "    {\"name\": \"any_below_%s\", \"ns_per_op\": %.1f, "
                 "\"speedup_vs_matchall\": %.2f},\n",
                 row.name, row.ns, soa_ns / row.ns);
  }
  std::fprintf(f,
               "    {\"name\": \"dtw_full\", \"ns_per_op\": %.1f, "
               "\"speedup\": 1.0},\n"
               "    {\"name\": \"dtw_cascade\", \"ns_per_op\": %.1f, "
               "\"speedup\": %.2f},\n"
               "    {\"name\": \"crc32\", \"bytes\": %zu, "
               "\"mb_per_s\": %.1f, \"table_mb_per_s\": %.1f, "
               "\"speedup\": %.2f}\n"
               "  ],\n"
               "  \"soa_buckets\": [\n",
               full_ns, cascade_ns, dtw_speedup, kCrcBytes, kernel_mb_s,
               table_mb_s, kernel_mb_s / table_mb_s);
  for (std::size_t b = 0; b < bucket_rows.size(); ++b) {
    const BucketRow& row = bucket_rows[b];
    std::fprintf(f,
                 "    {\"length\": %zu, \"padded\": %zu, \"patterns\": %zu, "
                 "\"ns_per_op\": %.1f}%s\n",
                 row.length, row.padded, row.count, row.ns,
                 b + 1 < bucket_rows.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"checksum_drift\": %.3e,\n"
               "  \"train_kernel_checksum_drift\": %.3e,\n"
               "  \"legacy_checksum_gap\": %.3e,\n"
               "  \"dtw_checksum_drift\": %.3e\n"
               "}\n",
               drift, train_drift, legacy_gap, dtw_drift);
  std::fclose(f);
  std::printf("per-call %.1f ns/op, batched %.1f ns/op (%.2fx), soa %.1f "
              "ns/op (%.2fx, %.2fx vs batched)\n",
              naive_ns, batched_ns, speedup, soa_ns, soa_speedup,
              soa_vs_batched);
  for (const TierRow& row : tier_rows) {
    std::printf("  soa[%s] %.1f ns/op (%.2fx)\n", row.name, row.ns,
                naive_ns / row.ns);
  }
  std::printf("match_all_seeded %.1f ns/op (%.2fx vs matchall), any_below "
              "%.1f ns/op (%.2fx vs matchall)\n",
              seeded_ns, soa_ns / seeded_ns, below_ns, soa_ns / below_ns);
  for (const TierRow& row : seeded_rows) {
    std::printf("  seeded[%s] %.1f ns/op\n", row.name, row.ns);
  }
  for (const TierRow& row : below_rows) {
    std::printf("  any_below[%s] %.1f ns/op\n", row.name, row.ns);
  }
  std::printf("cross-tier checksum drift %.3e (must be 0), train-kernel "
              "drift %.3e (must be 0), legacy gap %.3e\n",
              drift, train_drift, legacy_gap);
  std::printf("dtw full %.1f ns/op, cascade %.1f ns/op, speedup %.2fx "
              "(checksum drift %.3e)\n",
              full_ns, cascade_ns, dtw_speedup, dtw_drift);
  std::printf("crc32 %.1f MB/s, table loop %.1f MB/s (%.2fx) over %zu bytes "
              "-> BENCH_kernels.json\n",
              kernel_mb_s, table_mb_s, kernel_mb_s / table_mb_s, kCrcBytes);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      RunJsonWorkload();
      return 0;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
