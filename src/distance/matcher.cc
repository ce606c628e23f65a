#include "distance/matcher.h"

#include <limits>
#include <utility>

#include "distance/pattern_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ts/znorm.h"

namespace rpm::distance {
namespace {

// Process-wide matcher counters (obs::DefaultRegistry — the METRICS
// verb renders them next to the per-server serve/stream metrics).
// Resolved once; incrementing is one relaxed fetch_add per *scan*
// (a scan is O(series length x pattern length) work, so the atomic is
// noise). Never per window.
struct MatcherMetrics {
  obs::Counter* scans;
  obs::Counter* matchall_calls;
  obs::Counter* windows;
  obs::Counter* bucket_scans;

  static const MatcherMetrics& Get() {
    static const MatcherMetrics m = [] {
      auto& reg = obs::DefaultRegistry();
      MatcherMetrics out;
      out.scans = reg.GetCounter(
          "rpm_matcher_scans_total",
          "Pattern-by-series best-match scans (incl. seeded/existence).");
      out.matchall_calls = reg.GetCounter(
          "rpm_matcher_matchall_calls_total",
          "BatchMatcher::MatchAll invocations (one per series transform).");
      out.windows = reg.GetCounter(
          "rpm_matcher_scan_windows_total",
          "Candidate windows covered by best-match scans.");
      out.bucket_scans = reg.GetCounter(
          "rpm_matcher_bucket_scans_total",
          "Length-bucket scans executed by the SoA MatchAll path.");
      return out;
    }();
    return m;
  }
};

// Candidate windows a scan over this pattern/series pair covers.
std::size_t ScanWindows(const PatternContext& pattern,
                        const SeriesContext& series) {
  return pattern.empty() || pattern.size() > series.size()
             ? 0
             : series.size() - pattern.size() + 1;
}

void CountScan(const PatternContext& pattern, const SeriesContext& series) {
  const MatcherMetrics& m = MatcherMetrics::Get();
  m.scans->Increment();
  m.windows->Increment(ScanWindows(pattern, series));
}

}  // namespace

PatternContext::PatternContext(ts::SeriesView pattern)
    : values(pattern.begin(), pattern.end()) {
  const std::size_t n = values.size();
  if (n == 0) return;
  inv_n = 1.0 / static_cast<double>(n);
  for (const double v : values) {
    sum += v;
    sum_sq += v * v;
  }
}

SeriesContext::SeriesContext(ts::SeriesView series) { Assign(series); }

void SeriesContext::Assign(ts::SeriesView series) {
  data_ = series;
  const std::size_t m = data_.size();
  prefix_.resize(m + 1);
  prefix_sq_.resize(m + 1);
  prefix_[0] = 0.0;
  prefix_sq_[0] = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    prefix_[i + 1] = prefix_[i] + data_[i];
    prefix_sq_[i + 1] = prefix_sq_[i] + data_[i] * data_[i];
  }
}

void SeriesContext::WindowMoments(std::size_t pos, std::size_t len,
                                  double* mu, double* inv_sigma) const {
  if (len == 1) {
    // A single-point window is exactly flat; computing it through the
    // prefix sums would leave cancellation noise above the flat
    // threshold.
    *mu = data_[pos];
    *inv_sigma = 1.0;
    return;
  }
  const double inv_len = 1.0 / static_cast<double>(len);
  const double sum = prefix_[pos + len] - prefix_[pos];
  const double sum_sq = prefix_sq_[pos + len] - prefix_sq_[pos];
  // Shared sum-to-moments recurrence (flat rule folds into sigma = 1.0,
  // so the inverse is the legacy inv_sigma in both branches).
  double sigma = 0.0;
  ts::WindowMomentsFromSums(sum, sum_sq, inv_len, mu, &sigma);
  *inv_sigma = 1.0 / sigma;
}

BestMatch BatchedBestMatch(const PatternContext& pattern,
                           const SeriesContext& series) {
  return BatchedBestMatch(pattern, series,
                          std::numeric_limits<double>::infinity());
}

BestMatch BatchedBestMatch(const PatternContext& pattern,
                           const SeriesContext& series, double cutoff) {
  CountScan(pattern, series);
  return PatternStore::MatchOne(pattern, series, cutoff);
}

bool BatchedMatchBelow(const PatternContext& pattern,
                       const SeriesContext& series, double cutoff) {
  CountScan(pattern, series);
  return PatternStore::BelowOne(pattern, series, cutoff);
}

BatchMatcher::BatchMatcher() = default;

BatchMatcher::BatchMatcher(const std::vector<ts::Series>& patterns) {
  patterns_.reserve(patterns.size());
  for (const auto& p : patterns) patterns_.emplace_back(p);
}

// Copies/moves transfer the contexts only; the SoA store is derived
// state and rebuilds lazily in the destination (copying the arena would
// buy nothing — builds are cold-path).
BatchMatcher::BatchMatcher(const BatchMatcher& other)
    : patterns_(other.patterns_) {}

BatchMatcher& BatchMatcher::operator=(const BatchMatcher& other) {
  if (this != &other) {
    patterns_ = other.patterns_;
    store_.reset();
  }
  return *this;
}

BatchMatcher::BatchMatcher(BatchMatcher&& other) noexcept
    : patterns_(std::move(other.patterns_)),
      store_(std::move(other.store_)) {}

BatchMatcher& BatchMatcher::operator=(BatchMatcher&& other) noexcept {
  if (this != &other) {
    patterns_ = std::move(other.patterns_);
    store_ = std::move(other.store_);
  }
  return *this;
}

BatchMatcher::~BatchMatcher() = default;

void BatchMatcher::Add(ts::SeriesView pattern) {
  patterns_.emplace_back(pattern);
  store_.reset();  // single-threaded setup phase; rebuilt on next MatchAll
}

PatternStore& BatchMatcher::EnsureStore() const {
  // Adds happen-before any parallel matching (the transform snapshots
  // the matcher before fanning out), so the only race the lock guards is
  // several workers arriving at the first lazy build together.
  std::lock_guard<std::mutex> lock(store_mutex_);
  if (!store_) {
    auto built = std::make_unique<PatternStore>();
    built->Build(patterns_);
    store_ = std::move(built);
  }
  return *store_;
}

const PatternStore& BatchMatcher::store() const { return EnsureStore(); }

void BatchMatcher::MatchAll(const SeriesContext& series,
                            MatchScratch* scratch,
                            std::vector<BestMatch>* out) const {
  const MatcherMetrics& metrics = MatcherMetrics::Get();
  metrics.matchall_calls->Increment();
  // Sampled span over the whole K-pattern scan; a relaxed load + branch
  // when tracing is off.
  obs::TraceSpan span("matcher.match_all");
  // Same per-scan accounting as K individual BatchedBestMatch calls, so
  // the counters stay comparable across the per-pattern and SoA paths.
  metrics.scans->Increment(patterns_.size());
  std::size_t windows = 0;
  for (const auto& p : patterns_) windows += ScanWindows(p, series);
  metrics.windows->Increment(windows);

  const std::size_t buckets = EnsureStore().MatchAll(series, scratch, out);
  metrics.bucket_scans->Increment(buckets);
}

std::vector<BestMatch> BatchMatcher::MatchAll(
    const SeriesContext& series) const {
  MatchScratch scratch;
  std::vector<BestMatch> out;
  MatchAll(series, &scratch, &out);
  return out;
}

void BatchMatcher::MatchAllSeeded(const SeriesContext& series,
                                  MatchScratch* scratch,
                                  const std::vector<double>& seeds,
                                  std::vector<BestMatch>* out) const {
  const MatcherMetrics& metrics = MatcherMetrics::Get();
  metrics.matchall_calls->Increment();
  obs::TraceSpan span("matcher.match_all");
  // Same per-scan accounting as K individual seeded BatchedBestMatch
  // calls (the windows a seed prunes still count as covered, exactly as
  // in the per-pattern path's accounting).
  metrics.scans->Increment(patterns_.size());
  std::size_t windows = 0;
  for (const auto& p : patterns_) windows += ScanWindows(p, series);
  metrics.windows->Increment(windows);

  const std::size_t buckets =
      EnsureStore().MatchAllSeeded(series, scratch, seeds, out);
  metrics.bucket_scans->Increment(buckets);
}

bool BatchMatcher::AnyBelow(const SeriesContext& series,
                            MatchScratch* scratch, double tau,
                            std::vector<std::uint8_t>* below) const {
  const MatcherMetrics& metrics = MatcherMetrics::Get();
  metrics.scans->Increment(patterns_.size());
  std::size_t windows = 0;
  for (const auto& p : patterns_) windows += ScanWindows(p, series);
  metrics.windows->Increment(windows);
  return EnsureStore().AnyBelow(series, scratch, tau, below);
}

}  // namespace rpm::distance
