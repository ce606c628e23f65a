// Unified metric registry: named counters, gauges, and fixed-bucket
// histograms with lock-free recording.
//
// The serve, stream and matcher layers register their cells here, and
// one Snapshot() feeds both the STATS JSON facade and the Prometheus
// text expositor (obs/exposition.h), so the two can never disagree
// about what happened. Training phase timers are not here yet: they are
// still core/phase_profile's own process-wide accumulators.
//
// Cost model:
//  * Recording (Counter::Increment, Gauge::Set/Add, Histogram::Record)
//    is a handful of relaxed atomic operations — no locks, no
//    allocation, safe from any thread including pool workers.
//  * Registration (GetCounter/GetGauge/GetHistogram) takes the registry
//    mutex and may allocate; it happens at construction/startup, not on
//    hot paths. Cells are deduplicated by (name, labels), so repeated
//    registration returns the same cell. Cell pointers are stable for
//    the registry's lifetime (cells are individually heap-allocated).
//  * Snapshot() takes the mutex only to walk the cell list; the values
//    it copies are relaxed loads. A snapshot taken while writers are
//    active is internally consistent per cell but not across cells —
//    the usual contract for serving metrics.
//
// Naming follows the Prometheus conventions documented in
// docs/OBSERVABILITY.md: snake_case, unit suffix (`_microseconds`,
// `_bytes`), `_total` for counters; label sets are fixed at
// registration (one cell per label combination).

#ifndef RPM_OBS_METRICS_H_
#define RPM_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace rpm::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous integer level (queue depth, open sessions, ...).
class Gauge {
 public:
  void Set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Plain-value copy of one histogram, taken by a registry snapshot.
/// counts has upper_bounds.size() + 1 entries: the last cell is the
/// overflow bucket (values above every finite bound — rendered as the
/// `+Inf` bucket in the Prometheus exposition).
struct HistogramSnapshot {
  std::vector<double> upper_bounds;   ///< finite bucket upper edges
  std::vector<std::uint64_t> counts;  ///< per-bucket counts + overflow
  std::uint64_t total = 0;            ///< sum of counts
  double sum = 0.0;                   ///< sum of recorded values

  /// Upper bound of the bucket holding the p-th percentile (p in
  /// [0, 100]); 0 when empty. Overflow-bucket hits report the highest
  /// finite bound so the result is always renderable.
  double Percentile(double p) const;
  double Mean() const { return total == 0 ? 0.0 : sum / double(total); }
};

/// Fixed-bucket histogram with relaxed atomic cells. Bounds are
/// immutable after construction, so Record is wait-free.
class Histogram {
 public:
  static constexpr std::size_t kMaxBuckets = 64;

  /// Ascending finite bucket bounds [0, b0], (b0, b1], ...; values above
  /// the last bound land in the overflow (+Inf) bucket. At most
  /// kMaxBuckets bounds; extras are dropped.
  static std::vector<double> GeometricBounds(double first, double growth,
                                             std::size_t n = kMaxBuckets);
  static std::vector<double> LinearBounds(double step,
                                          std::size_t n = kMaxBuckets);

  explicit Histogram(const std::vector<double>& bounds);

  void Record(double value);
  HistogramSnapshot Snapshot() const;

 private:
  std::size_t num_bounds_ = 0;
  std::array<double, kMaxBuckets> bounds_{};
  // counts_[num_bounds_] is the overflow bucket.
  std::array<std::atomic<std::uint64_t>, kMaxBuckets + 1> counts_{};
  std::atomic<std::uint64_t> total_{0};
  // Value sum accumulated in integer milli-units so the add is a plain
  // atomic fetch_add (no CAS loop).
  std::atomic<std::uint64_t> sum_milli_{0};
};

/// One label key/value pair; label sets are fixed at registration.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Point-in-time copy of one scalar cell.
struct ScalarSample {
  std::string name;
  std::string help;
  Labels labels;
  double value = 0.0;
  bool is_counter = false;  ///< false: gauge
};

/// Point-in-time copy of one histogram cell.
struct HistogramSample {
  std::string name;
  std::string help;
  Labels labels;
  HistogramSnapshot snapshot;
};

/// Point-in-time copy of every cell in one registry, in registration
/// order. Both the STATS JSON facade and the Prometheus expositor read
/// this type, so one snapshot serves both texts.
struct RegistrySnapshot {
  std::vector<ScalarSample> scalars;
  std::vector<HistogramSample> histograms;

  /// Counter/gauge value by (name, labels); 0 when absent.
  double Scalar(const std::string& name, const Labels& labels = {}) const;
  /// Counter/gauge value as an integer count; 0 when absent.
  std::uint64_t Count(const std::string& name,
                      const Labels& labels = {}) const;
  /// Histogram by name (first label set); nullptr when absent.
  const HistogramSample* FindHistogram(const std::string& name) const;
};

/// A named set of metric cells. Thread-safe; see the cost model above.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Find-or-create the cell for (name, labels). `help` is recorded on
  /// first registration. Returned pointers stay valid for the
  /// registry's lifetime.
  Counter* GetCounter(const std::string& name, const std::string& help,
                      const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const std::string& help,
                  const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const std::string& help,
                          const std::vector<double>& bounds,
                          const Labels& labels = {});

  RegistrySnapshot Snapshot() const;

 private:
  struct Cell {
    std::string name;
    std::string help;
    Labels labels;
    // Exactly one of these is set (tagged by which pointer is non-null).
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Registration key: name plus rendered label set.
  static std::string Key(const std::string& name, const Labels& labels);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Cell>> cells_;  // registration order
  std::map<std::string, Cell*> index_;
};

/// The process-wide registry for subsystem-level metrics (the batched
/// matcher, training internals) that are not tied to one server
/// instance. Server-scoped metrics (serve/stream) live in the server's
/// own registry (serve/server_stats.h); the METRICS verb renders both.
MetricRegistry& DefaultRegistry();

}  // namespace rpm::obs

#endif  // RPM_OBS_METRICS_H_
