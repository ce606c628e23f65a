// Serving metrics facade over the unified observability registry
// (obs/metrics.h).
//
// ServerStats used to own its own bespoke atomics and histograms; it is
// now a thin facade that resolves named cells out of an
// obs::MetricRegistry once at construction and forwards every Record*
// call to them — still lock-free, no allocation on the hot path. The
// payoff is a single source of truth: the STATS JSON snapshot and the
// METRICS Prometheus exposition are both derived from the *same*
// registry (one Snapshot() can feed both), so request counts can never
// disagree between the two views.
//
// Latency percentiles come from a geometric fixed-bucket histogram
// (64 buckets, ~26% resolution per bucket over ~1us..~3e8us);
// percentile values are bucket upper bounds, so they are exact to
// bucket resolution.
//
// Metric names and units are documented in docs/OBSERVABILITY.md.

#ifndef RPM_SERVE_SERVER_STATS_H_
#define RPM_SERVE_SERVER_STATS_H_

#include <cstdint>
#include <string>

#include "obs/metrics.h"

namespace rpm::serve {

/// Kept as the historical name; the layout (counts, upper_bounds,
/// total, sum, Percentile, Mean) is unchanged apart from the explicit
/// overflow bucket at the end of `counts`.
using HistogramSnapshot = obs::HistogramSnapshot;

/// Point-in-time copy of every serving metric, shaped for the STATS
/// JSON response. Derived from an obs::RegistrySnapshot — see
/// ServerStats::FromMetrics.
struct StatsSnapshot {
  std::uint64_t admitted = 0;   ///< CLASSIFY requests admitted
  std::uint64_t ok = 0;         ///< completed with a label
  std::uint64_t timeout = 0;    ///< deadline passed before scoring
  std::uint64_t not_found = 0;  ///< unknown model name
  std::uint64_t rejected_shutdown = 0;  ///< submitted after Shutdown
  std::uint64_t streams_opened = 0;
  std::uint64_t streams_closed = 0;
  std::uint64_t streams_evicted = 0;       ///< idle-reaped sessions
  std::uint64_t stream_samples = 0;        ///< samples accepted across feeds
  std::uint64_t stream_decisions = 0;      ///< decisions emitted
  std::uint64_t stream_early = 0;          ///< of which early
  std::uint64_t stream_truncated_feeds = 0;  ///< feeds hit backpressure
  HistogramSnapshot latency_us;       ///< receipt -> completion, microseconds
  HistogramSnapshot stream_score_us;  ///< per-window scoring time

  /// One-line JSON rendering (the STATS protocol response body).
  std::string ToJson() const;
};

/// The metric set of one server instance, registered in a per-server
/// obs::MetricRegistry. All recorders are lock-free and safe to call
/// from any thread.
class ServerStats {
 public:
  ServerStats();

  void RecordAdmitted() { admitted_->Increment(); }
  void RecordOk(double latency_us);
  void RecordTimeout(double latency_us);
  void RecordNotFound() { not_found_->Increment(); }
  void RecordRejectedShutdown() { rejected_shutdown_->Increment(); }

  void RecordStreamOpen() {
    streams_opened_->Increment();
    open_sessions_->Add(1);
  }
  void RecordStreamClose() {
    streams_closed_->Increment();
    open_sessions_->Add(-1);
  }
  void RecordStreamEvict() {
    streams_evicted_->Increment();
    open_sessions_->Add(-1);
  }
  void RecordStreamFeed(std::size_t accepted, bool truncated) {
    stream_samples_->Increment(accepted);
    if (truncated) stream_truncated_feeds_->Increment();
  }
  void RecordStreamDecision(double score_us, bool early);

  StatsSnapshot Snapshot() const;

  /// Shapes a registry snapshot into the STATS struct. Taking one
  /// registry snapshot and feeding it to both FromMetrics and the
  /// Prometheus expositor guarantees STATS and METRICS agree.
  static StatsSnapshot FromMetrics(const obs::RegistrySnapshot& metrics);

  /// The registry all of this server's cells live in (the METRICS verb
  /// renders it, together with obs::DefaultRegistry()).
  obs::MetricRegistry& registry() { return registry_; }
  const obs::MetricRegistry& registry() const { return registry_; }

 private:
  obs::MetricRegistry registry_;
  obs::Counter* admitted_;
  obs::Counter* ok_;
  obs::Counter* timeout_;
  obs::Counter* not_found_;
  obs::Counter* rejected_shutdown_;
  obs::Counter* streams_opened_;
  obs::Counter* streams_closed_;
  obs::Counter* streams_evicted_;
  obs::Gauge* open_sessions_;
  obs::Counter* stream_samples_;
  obs::Counter* stream_decisions_;
  obs::Counter* stream_early_;
  obs::Counter* stream_truncated_feeds_;
  obs::Histogram* latency_us_;
  obs::Histogram* stream_score_us_;
};

}  // namespace rpm::serve

#endif  // RPM_SERVE_SERVER_STATS_H_
