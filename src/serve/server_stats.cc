#include "serve/server_stats.h"

#include <cstdio>

namespace rpm::serve {

namespace {

// Shared metric names (also referenced by ServerStats::FromMetrics and
// documented in docs/OBSERVABILITY.md).
constexpr char kAdmitted[] = "rpm_serve_requests_admitted_total";
constexpr char kRequests[] = "rpm_serve_requests_total";
constexpr char kLatency[] = "rpm_serve_request_latency_microseconds";
constexpr char kStreamsOpened[] = "rpm_stream_sessions_opened_total";
constexpr char kStreamsClosed[] = "rpm_stream_sessions_closed_total";
constexpr char kStreamsEvicted[] = "rpm_stream_sessions_evicted_total";
constexpr char kOpenSessions[] = "rpm_stream_open_sessions";
constexpr char kStreamSamples[] = "rpm_stream_samples_total";
constexpr char kStreamDecisions[] = "rpm_stream_decisions_total";
constexpr char kStreamEarly[] = "rpm_stream_early_decisions_total";
constexpr char kStreamTruncated[] = "rpm_stream_truncated_feeds_total";
constexpr char kStreamScore[] = "rpm_stream_score_microseconds";

obs::Labels Status(const char* value) { return {{"status", value}}; }

}  // namespace

ServerStats::ServerStats() {
  admitted_ = registry_.GetCounter(kAdmitted,
                                   "CLASSIFY requests admitted for scoring.");
  const char* help = "Requests finished, by terminal status.";
  ok_ = registry_.GetCounter(kRequests, help, Status("ok"));
  timeout_ = registry_.GetCounter(kRequests, help, Status("timeout"));
  not_found_ = registry_.GetCounter(kRequests, help, Status("not_found"));
  rejected_shutdown_ =
      registry_.GetCounter(kRequests, help, Status("rejected_shutdown"));
  latency_us_ = registry_.GetHistogram(
      kLatency, "Receipt-to-completion request latency in microseconds.",
      obs::Histogram::GeometricBounds(1.0, 1.35));
  streams_opened_ =
      registry_.GetCounter(kStreamsOpened, "Stream sessions opened.");
  streams_closed_ = registry_.GetCounter(
      kStreamsClosed, "Stream sessions closed by the client.");
  streams_evicted_ = registry_.GetCounter(
      kStreamsEvicted, "Stream sessions reaped after idle timeout.");
  open_sessions_ =
      registry_.GetGauge(kOpenSessions, "Stream sessions currently open.");
  stream_samples_ = registry_.GetCounter(
      kStreamSamples, "Samples accepted across all stream feeds.");
  stream_decisions_ = registry_.GetCounter(
      kStreamDecisions, "Stream window decisions emitted.");
  stream_early_ = registry_.GetCounter(
      kStreamEarly, "Stream decisions emitted before the window filled.");
  stream_truncated_feeds_ = registry_.GetCounter(
      kStreamTruncated, "Stream feeds truncated by ring backpressure.");
  stream_score_us_ = registry_.GetHistogram(
      kStreamScore, "Per-window stream scoring time in microseconds.",
      obs::Histogram::GeometricBounds(1.0, 1.35));
}

void ServerStats::RecordOk(double latency_us) {
  ok_->Increment();
  latency_us_->Record(latency_us);
}

void ServerStats::RecordTimeout(double latency_us) {
  timeout_->Increment();
  latency_us_->Record(latency_us);
}

void ServerStats::RecordStreamDecision(double score_us, bool early) {
  stream_decisions_->Increment();
  if (early) stream_early_->Increment();
  stream_score_us_->Record(score_us);
}

StatsSnapshot ServerStats::FromMetrics(
    const obs::RegistrySnapshot& metrics) {
  StatsSnapshot snap;
  snap.admitted = metrics.Count(kAdmitted);
  snap.ok = metrics.Count(kRequests, Status("ok"));
  snap.timeout = metrics.Count(kRequests, Status("timeout"));
  snap.not_found = metrics.Count(kRequests, Status("not_found"));
  snap.rejected_shutdown =
      metrics.Count(kRequests, Status("rejected_shutdown"));
  snap.streams_opened = metrics.Count(kStreamsOpened);
  snap.streams_closed = metrics.Count(kStreamsClosed);
  snap.streams_evicted = metrics.Count(kStreamsEvicted);
  snap.stream_samples = metrics.Count(kStreamSamples);
  snap.stream_decisions = metrics.Count(kStreamDecisions);
  snap.stream_early = metrics.Count(kStreamEarly);
  snap.stream_truncated_feeds = metrics.Count(kStreamTruncated);
  if (const auto* h = metrics.FindHistogram(kLatency)) {
    snap.latency_us = h->snapshot;
  }
  if (const auto* h = metrics.FindHistogram(kStreamScore)) {
    snap.stream_score_us = h->snapshot;
  }
  return snap;
}

StatsSnapshot ServerStats::Snapshot() const {
  return FromMetrics(registry_.Snapshot());
}

std::string StatsSnapshot::ToJson() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"admitted\":%llu,\"ok\":%llu,\"timeout\":%llu,"
      "\"not_found\":%llu,\"rejected_shutdown\":%llu,"
      "\"latency_us\":{\"p50\":%.1f,"
      "\"p95\":%.1f,\"p99\":%.1f,\"mean\":%.1f},"
      "\"streams\":{\"opened\":%llu,\"closed\":%llu,\"evicted\":%llu,"
      "\"samples\":%llu,\"decisions\":%llu,\"early\":%llu,"
      "\"truncated_feeds\":%llu,\"score_us\":{\"p50\":%.1f,\"p95\":%.1f,"
      "\"p99\":%.1f,\"mean\":%.1f}}}",
      static_cast<unsigned long long>(admitted),
      static_cast<unsigned long long>(ok),
      static_cast<unsigned long long>(timeout),
      static_cast<unsigned long long>(not_found),
      static_cast<unsigned long long>(rejected_shutdown),
      latency_us.Percentile(50.0), latency_us.Percentile(95.0),
      latency_us.Percentile(99.0), latency_us.Mean(),
      static_cast<unsigned long long>(streams_opened),
      static_cast<unsigned long long>(streams_closed),
      static_cast<unsigned long long>(streams_evicted),
      static_cast<unsigned long long>(stream_samples),
      static_cast<unsigned long long>(stream_decisions),
      static_cast<unsigned long long>(stream_early),
      static_cast<unsigned long long>(stream_truncated_feeds),
      stream_score_us.Percentile(50.0), stream_score_us.Percentile(95.0),
      stream_score_us.Percentile(99.0), stream_score_us.Mean());
  return std::string(buf);
}

}  // namespace rpm::serve
