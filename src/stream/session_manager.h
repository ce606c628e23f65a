// Per-session state for the streaming subsystem: owns one StreamScorer
// per open stream, keyed by a monotonic session id, with idle eviction
// and a hard session cap so memory stays bounded no matter how many
// clients connect and walk away.
//
// Concurrency model: a shared_mutex guards the id -> session map;
// feeds/closes take a shared lock to find the session, then serialize on
// the session's own mutex. Feeds to *different* sessions run fully in
// parallel; two feeds to the same session are ordered (the scorer is a
// deterministic state machine, so order is the only thing that matters).
// Sessions are shared_ptr-held: eviction can drop a session from the map
// while a feed is mid-flight on it — the feed finishes on its pinned
// pointer and the state is freed afterwards.
//
// The layer below serve: no protocol, no sockets, no ServerStats — the
// serving layer adapts its stats object to StreamStatsSink.

#ifndef RPM_STREAM_SESSION_MANAGER_H_
#define RPM_STREAM_SESSION_MANAGER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/classifier.h"
#include "stream/stream_scorer.h"
#include "ts/series.h"

namespace rpm::stream {

/// A model pinned for the lifetime of a stream session. `owner` keeps the
/// storage alive (e.g. the serving layer's loaded-model handle); `engine`
/// points into it. Hot-reloading a model therefore never invalidates open
/// sessions — they keep classifying against the version they opened with.
struct StreamModel {
  std::shared_ptr<const void> owner;
  const core::ClassificationEngine* engine = nullptr;
};

/// Observer for stream lifecycle and throughput events. Implementations
/// must be thread-safe; callbacks fire on feeder and reaper threads.
class StreamStatsSink {
 public:
  virtual ~StreamStatsSink() = default;
  virtual void OnOpen() {}
  virtual void OnClose() {}
  virtual void OnEvict() {}
  /// After each feed: samples stored, and whether the ring refused a
  /// suffix (backpressure).
  virtual void OnFeed(std::size_t accepted, bool truncated) {
    (void)accepted;
    (void)truncated;
  }
  virtual void OnDecision(double score_us, bool early) {
    (void)score_us;
    (void)early;
  }
};

struct StreamManagerOptions {
  /// Hard cap on concurrently open sessions; Open fails beyond it.
  std::size_t max_sessions = 256;
  /// Sessions idle longer than this are evicted by the reaper (zero
  /// disables time-based eviction; EvictIdle can still be called).
  std::chrono::nanoseconds idle_timeout = std::chrono::minutes(5);
  /// How often the background reaper wakes (zero: no reaper thread).
  std::chrono::nanoseconds reap_interval = std::chrono::seconds(1);
  /// Session id numbering: ids are "s<N>" with N = id_start, id_start +
  /// id_stride, ... A sharded server gives shard i (of S) id_start=i+1,
  /// id_stride=S, so ids stay globally unique and (N-1) % S recovers the
  /// owning shard from the id alone (see serve::InferenceServer).
  /// Defaults preserve the historical s1, s2, ... sequence.
  std::uint64_t id_start = 1;
  std::uint64_t id_stride = 1;
};

/// Summary of a session's lifetime counters, returned by Close and used
/// by the protocol layer's "OK closed" reply.
struct StreamSummary {
  std::uint64_t samples = 0;
  std::uint64_t windows_scored = 0;
  std::uint64_t decisions = 0;
  std::uint64_t early_decisions = 0;
};

class StreamSessionManager {
 public:
  explicit StreamSessionManager(StreamManagerOptions options = {},
                                StreamStatsSink* sink = nullptr);
  ~StreamSessionManager();

  StreamSessionManager(const StreamSessionManager&) = delete;
  StreamSessionManager& operator=(const StreamSessionManager&) = delete;

  /// Why an Open failed. kNotFound is the caller's: the manager takes a
  /// model, not a name (serve::InferenceServer::OpenStream sets it).
  enum class OpenStatus { kOk, kInvalid, kNotFound, kOverloaded, kShutdown };
  struct OpenResult {
    bool ok = false;
    OpenStatus status = OpenStatus::kInvalid;
    std::string id;     ///< "s<N>" on success
    std::string error;  ///< why not, on failure
  };
  /// Validates `options`, pins `model`, and registers a new session.
  OpenResult Open(StreamModel model, StreamOptions options);

  enum class FeedStatus { kOk, kNotFound, kShutdown };
  struct FeedResult {
    FeedStatus status = FeedStatus::kOk;
    std::size_t accepted = 0;  ///< samples stored (may be < offered)
    std::vector<StreamDecision> decisions;
  };
  FeedResult Feed(const std::string& id, ts::SeriesView values);

  struct CloseResult {
    bool found = false;
    StreamSummary summary;
  };
  CloseResult Close(const std::string& id);

  /// Open session ids, sorted.
  std::vector<std::string> Ids() const;
  std::size_t size() const;

  /// Evicts sessions idle for at least `idle_for`; returns how many.
  std::size_t EvictIdle(std::chrono::nanoseconds idle_for);

  /// Closes every session and stops the reaper; Open/Feed fail afterwards.
  void Shutdown();

 private:
  struct Session {
    Session(StreamModel m, const StreamOptions& opts)
        : model(std::move(m)), scorer(model.engine, opts) {}
    std::mutex mu;  // serializes Feed/summary on this session
    StreamModel model;
    StreamScorer scorer;
    std::atomic<std::int64_t> last_activity_ns{0};
  };

  static StreamSummary Summarize(const StreamScorer& scorer);
  std::int64_t NowNs() const;
  void ReaperLoop();

  const StreamManagerOptions options_;
  StreamStatsSink* const sink_;  // may be null

  mutable std::shared_mutex map_mu_;
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions_;
  std::uint64_t next_id_;  // advances by options_.id_stride per Open
  bool shutdown_ = false;

  std::mutex reaper_mu_;
  std::condition_variable reaper_cv_;
  bool reaper_stop_ = false;
  std::thread reaper_;
};

}  // namespace rpm::stream

#endif  // RPM_STREAM_SESSION_MANAGER_H_
