// The inference server: registry + batching queue + stats behind one
// facade, with an in-process C++ API (tests, benches, embedding) and
// Dispatch, which runs every protocol verb. Both wire codecs (text lines
// and binary frames, see serve/protocol.h) decode into one Request and
// encode the one Reply, so each verb has exactly one implementation;
// docs/SERVING.md specifies the verbs, their replies and the error
// codes. Apart from stream sessions the protocol carries no connection
// state, so Dispatch and HandleLine are safe to call from any number of
// connection threads concurrently.
//
// Sharding: with ServerOptions::num_shards = S > 1 the server holds S
// independent (BatchingQueue, StreamSessionManager) pairs. A shard is a
// lock domain: feeds into a session on shard i touch only shard i's
// session map, so S reactor threads feeding their own shards never
// contend. Session ids interleave (shard i mints s<i+1>, s<i+1+S>, ...)
// and encode their home shard — FeedStream/CloseStream route by id, so
// the id-only API stays shard-oblivious. The model registry and the
// stats facade remain global: LOAD/UNLOAD are control-plane rare, and
// STATS must aggregate. Defaults (S = 1) behave exactly like the
// pre-sharding server.

#ifndef RPM_SERVE_SERVER_H_
#define RPM_SERVE_SERVER_H_

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/batching_queue.h"
#include "serve/model_registry.h"
#include "serve/protocol.h"
#include "serve/server_stats.h"
#include "stream/session_manager.h"
#include "stream/stream_scorer.h"

namespace rpm::serve {

struct ServerOptions {
  BatchingOptions batching;
  /// Deadline applied to CLASSIFY requests that don't carry their own.
  std::chrono::milliseconds default_timeout{1000};
  /// Stream session limits (max sessions, idle eviction, reaper cadence).
  /// max_sessions is enforced per shard; id_start/id_stride are
  /// overwritten by the server's shard numbering.
  stream::StreamManagerOptions streaming;
  /// Independent queue+session lock domains; see the file comment.
  std::size_t num_shards = 1;
};

class InferenceServer {
 public:
  explicit InferenceServer(ServerOptions options = {});
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  // ---- In-process API ----

  /// Loads (or hot-reloads) a persisted model; returns its pattern count.
  std::size_t LoadModel(const std::string& name, const std::string& path);

  /// Registers an already-trained classifier under `name`.
  void AddModel(const std::string& name, core::RpmClassifier clf);

  /// Removes `name`; in-flight requests on it complete normally.
  bool UnloadModel(const std::string& name);

  /// Enqueues one request; the future resolves when its micro-batch is
  /// dispatched (or it is rejected/timed out).
  std::future<ClassifyResult> ClassifyAsync(
      const std::string& model, ts::Series values,
      std::chrono::microseconds timeout, std::size_t shard = 0);

  /// Callback form for event-driven callers: `done` runs exactly once,
  /// inline for rejections (not-found, overload, shutdown) or on the
  /// shard's dispatcher thread after batch dispatch. Must not block.
  void ClassifyWithCallback(const std::string& model, ts::Series values,
                            std::chrono::microseconds timeout,
                            std::size_t shard, BatchingQueue::Callback done);

  /// Blocking convenience wrapper around ClassifyAsync.
  ClassifyResult Classify(const std::string& model, ts::Series values,
                          std::chrono::microseconds timeout);
  ClassifyResult Classify(const std::string& model, ts::Series values);

  StatsSnapshot Stats() const { return stats_.Snapshot(); }
  ModelRegistry& registry() { return registry_; }
  std::chrono::milliseconds default_timeout() const {
    return options_.default_timeout;
  }

  /// Prometheus text exposition of this server's metric registry plus
  /// the process-default registry (the METRICS response body). Ends
  /// with "# EOF\n".
  std::string MetricsText() const;
  obs::MetricRegistry& metrics() { return stats_.registry(); }

  // ---- Streaming API (protocol-independent) ----

  /// Opens a stream session on `model` pinned to `shard`, holding the
  /// currently loaded version for the session's lifetime (hot reloads
  /// don't affect it). The returned id encodes the shard, so the
  /// id-keyed calls below need no shard argument.
  stream::StreamSessionManager::OpenResult OpenStream(
      const std::string& model, stream::StreamOptions options,
      std::size_t shard = 0);
  /// Routed to the session's home shard by id.
  stream::StreamSessionManager::FeedResult FeedStream(
      const std::string& id, ts::SeriesView values);
  stream::StreamSessionManager::CloseResult CloseStream(
      const std::string& id);

  /// Shard `shard`'s session manager (shard 0 by default, which IS the
  /// whole streaming state on an unsharded server).
  stream::StreamSessionManager& streams(std::size_t shard = 0);
  /// Home shard of a session id ("s<N>" -> (N-1) % num_shards; 0 for
  /// anything unparseable — the lookup there reports NOT_FOUND).
  std::size_t ShardOfStreamId(std::string_view id) const;
  /// Open session ids across every shard, numerically sorted.
  std::vector<std::string> StreamIds() const;
  std::size_t num_shards() const { return shards_.size(); }

  /// Stops admissions, closes stream sessions, drains admitted requests.
  /// Each shard drains its own queue and closes its own sessions, so
  /// every admitted request completes and every session closes exactly
  /// once (STATS: opened == closed + evicted). Idempotent.
  void Shutdown();

  // ---- Protocol ----

  /// Runs one decoded request; the only place verb semantics live. The
  /// request is taken by value so CLASSIFY can move its samples into the
  /// batching queue. `done` is called exactly once — inline for every
  /// verb except CLASSIFY, which answers from shard `shard`'s dispatcher
  /// thread when its micro-batch completes. STREAM_OPEN opens on
  /// `shard`; the other stream verbs run on the calling thread against
  /// the session's home shard.
  using ReplyCallback = std::function<void(const Reply&)>;
  void Dispatch(Request request, std::size_t shard, ReplyCallback done);

  /// One text protocol line (no trailing newline) in, its response line
  /// out: ParseLine, Dispatch on shard 0, FormatLine. Blocks the caller
  /// until CLASSIFY's batch completes, which is what lets concurrent
  /// callers form batches.
  std::string HandleLine(const std::string& line);

 private:
  struct Shard;

  ServerOptions options_;
  ModelRegistry registry_;
  ServerStats stats_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace rpm::serve

#endif  // RPM_SERVE_SERVER_H_
