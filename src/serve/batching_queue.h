// Micro-batching request queue with admission control and graceful drain.
//
// Concurrent single-instance CLASSIFY requests are collected into
// per-model micro-batches so the warm ClassificationEngine and the PR-1
// thread pool amortize their work across co-travelling requests:
//
//  * Batch formation: whenever the dispatcher is free it takes up to
//    kMaxBatchSize queued requests for the front request's model. It
//    never waits for co-travellers: a lone request is scored at once,
//    and batches form only from requests that arrived while the previous
//    batch was computing.
//  * Admission control: a request arriving while the queue already holds
//    `max_queue_depth` entries is shed immediately with kOverloaded —
//    bounded queues and an explicit error beat unbounded latency.
//  * Deadlines: each request carries an absolute deadline, checked at
//    dispatch time; expired requests complete with kTimeout without
//    being classified (their slot is not wasted on a stale answer).
//  * Drain: Shutdown() rejects new work with kShutdown but completes
//    every admitted request, then joins the dispatcher.
//
// The queue never touches model lifetime: each request pins its model via
// a ModelHandle, so hot reload/unload during a batch is safe.

#ifndef RPM_SERVE_BATCHING_QUEUE_H_
#define RPM_SERVE_BATCHING_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/model_registry.h"
#include "serve/server_stats.h"
#include "ts/series.h"

namespace rpm::serve {

/// Terminal status of one request. The values are the binary protocol's
/// WireStatus bytes (pinned in serve/protocol.cc).
enum class StatusCode {
  kOk,          ///< classified; `label` is valid
  kTimeout,     ///< deadline expired before dispatch
  kOverloaded,  ///< shed by admission control (queue full)
  kNotFound,    ///< no model registered under the requested name
  kShutdown,    ///< submitted after Shutdown began
  kBadRequest,  ///< protocol replies only: malformed or refused request
};

/// Protocol-stable name of a status ("OK", "TIMEOUT", ...).
std::string_view StatusName(StatusCode status);

struct ClassifyResult {
  StatusCode status = StatusCode::kOk;
  int label = 0;
  /// Submit -> completion wall time (0 for requests rejected on submit).
  double latency_us = 0.0;
};

/// Requests per dispatched micro-batch, upper bound.
inline constexpr std::size_t kMaxBatchSize = 32;

struct BatchingOptions {
  /// Queued requests beyond which submissions are shed (kOverloaded).
  std::size_t max_queue_depth = 1024;
  /// Pool workers per batch dispatch (0 = ts::DefaultThreads(), the
  /// CPUs in the calling thread's affinity mask).
  std::size_t num_threads = 0;
};

class BatchingQueue {
 public:
  using Clock = std::chrono::steady_clock;

  /// `stats` must outlive the queue.
  BatchingQueue(BatchingOptions options, ServerStats* stats);
  ~BatchingQueue();

  BatchingQueue(const BatchingQueue&) = delete;
  BatchingQueue& operator=(const BatchingQueue&) = delete;

  /// Enqueues one request without blocking on classification. `done` is
  /// invoked exactly once, outside the queue lock: on the submitting
  /// thread for rejections (overload, shutdown), on the dispatcher thread
  /// when the request's batch is dispatched or its deadline lapses. It
  /// must not block (it runs inline in the dispatch path).
  using Callback = std::function<void(ClassifyResult)>;
  void SubmitWithCallback(ModelHandle model, ts::Series values,
                          Clock::time_point deadline, Callback done);

  /// Stops admissions, drains every admitted request, joins the
  /// dispatcher. Idempotent; also run by the destructor.
  void Shutdown();

 private:
  struct Request {
    ModelHandle model;
    ts::Series values;
    Clock::time_point deadline;
    Clock::time_point enqueue_time;
    Callback done;
  };

  void DispatcherLoop();
  /// Removes up to kMaxBatchSize requests for `model` (locked).
  std::vector<Request> ExtractBatch(const LoadedModel* model);
  /// Classifies a formed batch and runs its callbacks (unlocked).
  void RunBatch(std::vector<Request> batch);

  const BatchingOptions options_;
  ServerStats* const stats_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool shutdown_ = false;
  std::mutex join_mutex_;  // serializes concurrent Shutdown joins
  std::thread dispatcher_;
};

}  // namespace rpm::serve

#endif  // RPM_SERVE_BATCHING_QUEUE_H_
