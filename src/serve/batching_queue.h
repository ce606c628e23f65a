// Micro-batching request queue with admission control and graceful drain.
//
// Concurrent single-instance CLASSIFY requests are collected into
// per-model micro-batches so the warm ClassificationEngine and the PR-1
// thread pool amortize their work across co-travelling requests:
//
//  * Batch formation: the dispatcher takes the oldest queued request and
//    lingers up to `max_linger` (or until `max_batch_size` requests for
//    the same model are queued) before dispatching, so bursts ride in one
//    batch. Under sustained load the linger never triggers — batches fill
//    from backpressure while the previous batch computes.
//  * Admission control: a request arriving while the queue already holds
//    `max_queue_depth` entries is shed immediately with kOverloaded —
//    bounded queues and an explicit error beat unbounded latency.
//  * Deadlines: each request carries an absolute deadline, checked at
//    dispatch time; expired requests complete with kTimeout without
//    being classified (their slot is not wasted on a stale answer).
//  * Drain: Shutdown() rejects new work with kShutdown but completes
//    every admitted request (lingering is skipped while draining), then
//    joins the dispatcher.
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
#include <future>
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

struct BatchingOptions {
  /// Requests per dispatched micro-batch, upper bound.
  std::size_t max_batch_size = 32;
  /// How long the oldest queued request may wait for co-travellers.
  std::chrono::microseconds max_linger{2000};
  /// Queued requests beyond which submissions are shed (kOverloaded).
  std::size_t max_queue_depth = 1024;
  /// Pool workers per batch dispatch (0 = hardware concurrency).
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

  /// Enqueues one request. Rejections (overload, shutdown) resolve the
  /// future immediately; admitted requests resolve when their batch is
  /// dispatched or their deadline lapses. Never blocks on classification.
  std::future<ClassifyResult> Submit(ModelHandle model, ts::Series values,
                                     Clock::time_point deadline);

  /// Completion delivered by callback instead of future — the form the
  /// event-driven front end needs (no thread parked on a future). `done`
  /// is invoked exactly once, outside the queue lock: on the submitting
  /// thread for rejections, on the dispatcher thread otherwise. It must
  /// not block (it runs inline in the dispatch path).
  using Callback = std::function<void(ClassifyResult)>;
  void SubmitWithCallback(ModelHandle model, ts::Series values,
                          Clock::time_point deadline, Callback done);

  /// Stops admissions, drains every admitted request, joins the
  /// dispatcher. Idempotent; also run by the destructor.
  void Shutdown();

  /// Queued (not yet dispatched) requests right now.
  std::size_t depth() const;

 private:
  struct Request {
    ModelHandle model;
    ts::Series values;
    Clock::time_point deadline;
    Clock::time_point enqueue_time;
    Callback done;
  };

  void DispatcherLoop();
  /// Queued requests for `model`, front-of-queue model only (locked).
  std::size_t CountFor(const LoadedModel* model) const;
  /// Removes up to max_batch_size requests for `model` (locked).
  std::vector<Request> ExtractBatch(const LoadedModel* model);
  /// Classifies a formed batch and resolves its promises (unlocked).
  void RunBatch(std::vector<Request> batch);

  const BatchingOptions options_;
  ServerStats* const stats_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool shutdown_ = false;
  std::mutex join_mutex_;  // serializes concurrent Shutdown joins
  std::thread dispatcher_;
};

}  // namespace rpm::serve

#endif  // RPM_SERVE_BATCHING_QUEUE_H_
