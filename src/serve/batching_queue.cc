#include "serve/batching_queue.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"
#include "ts/parallel.h"

namespace rpm::serve {

std::string_view StatusName(StatusCode status) {
  switch (status) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kTimeout:
      return "TIMEOUT";
    case StatusCode::kOverloaded:
      return "OVERLOADED";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kShutdown:
      return "SHUTDOWN";
    case StatusCode::kBadRequest:
      return "BAD_REQUEST";
  }
  return "UNKNOWN";
}

namespace {

double MicrosSince(BatchingQueue::Clock::time_point t0,
                   BatchingQueue::Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

}  // namespace

BatchingQueue::BatchingQueue(BatchingOptions options, ServerStats* stats)
    : options_([&] {
        BatchingOptions o = options;
        if (o.num_threads == 0) o.num_threads = ts::DefaultThreads();
        return o;
      }()),
      stats_(stats),
      dispatcher_([this] { DispatcherLoop(); }) {}

BatchingQueue::~BatchingQueue() { Shutdown(); }

void BatchingQueue::SubmitWithCallback(ModelHandle model, ts::Series values,
                                       Clock::time_point deadline,
                                       Callback done) {
  ClassifyResult rejection;
  bool rejected = false;
  {
    std::unique_lock lock(mutex_);
    if (shutdown_) {
      stats_->RecordRejectedShutdown();
      rejection = {StatusCode::kShutdown, 0, 0.0};
      rejected = true;
    } else if (queue_.size() >= options_.max_queue_depth) {
      stats_->RecordShed();
      rejection = {StatusCode::kOverloaded, 0, 0.0};
      rejected = true;
    } else {
      Request req;
      req.model = std::move(model);
      req.values = std::move(values);
      req.deadline = deadline;
      req.enqueue_time = Clock::now();
      req.done = std::move(done);
      queue_.push_back(std::move(req));
      stats_->RecordAdmitted();
      stats_->RecordQueueDepth(queue_.size());
    }
  }
  if (rejected) {
    done(rejection);  // outside the lock: callbacks may re-enter
    return;
  }
  cv_.notify_all();
}

void BatchingQueue::Shutdown() {
  {
    std::unique_lock lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  // Serialized so concurrent Shutdown calls don't race on join.
  std::lock_guard join_guard(join_mutex_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::vector<BatchingQueue::Request> BatchingQueue::ExtractBatch(
    const LoadedModel* model) {
  std::vector<Request> batch;
  batch.reserve(std::min(queue_.size(), kMaxBatchSize));
  for (auto it = queue_.begin();
       it != queue_.end() && batch.size() < kMaxBatchSize;) {
    if (it->model.get() == model) {
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  stats_->RecordQueueDepth(queue_.size());
  return batch;
}

void BatchingQueue::DispatcherLoop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shut down and drained
    // Dispatch when free: no waiting for co-travellers. The batch holds
    // whatever queued for the front model while the last batch computed.
    std::vector<Request> batch = ExtractBatch(queue_.front().model.get());
    lock.unlock();
    RunBatch(std::move(batch));
    lock.lock();
  }
}

void BatchingQueue::RunBatch(std::vector<Request> batch) {
  const auto dispatch_time = Clock::now();
  // Split expired requests out; they complete with kTimeout and never
  // reach the engine.
  std::vector<Request> live;
  live.reserve(batch.size());
  for (Request& req : batch) {
    if (dispatch_time >= req.deadline) {
      const double lat = MicrosSince(req.enqueue_time, dispatch_time);
      stats_->RecordTimeout(lat);
      req.done({StatusCode::kTimeout, 0, lat});
    } else {
      live.push_back(std::move(req));
    }
  }
  if (live.empty()) return;

  const LoadedModel& model = *live.front().model;
  std::vector<ts::Series> values;
  values.reserve(live.size());
  for (Request& req : live) values.push_back(std::move(req.values));
  const std::vector<int> labels =
      model.engine.ClassifyBatch(values, options_.num_threads);

  const auto done_time = Clock::now();
  // Span over batch classification, reusing the timestamps measured for
  // latency accounting (no extra clock reads; sampled inside).
  obs::Tracer::Default().MaybeRecord("serve.batch", dispatch_time,
                                     done_time);
  stats_->RecordBatch(live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    const double lat = MicrosSince(live[i].enqueue_time, done_time);
    stats_->RecordOk(lat);
    live[i].done({StatusCode::kOk, labels[i], lat});
  }
}

}  // namespace rpm::serve
