#include "ts/thread_pool.h"

#include <algorithm>
#include <utility>

namespace rpm::ts {

namespace {

// Set while a thread (worker or submitter) is executing job chunks.
// Nested ParallelFor calls from such a thread run inline: the pool admits
// one job at a time, so waiting on it from inside a job would deadlock.
thread_local bool tls_inside_job = false;

// Marks this thread as inside a job for the scope's lifetime and restores
// the previous state on every exit, an exception from fn included.
class InsideJobScope {
 public:
  InsideJobScope() : was_inside_(tls_inside_job) { tls_inside_job = true; }
  ~InsideJobScope() { tls_inside_job = was_inside_; }
  InsideJobScope(const InsideJobScope&) = delete;
  InsideJobScope& operator=(const InsideJobScope&) = delete;

 private:
  const bool was_inside_;
};

}  // namespace

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  job_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::num_workers() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return workers_.size();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::EnsureWorkers(std::size_t count) {
  count = std::min(count, kMaxWorkers);
  std::lock_guard<std::mutex> lock(mutex_);
  while (workers_.size() < count) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::RunChunks() {
  InsideJobScope inside;
  // Job geometry is immutable while the job is open, and this thread
  // observed the open job under mutex_, so unlocked reads are safe.
  const std::function<void(std::size_t)>& fn = *fn_;
  const std::size_t n = n_;
  const std::size_t chunk = chunk_;
  const std::size_t num_chunks = num_chunks_;
  for (std::size_t c = next_chunk_.fetch_add(1, std::memory_order_relaxed);
       c < num_chunks;
       c = next_chunk_.fetch_add(1, std::memory_order_relaxed)) {
    const std::size_t lo = c * chunk;
    const std::size_t hi = std::min(n, lo + chunk);
    try {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    } catch (...) {
      // Keep the first failure for the submitter and hand out no further
      // chunks; chunks other participants already took still finish.
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
      next_chunk_.store(num_chunks, std::memory_order_relaxed);
      return;
    }
  }
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t seen = 0;
  while (true) {
    job_cv_.wait(lock, [&] {
      return shutdown_ || (open_ && job_id_ != seen && joined_ < max_workers_);
    });
    if (shutdown_) return;
    seen = job_id_;
    ++joined_;
    lock.unlock();
    RunChunks();
    lock.lock();
    ++finished_;
    if (finished_ == joined_) done_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(std::size_t n, std::size_t max_threads,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  max_threads = std::min(max_threads, n);
  if (max_threads <= 1 || tls_inside_job) {
    // Sequential — or nested inside an active job, which must run inline.
    InsideJobScope inside;
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  EnsureWorkers(max_threads - 1);

  std::unique_lock<std::mutex> submit(submit_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    n_ = n;
    // Chunked scheduling: enough chunks for balance (8 per thread), big
    // enough that tiny items don't serialize on the shared counter.
    chunk_ = std::max<std::size_t>(1, n / (max_threads * 8));
    num_chunks_ = (n + chunk_ - 1) / chunk_;
    max_workers_ = max_threads - 1;
    joined_ = 0;
    finished_ = 0;
    next_chunk_.store(0, std::memory_order_relaxed);
    open_ = true;
    ++job_id_;
  }
  job_cv_.notify_all();

  // The submitting thread is a full participant.
  RunChunks();

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] {
    return finished_ == joined_ &&
           next_chunk_.load(std::memory_order_relaxed) >= num_chunks_;
  });
  // Close the job under the same lock hold so no late worker can join
  // after `fn` (a reference into this frame) dies.
  open_ = false;
  fn_ = nullptr;
  std::exception_ptr error = std::exchange(error_, nullptr);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace rpm::ts
