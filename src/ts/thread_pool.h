// Persistent worker pool with chunked work-stealing-free scheduling.
//
// The pipeline used to spawn and join fresh std::threads for every
// parallel region (see ts/parallel.h); parameter selection alone creates
// thousands of regions per run, so thread creation cost and the per-item
// atomic fetch_add dominated small workloads. This pool keeps workers
// alive across regions and hands out *chunks* of indices so tiny work
// items do not serialize on the shared counter.
//
// Determinism contract: fn(i) is invoked exactly once for every i (when
// no call throws), work items are independent and write to distinct
// slots, so results are bit-identical for any thread count — parallelism
// only changes wall-clock time. Nested ParallelFor calls (from inside a
// worker or a caller already inside a region) run inline on the calling
// thread, so nesting can never deadlock the pool.

#ifndef RPM_TS_THREAD_POOL_H_
#define RPM_TS_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rpm::ts {

class ThreadPool {
 public:
  ThreadPool() = default;
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Invokes fn(i) for every i in [0, n), using the calling thread plus up
  /// to `max_threads - 1` pool workers (<= 1 runs inline). Blocks until
  /// every item completed. If fn throws, on any participating thread, no
  /// further chunks are handed out, the chunks already taken finish, and
  /// the first exception is rethrown here; some indices then never ran.
  /// The pool stays usable afterwards.
  void ParallelFor(std::size_t n, std::size_t max_threads,
                   const std::function<void(std::size_t)>& fn);

  /// Workers currently alive (grows on demand, never shrinks).
  std::size_t num_workers() const;

  /// Process-wide pool shared by the whole pipeline (transform, candidate
  /// mining, parameter selection, baselines, benches).
  static ThreadPool& Global();

 private:
  void WorkerLoop();
  void EnsureWorkers(std::size_t count);
  void RunChunks();

  // Workers beyond this are pointless for the data-parallel loops here
  // and would only burn kernel resources.
  static constexpr std::size_t kMaxWorkers = 256;

  mutable std::mutex mutex_;            // guards all job + worker state
  std::condition_variable job_cv_;      // workers wait for a job here
  std::condition_variable done_cv_;     // submitter waits for completion
  std::vector<std::thread> workers_;
  bool shutdown_ = false;

  // One job at a time; concurrent top-level submitters serialize here.
  std::mutex submit_mutex_;

  // Active job (valid while open_ is true). Chunk geometry is immutable
  // for the job's lifetime; next_chunk_ is the only contended word.
  std::uint64_t job_id_ = 0;
  bool open_ = false;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::size_t chunk_ = 1;
  std::size_t num_chunks_ = 0;
  std::size_t max_workers_ = 0;  // workers allowed to join this job
  std::size_t joined_ = 0;       // workers that picked the job up
  std::size_t finished_ = 0;     // workers that drained their chunks
  std::exception_ptr error_;     // first exception thrown by fn
  std::atomic<std::size_t> next_chunk_{0};
};

}  // namespace rpm::ts

#endif  // RPM_TS_THREAD_POOL_H_
