// Minimal deterministic data-parallel helper. Work items are independent
// and write to distinct output slots, so results are identical for any
// thread count — parallelism only changes wall-clock time.
//
// ParallelFor is a shim over the process-wide persistent ThreadPool
// (ts/thread_pool.h): regions no longer spawn-join threads, and indices
// are handed out in chunks instead of one per atomic fetch_add, so tiny
// work items don't serialize on the counter.

#ifndef RPM_TS_PARALLEL_H_
#define RPM_TS_PARALLEL_H_

#include <cstddef>
#include <functional>

#include "ts/thread_pool.h"

namespace rpm::ts {

/// Invokes fn(i) for every i in [0, n), using the calling thread plus up
/// to `num_threads - 1` persistent pool workers (<= 1 runs inline).
/// The first exception fn throws, on any thread, is rethrown to the
/// caller once the region has stopped (ThreadPool::ParallelFor).
inline void ParallelFor(std::size_t n, std::size_t num_threads,
                        const std::function<void(std::size_t)>& fn) {
  ThreadPool::Global().ParallelFor(n, num_threads, fn);
}

/// CPUs the calling thread may run on (its affinity mask, so `taskset`
/// and cgroup cpusets count); std::thread::hardware_concurrency when the
/// mask cannot be read; never less than 1.
std::size_t DefaultThreads();

}  // namespace rpm::ts

#endif  // RPM_TS_PARALLEL_H_
