#include "ts/parallel.h"

#include <sched.h>

#include <thread>

namespace rpm::ts {

std::size_t DefaultThreads() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    const int cpus = CPU_COUNT(&mask);
    if (cpus > 0) return static_cast<std::size_t>(cpus);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace rpm::ts
