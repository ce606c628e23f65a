// Allocation oracle for training: this binary replaces the global
// operator new with a counting one and pins, as a ceiling, how many heap
// allocations one fixed single-thread training makes. A count does not
// move with host noise, so an allocation cut shows here exactly.
//
// Each case trains twice on identical input and counts only the second
// training, so one-time statics (breakpoint tables, the thread pool, the
// transform workers' thread-local scratch) are excluded. A later change
// may lower a ceiling; raising one needs a stated reason. The counts do
// not depend on the matcher's ISA tier or the build type.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/rpm.h"
#include "ts/generators.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return CountedAlloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace rpm {
namespace {

// Allocations made by the second of two identical trainings.
std::size_t SecondTrainingAllocations(const ts::Dataset& train,
                                      const core::RpmOptions& options) {
  core::RpmClassifier warm(options);
  warm.Train(train);
  core::RpmClassifier clf(options);
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  clf.Train(train);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(AllocationCount, CounterSeesOperatorNew) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  auto* p = new std::vector<double>(16);
  delete p;
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 2u);
}

// rpmbench train_archive's training: 200 CBF series per class, fixed SAX
// 32/5/4, Sequitur discovery on 50 sampled series per class, one thread.
TEST(AllocationCount, ArchiveShapedFixedTraining) {
  static constexpr std::size_t kCeiling = 30105;
  const ts::DatasetSplit split = ts::MakeCbf(200, 0, 128, 4242);
  core::RpmOptions opt;
  opt.search = core::ParameterSearch::kFixed;
  opt.fixed_sax.window = 32;
  opt.fixed_sax.paa_size = 5;
  opt.fixed_sax.alphabet = 4;
  opt.discovery_sample_per_class = 50;
  opt.num_threads = 1;
  const std::size_t count = SecondTrainingAllocations(split.train, opt);
  RecordProperty("allocations", std::to_string(count));
  std::printf("archive-shaped kFixed training: %zu allocations\n", count);
  EXPECT_LE(count, kCeiling);
}

// The default DIRECT parameter search on a small CBF, one thread.
TEST(AllocationCount, DefaultDirectTraining) {
  static constexpr std::size_t kCeiling = 266698;
  const ts::DatasetSplit split = ts::MakeCbf(10, 0, 128, 7);
  core::RpmOptions opt;
  opt.num_threads = 1;
  const std::size_t count = SecondTrainingAllocations(split.train, opt);
  RecordProperty("allocations", std::to_string(count));
  std::printf("default kDirect training: %zu allocations\n", count);
  EXPECT_LE(count, kCeiling);
}

}  // namespace
}  // namespace rpm
