// Tests for the data-parallel helper and the determinism guarantee of the
// parallel RPM paths: any thread count must yield bit-identical results.

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <numeric>
#include <sstream>
#include <string>

#include "core/rpm.h"
#include "core/transform.h"
#include "ts/generators.h"
#include "ts/parallel.h"
#include "ts/rng.h"
#include "ts/znorm.h"

namespace rpm {
namespace {

TEST(ParallelFor, CoversEveryIndexOnce) {
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    std::vector<std::atomic<int>> hits(100);
    ts::ParallelFor(100, threads,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, ZeroAndTinyInputs) {
  int calls = 0;
  ts::ParallelFor(0, 4, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> acalls{0};
  ts::ParallelFor(1, 8, [&](std::size_t) { acalls.fetch_add(1); });
  EXPECT_EQ(acalls.load(), 1);
}

TEST(ParallelFor, DefaultThreadsPositive) {
  EXPECT_GE(ts::DefaultThreads(), 1u);
}

TEST(ParallelFor, DefaultThreadsCountsAffinityMask) {
  // Narrow this thread's own affinity to one CPU: the default must follow
  // the mask (std::thread::hardware_concurrency ignores it).
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof original, &original), 0);
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &original)) ++cpu;
  ASSERT_LT(cpu, CPU_SETSIZE);
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  const std::size_t narrowed = ts::DefaultThreads();
  ASSERT_EQ(sched_setaffinity(0, sizeof original, &original), 0);
  EXPECT_EQ(narrowed, 1u);
  EXPECT_EQ(ts::DefaultThreads(),
            static_cast<std::size_t>(CPU_COUNT(&original)));
}

TEST(ParallelDeterminism, CandidatesIdenticalAcrossThreadCounts) {
  const ts::DatasetSplit split = ts::MakeCbf(8, 4, 128, 88);
  core::RpmOptions base;
  base.search = core::ParameterSearch::kFixed;
  base.fixed_sax.window = 32;
  base.fixed_sax.paa_size = 4;
  base.fixed_sax.alphabet = 4;
  std::map<int, sax::SaxOptions> sax;
  for (int label : split.train.ClassLabels()) sax[label] = base.fixed_sax;

  core::RpmOptions seq = base;
  seq.num_threads = 1;
  core::RpmOptions par = base;
  par.num_threads = 4;
  const auto a = core::FindAllCandidates(split.train, sax, seq);
  const auto b = core::FindAllCandidates(split.train, sax, par);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].class_label, b[i].class_label);
    EXPECT_EQ(a[i].frequency, b[i].frequency);
    EXPECT_EQ(a[i].values, b[i].values);
  }
}

TEST(ParallelDeterminism, TransformBitIdenticalAcrossThreadCounts) {
  // The transform engine writes each series' feature row into its own
  // slot, so the embedded dataset must be bit-identical — not merely
  // close — for any thread count.
  const ts::DatasetSplit split = ts::MakeCbf(6, 6, 128, 92);
  std::vector<core::RepresentativePattern> patterns;
  ts::Rng rng(17);
  for (int k = 0; k < 12; ++k) {
    core::RepresentativePattern p;
    p.class_label = 1 + (k % 3);
    ts::Series values(16 + 4 * (k % 5));
    for (auto& v : values) v = rng.Gaussian(0.0, 1.0);
    ts::ZNormalizeInPlace(values);
    p.values = std::move(values);
    patterns.push_back(std::move(p));
  }

  const core::TransformEngine engine(patterns);
  auto run = [&](std::size_t threads) {
    return engine.Apply(split.train, threads);
  };
  const ml::FeatureDataset base = run(1);
  for (std::size_t threads : {2u, 8u}) {
    const ml::FeatureDataset other = run(threads);
    ASSERT_EQ(base.x.size(), other.x.size());
    EXPECT_EQ(base.y, other.y);
    for (std::size_t i = 0; i < base.x.size(); ++i) {
      EXPECT_EQ(base.x[i], other.x[i]) << "row " << i << " with " << threads
                                       << " threads";
    }
  }
}

TEST(ParallelDeterminism, ClassifierIdenticalAcrossThreadCounts) {
  const ts::DatasetSplit split = ts::MakeGunPoint(10, 15, 100, 89);
  auto run = [&](std::size_t threads) {
    core::RpmOptions opt;
    opt.search = core::ParameterSearch::kFixed;
    opt.fixed_sax.window = 25;
    opt.fixed_sax.paa_size = 5;
    opt.fixed_sax.alphabet = 4;
    opt.num_threads = threads;
    core::RpmClassifier clf(opt);
    clf.Train(split.train);
    return clf.ClassifyAll(split.test);
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(ParallelDeterminism, DirectAndGridSelectionIdenticalAcrossThreadCounts) {
  // Parameter selection evaluates the (combo x split) pairs of a DIRECT
  // round, or of the whole grid lattice, on the pool. The chosen
  // parameters, the combo count, the saved model and its predictions
  // must not depend on how many threads ran them.
  struct Selection {
    std::map<int, sax::SaxOptions> sax_by_class;
    std::size_t combos = 0;
    std::string model;
    std::vector<int> predictions;
  };
  const ts::DatasetSplit split = ts::MakeCbf(6, 4, 64, 93);
  for (core::ParameterSearch search :
       {core::ParameterSearch::kDirect, core::ParameterSearch::kGrid}) {
    auto run = [&](std::size_t threads) {
      core::RpmOptions opt;
      opt.search = search;
      opt.direct_max_evaluations = 12;
      opt.grid_window_step = 12;
      opt.param_splits = 2;
      opt.param_folds = 2;
      opt.num_threads = threads;
      core::RpmClassifier clf(opt);
      clf.Train(split.train);
      std::ostringstream model;
      clf.Save(model);
      return Selection{clf.sax_by_class(), clf.combos_evaluated(),
                       model.str(), clf.ClassifyAll(split.test)};
    };
    const Selection base = run(1);
    EXPECT_GT(base.combos, 1u);
    for (std::size_t threads : {std::size_t{3}, ts::DefaultThreads()}) {
      const Selection other = run(threads);
      const std::string where =
          (search == core::ParameterSearch::kDirect ? "direct, " : "grid, ") +
          std::to_string(threads) + " threads";
      EXPECT_EQ(other.combos, base.combos) << where;
      ASSERT_EQ(other.sax_by_class.size(), base.sax_by_class.size()) << where;
      for (const auto& [label, sax] : base.sax_by_class) {
        const sax::SaxOptions& got = other.sax_by_class.at(label);
        EXPECT_EQ(got.window, sax.window) << where << ", class " << label;
        EXPECT_EQ(got.paa_size, sax.paa_size) << where << ", class " << label;
        EXPECT_EQ(got.alphabet, sax.alphabet) << where << ", class " << label;
      }
      EXPECT_EQ(other.model, base.model) << where;
      EXPECT_EQ(other.predictions, base.predictions) << where;
    }
  }
}

TEST(AbpAlarmTypes, FourBalancedClasses) {
  const ts::DatasetSplit split = ts::MakeAbpAlarmTypes(5, 5, 240, 90);
  EXPECT_EQ(split.train.ClassLabels(), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(split.train.size(), 20u);
  const auto hist = split.train.ClassHistogram();
  for (const auto& [label, count] : hist) EXPECT_EQ(count, 5u);
}

TEST(AbpAlarmTypes, RpmSeparatesAlarmTypes) {
  const ts::DatasetSplit split = ts::MakeAbpAlarmTypes(10, 15, 240, 91);
  core::RpmOptions opt;
  opt.search = core::ParameterSearch::kFixed;
  opt.fixed_sax.window = 60;
  opt.fixed_sax.paa_size = 6;
  opt.fixed_sax.alphabet = 4;
  core::RpmClassifier clf(opt);
  clf.Train(split.train);
  // 4 balanced classes -> chance error 0.75.
  EXPECT_LT(clf.Evaluate(split.test), 0.4);
}

}  // namespace
}  // namespace rpm
