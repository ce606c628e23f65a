// Suite-wide end-to-end coverage: RPM (fixed parameters, no search) must
// beat chance clearly on every generator family, and a handful of golden
// regression pins lock exact error rates for fixed seeds so accidental
// behavior changes in any pipeline stage are caught immediately.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <tuple>

#include "baselines/fast_shapelets.h"
#include "baselines/logical_shapelets.h"
#include "baselines/rpm_adapter.h"
#include "baselines/shapelet_transform.h"
#include "baselines/shapelet_tree.h"
#include "core/rpm.h"
#include "ts/generators.h"
#include "ts/parallel.h"
#include "ts/rng.h"

namespace rpm {
namespace {

core::RpmOptions Fixed(std::size_t window) {
  core::RpmOptions opt;
  opt.search = core::ParameterSearch::kFixed;
  opt.fixed_sax.window = window;
  opt.fixed_sax.paa_size = 5;
  opt.fixed_sax.alphabet = 4;
  return opt;
}

// ---------------- RPM across every generator family ----------------

class SuiteWideRpm : public ::testing::TestWithParam<std::size_t> {
 protected:
  static const std::vector<ts::DatasetSplit>& Suite() {
    static const std::vector<ts::DatasetSplit> suite =
        ts::BenchmarkSuite({0.8, 424242});
    return suite;
  }
};

TEST_P(SuiteWideRpm, BeatsChanceWithFixedParams) {
  const ts::DatasetSplit& split = Suite()[GetParam()];
  core::RpmOptions opt = Fixed(std::max<std::size_t>(
      6, split.train.MinLength() / 4));
  core::RpmClassifier clf(opt);
  clf.Train(split.train);
  const double chance =
      1.0 - 1.0 / static_cast<double>(split.train.NumClasses());
  EXPECT_LT(clf.Evaluate(split.test), 0.75 * chance) << split.name;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, SuiteWideRpm,
                         ::testing::Range<std::size_t>(0, 14));

// ---------------- Golden regression pins ----------------
//
// Exact values for fixed seeds. If any pipeline stage changes behavior
// (SAX binning, Sequitur reductions, clustering, CFS, SMO), these move —
// that is the point. Update deliberately, never casually.

TEST(Golden, GunPointErrorPinned) {
  const ts::DatasetSplit split = ts::MakeGunPoint(12, 40, 150, 777);
  core::RpmClassifier clf(Fixed(37));
  clf.Train(split.train);
  EXPECT_DOUBLE_EQ(clf.Evaluate(split.test), 0.0);
}

TEST(Golden, CbfPatternCountAndErrorPinned) {
  const ts::DatasetSplit split = ts::MakeCbf(10, 30, 128, 778);
  core::RpmClassifier clf(Fixed(32));
  clf.Train(split.train);
  const double error = clf.Evaluate(split.test);
  // Small tolerance band: exact pin on error, structural pin on count.
  EXPECT_NEAR(error, 0.0667, 1e-3);
  EXPECT_GE(clf.patterns().size(), 4u);
  EXPECT_LE(clf.patterns().size(), 16u);
}

TEST(Golden, SequiturRuleCountPinned) {
  // The grammar over a fixed token stream is fully deterministic.
  ts::Rng rng(12345);
  std::vector<std::uint32_t> tokens;
  for (int i = 0; i < 500; ++i) {
    tokens.push_back(static_cast<std::uint32_t>(rng.UniformInt(0, 3)));
  }
  const grammar::Grammar g = grammar::InferGrammar(tokens);
  EXPECT_EQ(g.Expand(0), tokens);
  const std::size_t rules = g.rules().size();
  static constexpr std::size_t kPinnedRuleCount = 55;
  EXPECT_EQ(rules, kPinnedRuleCount)
      << "Sequitur behavior changed; verify intentionally.";
}

TEST(Golden, DirectEvaluationCountPinned) {
  // DIRECT is deterministic: the combos it explores for a fixed dataset
  // must not drift, and neither may the (window, paa, alphabet) it picks
  // per class, at one thread or at every core.
  const ts::DatasetSplit split = ts::MakeGunPoint(8, 4, 100, 779);
  std::vector<int> first_predictions;
  for (std::size_t threads : {std::size_t{1}, ts::DefaultThreads()}) {
    core::RpmOptions opt;
    opt.search = core::ParameterSearch::kDirect;
    opt.direct_max_evaluations = 10;
    opt.param_splits = 2;
    opt.param_folds = 2;
    opt.num_threads = threads;
    core::RpmClassifier clf(opt);
    clf.Train(split.train);
    EXPECT_EQ(clf.combos_evaluated(), 9u) << threads << " threads";
    ASSERT_EQ(clf.sax_by_class().size(), 2u);
    for (const auto& [label, window, paa, alphabet] :
         {std::tuple{1, 36, 8, 6}, std::tuple{2, 36, 8, 6}}) {
      const sax::SaxOptions& sax = clf.sax_by_class().at(label);
      EXPECT_EQ(sax.window, static_cast<std::size_t>(window)) << label;
      EXPECT_EQ(sax.paa_size, static_cast<std::size_t>(paa)) << label;
      EXPECT_EQ(sax.alphabet, alphabet) << label;
    }
    const std::vector<int> predictions = clf.ClassifyAll(split.test);
    if (first_predictions.empty()) first_predictions = predictions;
    EXPECT_EQ(predictions, first_predictions) << threads << " threads";
  }
}

TEST(Golden, GridSelectionPinned) {
  // kGrid evaluates its whole lattice, then considers it window fastest,
  // then PAA, then alphabet, and a tie keeps the first point: the
  // (window, paa, alphabet) it picks per class pins that order as well as
  // the scores, at one thread and at every core.
  const ts::DatasetSplit split = ts::MakeCbf(10, 4, 64, 93);
  for (std::size_t threads : {std::size_t{1}, ts::DefaultThreads()}) {
    core::RpmOptions opt;
    opt.search = core::ParameterSearch::kGrid;
    opt.grid_window_step = 12;
    opt.param_splits = 2;
    opt.param_folds = 2;
    opt.num_threads = threads;
    const core::ParameterSelectionResult result =
        core::SelectSaxParameters(split.train, opt);
    EXPECT_EQ(result.combos_evaluated, 48u) << threads << " threads";
    ASSERT_EQ(result.sax_by_class.size(), 3u);
    for (const auto& [label, window, paa, alphabet] :
         {std::tuple{1, 32, 6, 5}, std::tuple{2, 20, 2, 3},
          std::tuple{3, 20, 2, 9}}) {
      const sax::SaxOptions& sax = result.sax_by_class.at(label);
      EXPECT_EQ(sax.window, static_cast<std::size_t>(window)) << label;
      EXPECT_EQ(sax.paa_size, static_cast<std::size_t>(paa)) << label;
      EXPECT_EQ(sax.alphabet, alphabet) << label;
    }
  }
}

// The Table 1 cells whose methods run the best-match scan engine: RPM
// (transform, distinct selection) and Fast Shapelets (candidate scoring,
// seeded classification), on every suite dataset, as test-set
// misclassification counts. Any scan change that moves a distance bit
// far enough to flip one decision anywhere in training or
// classification moves a count.
struct ScanEngineCell {
  const char* dataset;
  std::size_t rpm_errors;
  std::size_t fs_errors;
};

constexpr ScanEngineCell kScanEngineCells[] = {
    {"CBF", 4, 5},
    {"TwoPatterns", 19, 11},
    {"SyntheticControl", 2, 10},
    {"GunPoint", 1, 7},
    {"Coffee", 0, 0},
    {"ECGFiveDays", 0, 0},
    {"Trace", 3, 7},
    {"ShapeOutlines", 0, 8},
    {"ItalyPower", 0, 0},
    {"Wafer", 4, 33},
    {"Symbols", 0, 2},
    {"FaceFour", 0, 4},
    {"Lightning", 0, 0},
    {"MoteStrain", 0, 0},
};

std::size_t Misclassified(const baselines::Classifier& clf,
                          const ts::Dataset& test) {
  const std::vector<int> predicted = clf.ClassifyAll(test);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    if (predicted[i] != test[i].label) ++errors;
  }
  return errors;
}

TEST(Golden, ScanEngineTable1CellsPinned) {
  const std::vector<ts::DatasetSplit> suite = ts::BenchmarkSuite();
  ASSERT_EQ(suite.size(), std::size(kScanEngineCells));
  for (std::size_t d = 0; d < suite.size(); ++d) {
    const ts::DatasetSplit& split = suite[d];
    const ScanEngineCell& want = kScanEngineCells[d];
    ASSERT_EQ(split.name, want.dataset);
    // RPM as bench/harness.h configures it for Tables 1-2.
    core::RpmOptions opt;
    opt.search = core::ParameterSearch::kDirect;
    opt.direct_max_evaluations = 16;
    opt.param_splits = 2;
    opt.param_folds = 3;
    baselines::RpmAdapter rpm(opt);
    rpm.Train(split.train);
    baselines::FastShapelets fs;
    fs.Train(split.train);
    EXPECT_EQ(Misclassified(rpm, split.test), want.rpm_errors) << split.name;
    EXPECT_EQ(Misclassified(fs, split.test), want.fs_errors) << split.name;
  }
}

// The four shapelet baselines (ST, the Ye & Keogh tree, Logical Shapelets
// and FS) on every suite dataset: an FNV-1a digest of each method's
// predicted test labels, the learned trees' internal-node counts, and
// digests of the bits of ST's selected shapelets and FS's root shapelet.
// Any change to candidate sampling, a distance bit, a split scan's tie
// rule or a routing decision moves one of them.
struct ShapeletBaselineCell {
  const char* dataset;
  std::uint64_t st_labels;
  std::uint64_t yk_labels;
  std::uint64_t logical_labels;
  std::uint64_t fs_labels;
  std::size_t yk_nodes;
  std::size_t logical_nodes;
  std::size_t logical_and_or_nodes;
  std::size_t fs_nodes;
  std::uint64_t st_shapelets;
  std::uint64_t fs_root;
};

constexpr ShapeletBaselineCell kShapeletBaselineCells[] = {
    {"CBF", 0x114153374c3f1e05ull, 0xa592d6c12ccb7064ull,
     0xecf757445bc37ff4ull, 0xf0d60fce1cb8d564ull, 2, 2, 0, 3,
     0x2e80af3ae0184812ull, 0x9027d12754e64005ull},
    {"TwoPatterns", 0xd217bd02c9117530ull, 0x3750dbb200aec436ull,
     0x69f11d4d1bf09752ull, 0x1f7ed5ec16ac2856ull, 3, 3, 0, 4,
     0xcaaa8840f1809651ull, 0x1ce9041f10b02dcbull},
    {"SyntheticControl", 0x96f2ec772b6c0205ull, 0xa4bee06bbaf15fd7ull,
     0xd9baf5dc82f0fc36ull, 0x6a9484d0778cf034ull, 5, 5, 0, 6,
     0x38da2b371a53eaf4ull, 0x5f8b224cae0a99f9ull},
    {"GunPoint", 0x569ebad3cf9d6765ull, 0x569ebad3cf9d6765ull,
     0xb221563ceda42755ull, 0xf9c497dfe0d9d9d6ull, 1, 1, 0, 2,
     0xe39889f6fc89fa12ull, 0xa86f6dfd72ea074dull},
    {"Coffee", 0x024273520e7aa2d5ull, 0x024273520e7aa2d5ull,
     0x024273520e7aa2d5ull, 0x024273520e7aa2d5ull, 1, 1, 0, 1,
     0xb09abbe3524e4a03ull, 0x2644b71e53f05476ull},
    {"ECGFiveDays", 0x569ebad3cf9d6765ull, 0x569ebad3cf9d6765ull,
     0x9ae663075b568576ull, 0x569ebad3cf9d6765ull, 1, 1, 0, 1,
     0x7974abdfff3d90bfull, 0xf6908c27b69b4109ull},
    {"Trace", 0x719ea879943ce421ull, 0x719ea879943ce421ull,
     0x61af19a3d31b6e61ull, 0x2eed5414aeb12d03ull, 3, 3, 0, 3,
     0x1ea76f0dc41223e9ull, 0x483bdb1f4eafb7bdull},
    {"ShapeOutlines", 0x719ea879943ce421ull, 0x719ea879943ce421ull,
     0x719ea879943ce421ull, 0x5256019842b39cf3ull, 3, 3, 0, 3,
     0xdf65bdf490dce75full, 0xa6a4403eb74a2ff6ull},
    {"ItalyPower", 0xc9af7376db49fb75ull, 0xc9af7376db49fb75ull,
     0xc9af7376db49fb75ull, 0xc9af7376db49fb75ull, 1, 1, 0, 1,
     0x8878024c77f7aabbull, 0xd4fc47487c30355dull},
    {"Wafer", 0x7e8ad74e573ae065ull, 0x1f27c35cb920e026ull,
     0xea4dec91020b2e56ull, 0xb6f49752a035d016ull, 1, 1, 0, 4,
     0xa0a77f296d522459ull, 0x3b7e5cf1bf7ae69full},
    {"Symbols", 0x1037fa8149221025ull, 0x1037fa8149221025ull,
     0x1037fa8149221025ull, 0xdfb81c0d04a057a5ull, 2, 2, 0, 2,
     0xebccca95f81c4dffull, 0x40c886dc9899f67bull},
    {"FaceFour", 0x90ef82ff90fbcc45ull, 0x90ef82ff90fbcc45ull,
     0x74327e64f3d135b5ull, 0xedbd48ea0a6254d5ull, 3, 3, 0, 3,
     0x01b1a0e80249d878ull, 0x0a554f8157b65f3dull},
    {"Lightning", 0xa500f61d79a0e155ull, 0xa500f61d79a0e155ull,
     0xa500f61d79a0e155ull, 0xa500f61d79a0e155ull, 1, 1, 0, 1,
     0x86217d9e6f2c8fcfull, 0x3a04334accdd7f3eull},
    {"MoteStrain", 0x569ebad3cf9d6765ull, 0x569ebad3cf9d6765ull,
     0xd7bf4c809c7e1826ull, 0x569ebad3cf9d6765ull, 1, 1, 0, 1,
     0x4a304545a2634ceeull, 0xc38819497552b439ull},
};

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;

std::uint64_t Fnv1a(const void* data, std::size_t size, std::uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h = (h ^ bytes[i]) * 1099511628211ull;
  }
  return h;
}

std::uint64_t LabelDigest(const baselines::Classifier& clf,
                          const ts::Dataset& test) {
  const std::vector<int> predicted = clf.ClassifyAll(test);
  return Fnv1a(predicted.data(), predicted.size() * sizeof(int), kFnvOffset);
}

std::uint64_t SeriesDigest(const ts::Series& s, std::uint64_t h) {
  const std::uint64_t size = s.size();
  h = Fnv1a(&size, sizeof size, h);
  return Fnv1a(s.data(), s.size() * sizeof(double), h);
}

TEST(Golden, ShapeletBaselinesPinned) {
  const std::vector<ts::DatasetSplit> suite = ts::BenchmarkSuite();
  ASSERT_EQ(suite.size(), std::size(kShapeletBaselineCells));
  for (std::size_t d = 0; d < suite.size(); ++d) {
    const ts::DatasetSplit& split = suite[d];
    const ShapeletBaselineCell& want = kShapeletBaselineCells[d];
    ASSERT_EQ(split.name, want.dataset);
    baselines::ShapeletTransform st;
    baselines::ShapeletTree yk;
    baselines::LogicalShapelets logical;
    baselines::FastShapelets fs;
    st.Train(split.train);
    yk.Train(split.train);
    logical.Train(split.train);
    fs.Train(split.train);
    std::uint64_t st_shapelets = kFnvOffset;
    for (const ts::Series& s : st.shapelets()) {
      st_shapelets = SeriesDigest(s, st_shapelets);
    }
    const ShapeletBaselineCell got = {
        want.dataset,
        LabelDigest(st, split.test),
        LabelDigest(yk, split.test),
        LabelDigest(logical, split.test),
        LabelDigest(fs, split.test),
        yk.num_shapelet_nodes(),
        logical.num_shapelet_nodes(),
        logical.num_logical_nodes(),
        fs.num_shapelet_nodes(),
        st_shapelets,
        SeriesDigest(fs.root_shapelet(), kFnvOffset)};
    // Compared as source rows, so a failure prints the row to re-record.
    const auto row = [](const ShapeletBaselineCell& c) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"%s\", 0x%016llxull, 0x%016llxull, 0x%016llxull, "
                    "0x%016llxull, %zu, %zu, %zu, %zu, 0x%016llxull, "
                    "0x%016llxull},",
                    c.dataset, static_cast<unsigned long long>(c.st_labels),
                    static_cast<unsigned long long>(c.yk_labels),
                    static_cast<unsigned long long>(c.logical_labels),
                    static_cast<unsigned long long>(c.fs_labels), c.yk_nodes,
                    c.logical_nodes, c.logical_and_or_nodes, c.fs_nodes,
                    static_cast<unsigned long long>(c.st_shapelets),
                    static_cast<unsigned long long>(c.fs_root));
      return std::string(buf);
    };
    EXPECT_EQ(row(got), row(want));
  }
}

// No suite dataset grows an AND/OR node (every row above has 0), so this
// pins Logical Shapelets on a concept that takes the extension: class 1
// has an early spike AND a late dip, class 2 only one of the two, and no
// candidate is long enough to span both. One row per generator seed:
// the predicted-label digest, the AND/OR node count, the node count.
TEST(Golden, LogicalShapeletsConjunctionPinned) {
  static constexpr std::tuple<std::uint64_t, std::uint64_t, std::size_t,
                              std::size_t>
      kPinned[] = {{31, 0x50cdd8f59063ef46ull, 1, 1},
                   {32, 0xe8cbca1504ad7486ull, 1, 1},
                   {33, 0x831b6c6c6862e0a5ull, 1, 1}};
  for (const auto& [seed, labels, and_or_nodes, nodes] : kPinned) {
    ts::Rng rng(seed);
    ts::Dataset train;
    ts::Dataset test;
    const auto make = [&](bool spike, bool dip) {
      ts::Series s(200);
      for (auto& v : s) v = rng.Gaussian(0.0, 0.1);
      for (int i = 0; i < 8; ++i) {
        if (spike) s[15 + i] += 3.0;
        if (dip) s[170 + i] -= 3.0;
      }
      return s;
    };
    for (int r = 0; r < 8; ++r) {
      train.Add(1, make(true, true));
      train.Add(2, r % 2 == 0 ? make(true, false) : make(false, true));
      test.Add(1, make(true, true));
      test.Add(2, r % 2 == 0 ? make(true, false) : make(false, true));
    }
    baselines::LogicalShapelets logical;
    logical.Train(train);
    EXPECT_EQ(LabelDigest(logical, test), labels)
        << seed << " 0x" << std::hex << LabelDigest(logical, test);
    EXPECT_EQ(logical.num_logical_nodes(), and_or_nodes) << seed;
    EXPECT_EQ(logical.num_shapelet_nodes(), nodes) << seed;
  }
}

}  // namespace
}  // namespace rpm
