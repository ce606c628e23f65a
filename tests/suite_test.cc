// Suite-wide end-to-end coverage: RPM (fixed parameters, no search) must
// beat chance clearly on every generator family, and a handful of golden
// regression pins lock exact error rates for fixed seeds so accidental
// behavior changes in any pipeline stage are caught immediately.

#include <gtest/gtest.h>

#include <iterator>
#include <tuple>

#include "baselines/fast_shapelets.h"
#include "baselines/rpm_adapter.h"
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

}  // namespace
}  // namespace rpm
