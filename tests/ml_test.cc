// Tests for the ML substrate: SVM (SMO), CFS feature selection, metrics,
// stratified splitting, and the Wilcoxon signed-rank test.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numbers>
#include <sstream>
#include <string>

#include "ml/cross_validation.h"
#include "ml/feature_dataset.h"
#include "ml/feature_selection.h"
#include "ml/metrics.h"
#include "ml/svm.h"
#include "ml/wilcoxon.h"
#include "ts/rng.h"

namespace rpm::ml {
namespace {

// ---------------- FeatureDataset ----------------

TEST(FeatureDatasetTest, SelectColumnsAndRows) {
  FeatureDataset d;
  d.Add({1.0, 2.0, 3.0}, 1);
  d.Add({4.0, 5.0, 6.0}, 2);
  const FeatureDataset cols = d.SelectColumns({2, 0});
  EXPECT_EQ(cols.x[0], (std::vector<double>{3.0, 1.0}));
  EXPECT_EQ(cols.y, d.y);
  const FeatureDataset rows = d.SelectRows({1});
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows.y[0], 2);
  EXPECT_EQ(d.Labels(), (std::vector<int>{1, 2}));
}

// ---------------- SVM ----------------

FeatureDataset LinearlySeparable2D(std::size_t per_class,
                                   std::uint64_t seed) {
  ts::Rng rng(seed);
  FeatureDataset d;
  for (std::size_t i = 0; i < per_class; ++i) {
    d.Add({rng.Gaussian(-2.0, 0.4), rng.Gaussian(-2.0, 0.4)}, 1);
    d.Add({rng.Gaussian(2.0, 0.4), rng.Gaussian(2.0, 0.4)}, 2);
  }
  return d;
}

TEST(Svm, LinearSeparableBinary) {
  const FeatureDataset d = LinearlySeparable2D(20, 1);
  SvmClassifier svm;
  svm.Train(d);
  ASSERT_TRUE(svm.trained());
  const std::vector<int> pred = svm.PredictAll(d);
  EXPECT_GE(Accuracy(pred, d.y), 0.95);
  EXPECT_EQ(svm.Predict(std::vector<double>{-2.0, -2.0}), 1);
  EXPECT_EQ(svm.Predict(std::vector<double>{2.0, 2.0}), 2);
}

TEST(Svm, ThreeClassOneVsOne) {
  ts::Rng rng(2);
  FeatureDataset d;
  const double centers[3][2] = {{-3, 0}, {3, 0}, {0, 4}};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 15; ++i) {
      d.Add({centers[c][0] + rng.Gaussian(0, 0.3),
             centers[c][1] + rng.Gaussian(0, 0.3)},
            c + 10);
    }
  }
  SvmClassifier svm;
  svm.Train(d);
  EXPECT_GE(Accuracy(svm.PredictAll(d), d.y), 0.95);
}

TEST(Svm, RbfSolvesXor) {
  ts::Rng rng(3);
  FeatureDataset d;
  for (int i = 0; i < 30; ++i) {
    const double x = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    const double y = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    d.Add({x + rng.Gaussian(0, 0.1), y + rng.Gaussian(0, 0.1)},
          x * y > 0 ? 1 : 2);
  }
  SvmOptions opt;
  opt.kernel = KernelKind::kRbf;
  opt.c = 10.0;
  opt.max_iterations = 5000;
  SvmClassifier svm(opt);
  svm.Train(d);
  EXPECT_GE(Accuracy(svm.PredictAll(d), d.y), 0.9);
}

TEST(Svm, PolynomialKernelSolvesXor) {
  ts::Rng rng(4);
  FeatureDataset d;
  for (int i = 0; i < 30; ++i) {
    const double x = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    const double y = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    d.Add({x + rng.Gaussian(0, 0.1), y + rng.Gaussian(0, 0.1)},
          x * y > 0 ? 1 : 2);
  }
  SvmOptions opt;
  opt.kernel = KernelKind::kPolynomial;
  opt.poly_degree = 2;
  opt.c = 10.0;
  opt.max_iterations = 5000;
  SvmClassifier svm(opt);
  svm.Train(d);
  EXPECT_GE(Accuracy(svm.PredictAll(d), d.y), 0.9);
}

TEST(Svm, SingleClassFallsBackToConstant) {
  FeatureDataset d;
  d.Add({1.0}, 7);
  d.Add({2.0}, 7);
  SvmClassifier svm;
  svm.Train(d);
  EXPECT_EQ(svm.Predict(std::vector<double>{99.0}), 7);
}

// ---------------- SVM fit pins ----------------
//
// Each pin is the FNV-1a digest of the text Save writes. Save prints 17
// significant digits, so a digest covers every alpha*y, bias, feature
// moment and support vector exactly: an SMO change that moves one
// multiplier by one bit moves the digest. The pins were recorded from the
// SMO whose decision function summed all n multipliers.

std::uint64_t Fnv1a(const std::string& bytes,
                    std::uint64_t h = 14695981039346656037ull) {
  for (const unsigned char c : bytes) h = (h ^ c) * 1099511628211ull;
  return h;
}

std::string SavedText(const FeatureDataset& d, const SvmOptions& opt) {
  SvmClassifier svm(opt);
  svm.Train(d);
  std::ostringstream out;
  svm.Save(out);
  return out.str();
}

// Support vectors of each class-pair machine, read back from saved text.
std::vector<std::size_t> SupportCounts(const std::string& text) {
  std::istringstream in(text);
  std::string tag;
  double skip = 0.0;
  std::size_t d = 0;
  std::size_t models = 0;
  in >> tag >> skip >> skip >> skip >> skip >> tag >> d;
  for (std::size_t i = 0; i < 2 * d; ++i) in >> skip;
  in >> tag >> models;
  std::vector<std::size_t> counts(models);
  for (std::size_t& count : counts) {
    in >> skip >> skip >> skip >> count;
    for (std::size_t i = 0; i < count * (d + 1); ++i) in >> skip;
  }
  EXPECT_TRUE(in) << "unparsable model text";
  return counts;
}

// `classes` Gaussian blobs of `per_class` rows in `dims` >= 2 features
// with unit standard deviation. The class centres lie evenly on a circle
// of radius `radius` in the first two features; the other features' centre
// coordinates are seeded draws with standard deviation 1.
FeatureDataset Blobs(std::size_t classes, std::size_t per_class,
                     std::size_t dims, double radius, std::uint64_t seed) {
  ts::Rng rng(seed);
  std::vector<std::vector<double>> centres(classes);
  for (std::size_t c = 0; c < classes; ++c) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(c) /
                         static_cast<double>(classes);
    centres[c] = {radius * std::cos(angle), radius * std::sin(angle)};
    for (std::size_t f = 2; f < dims; ++f) {
      centres[c].push_back(rng.Gaussian());
    }
  }
  FeatureDataset d;
  for (std::size_t i = 0; i < per_class; ++i) {
    for (std::size_t c = 0; c < classes; ++c) {
      std::vector<double> row;
      for (double m : centres[c]) row.push_back(m + rng.Gaussian());
      d.Add(std::move(row), static_cast<int>(c) + 1);
    }
  }
  return d;
}

FeatureDataset NoisyXor(std::size_t n, std::uint64_t seed) {
  ts::Rng rng(seed);
  FeatureDataset d;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    const double y = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    d.Add({x + rng.Gaussian(0, 0.3), y + rng.Gaussian(0, 0.3)},
          x * y > 0 ? 1 : 2);
  }
  return d;
}

TEST(SvmPin, LinearKernel) {
  EXPECT_EQ(Fnv1a(SavedText(Blobs(3, 40, 4, 1.5, 11), SvmOptions{})),
            0xeaece1f596e2d0b3ull);
}

TEST(SvmPin, RbfKernel) {
  SvmOptions opt;
  opt.kernel = KernelKind::kRbf;
  opt.c = 10.0;
  opt.max_iterations = 5000;
  EXPECT_EQ(Fnv1a(SavedText(NoisyXor(80, 12), opt)), 0xd0f10fc73b1d33c3ull);
}

TEST(SvmPin, PolynomialKernel) {
  SvmOptions opt;
  opt.kernel = KernelKind::kPolynomial;
  opt.poly_degree = 3;
  opt.c = 5.0;
  opt.max_iterations = 5000;
  EXPECT_EQ(Fnv1a(SavedText(NoisyXor(80, 13), opt)), 0xf869237551f61891ull);
}

TEST(SvmPin, ArchiveShapeMostMultipliersEndAtZero) {
  // The shape of an archive fit: 3 classes of 200 rows, 2-7 pattern
  // features, so each class-pair machine has n = 400 multipliers.
  std::uint64_t digest = Fnv1a("");
  for (std::size_t dims = 2; dims <= 7; ++dims) {
    const std::string text =
        SavedText(Blobs(3, 200, dims, 2.5, 20 + dims), SvmOptions{});
    for (std::size_t count : SupportCounts(text)) {
      EXPECT_LT(count, 100u) << "dims " << dims;
    }
    digest = Fnv1a(text, digest);
  }
  EXPECT_EQ(digest, 0x555377960fb0ce18ull);
}

TEST(SvmPin, IterationCapStopsTheLoop) {
  const FeatureDataset d = Blobs(2, 60, 3, 0.5, 14);
  SvmOptions capped;
  capped.max_iterations = 3;
  const std::string text = SavedText(d, capped);
  EXPECT_NE(text, SavedText(d, SvmOptions{}));  // the cap bound
  EXPECT_EQ(Fnv1a(text), 0x94d2ce1dd7529bb8ull);
}

TEST(SvmPin, RandomSweep) {
  // 100 small random sets across every kernel: n from 4 to 120,
  // 2 to 6 classes, folded into one digest.
  ts::Rng rng(15);
  std::uint64_t digest = Fnv1a("");
  for (int set = 0; set < 100; ++set) {
    const auto n = static_cast<std::size_t>(rng.UniformInt(4, 120));
    const auto classes = rng.UniformInt(2, 6);
    const auto dims = static_cast<std::size_t>(rng.UniformInt(1, 6));
    FeatureDataset d;
    for (std::size_t i = 0; i < n; ++i) {
      const auto label = static_cast<int>(rng.UniformInt(1, classes));
      std::vector<double> row;
      for (std::size_t f = 0; f < dims; ++f) {
        row.push_back(rng.Gaussian(0.7 * label * (f % 2 == 0 ? 1 : -1), 1.0));
      }
      d.Add(std::move(row), label);
    }
    SvmOptions opt;
    opt.kernel = static_cast<KernelKind>(set % 3);
    opt.c = rng.Uniform(0.1, 10.0);
    opt.poly_degree = 2 + set % 2;
    digest = Fnv1a(SavedText(d, opt), digest);
  }
  EXPECT_EQ(digest, 0x34014b5840c5c6c8ull);
}

// ---------------- Feature selection ----------------

TEST(Correlations, PearsonKnownValues) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  const std::vector<double> z = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
  const std::vector<double> c = {3, 3, 3, 3, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, c), 0.0);
}

TEST(Correlations, CorrelationRatioSeparatedGroups) {
  // Perfect separation -> eta = 1; identical distributions -> near 0.
  const std::vector<double> values = {0, 0.1, 0.2, 10, 10.1, 10.2};
  const std::vector<int> labels = {1, 1, 1, 2, 2, 2};
  EXPECT_GT(CorrelationRatio(values, labels), 0.99);
  const std::vector<double> same = {1, 2, 3, 1, 2, 3};
  EXPECT_LT(CorrelationRatio(same, labels), 0.01);
}

TEST(Cfs, PicksInformativeDropsRedundantAndNoise) {
  ts::Rng rng(4);
  FeatureDataset d;
  for (int i = 0; i < 60; ++i) {
    const int label = rng.Bernoulli(0.5) ? 1 : 2;
    const double signal = (label == 1 ? -1.0 : 1.0) + rng.Gaussian(0, 0.2);
    const double redundant = signal + rng.Gaussian(0, 0.05);
    const double noise = rng.Gaussian(0, 1.0);
    d.Add({signal, redundant, noise}, label);
  }
  const auto selected = CfsSelect(d);
  ASSERT_FALSE(selected.empty());
  // The informative feature must be in; pure noise must be out.
  EXPECT_TRUE(std::find(selected.begin(), selected.end(), 0u) !=
                  selected.end() ||
              std::find(selected.begin(), selected.end(), 1u) !=
                  selected.end());
  EXPECT_EQ(std::find(selected.begin(), selected.end(), 2u), selected.end());
  // Redundancy: not both copies of the same signal.
  EXPECT_LE(selected.size(), 2u);
}

TEST(Cfs, MaxFeaturesHonored) {
  ts::Rng rng(5);
  FeatureDataset d;
  for (int i = 0; i < 40; ++i) {
    const int label = i % 2 + 1;
    std::vector<double> row;
    for (int f = 0; f < 6; ++f) {
      row.push_back((label == 1 ? -1.0 : 1.0) * (f + 1) * 0.3 +
                    rng.Gaussian(0, 0.5));
    }
    d.Add(row, label);
  }
  CfsOptions opt;
  opt.max_features = 2;
  EXPECT_LE(CfsSelect(d, opt).size(), 2u);
}

TEST(Cfs, DegenerateInputs) {
  FeatureDataset empty;
  EXPECT_TRUE(CfsSelect(empty).empty());
  FeatureDataset constant;
  constant.Add({1.0}, 1);
  constant.Add({1.0}, 2);
  EXPECT_EQ(CfsSelect(constant).size(), 1u);  // fallback single feature
}

// ---------------- Metrics ----------------

TEST(Metrics, AccuracyAndError) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 2, 3}, {1, 2, 4}), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(ErrorRate({1, 2, 3}, {1, 2, 4}), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(Accuracy({}, {}), 0.0);
}

TEST(Metrics, ConfusionMatrixCounts) {
  const auto cm = ConfusionMatrix({1, 1, 2, 2}, {1, 2, 2, 2});
  EXPECT_EQ(cm.at({1, 1}), 1u);
  EXPECT_EQ(cm.at({2, 1}), 1u);
  EXPECT_EQ(cm.at({2, 2}), 2u);
}

TEST(Metrics, PerClassF1KnownCase) {
  // truth: 1 1 2 2 ; pred: 1 2 2 2
  const auto scores = PerClassScores({1, 2, 2, 2}, {1, 1, 2, 2});
  EXPECT_DOUBLE_EQ(scores.at(1).precision, 1.0);
  EXPECT_DOUBLE_EQ(scores.at(1).recall, 0.5);
  EXPECT_NEAR(scores.at(1).f1, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(scores.at(2).precision, 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(scores.at(2).recall, 1.0);
  const double macro = MacroF1({1, 2, 2, 2}, {1, 1, 2, 2});
  EXPECT_NEAR(macro, (2.0 / 3.0 + 0.8) / 2.0, 1e-12);
}

TEST(Metrics, PerfectPrediction) {
  const auto scores = PerClassScores({1, 2}, {1, 2});
  EXPECT_DOUBLE_EQ(scores.at(1).f1, 1.0);
  EXPECT_DOUBLE_EQ(MacroF1({1, 2}, {1, 2}), 1.0);
}

// ---------------- Cross-validation ----------------

TEST(Splitting, StratifiedFoldsBalanceClasses) {
  std::vector<int> labels;
  for (int i = 0; i < 30; ++i) labels.push_back(i % 3);
  ts::Rng rng(6);
  const auto folds = StratifiedFolds(labels, 5, rng);
  ASSERT_EQ(folds.size(), labels.size());
  // Every fold gets 2 of each class (10 per class / 5 folds).
  std::map<std::pair<int, int>, int> count;  // (fold, class) -> n
  for (std::size_t i = 0; i < labels.size(); ++i) {
    ++count[{folds[i], labels[i]}];
  }
  for (const auto& [key, n] : count) EXPECT_EQ(n, 2);
}

TEST(Splitting, StratifiedSplitKeepsBothSidesNonEmptyPerClass) {
  std::vector<int> labels = {1, 1, 1, 1, 2, 2, 2, 2, 2, 2};
  ts::Rng rng(7);
  const auto split = StratifiedSplit(labels, 0.7, rng);
  EXPECT_EQ(split.train.size() + split.validation.size(), labels.size());
  for (int label : {1, 2}) {
    int in_train = 0;
    int in_valid = 0;
    for (std::size_t i : split.train) in_train += labels[i] == label;
    for (std::size_t i : split.validation) in_valid += labels[i] == label;
    EXPECT_GE(in_train, 1) << label;
    EXPECT_GE(in_valid, 1) << label;
  }
}

TEST(Splitting, SplitDatasetCarriesInstances) {
  ts::Dataset d;
  for (int i = 0; i < 10; ++i) {
    d.Add(i % 2 + 1, {static_cast<double>(i)});
  }
  ts::Rng rng(8);
  const auto [train, valid] = SplitDataset(d, 0.6, rng);
  EXPECT_EQ(train.size() + valid.size(), d.size());
  EXPECT_EQ(train.NumClasses(), 2u);
  EXPECT_EQ(valid.NumClasses(), 2u);
}

// ---------------- Wilcoxon ----------------

TEST(Wilcoxon, IdenticalSamplesPValueOne) {
  const std::vector<double> a = {1, 2, 3, 4};
  const auto r = WilcoxonSignedRank(a, a);
  EXPECT_EQ(r.n_nonzero, 0u);
  EXPECT_DOUBLE_EQ(r.p_value, 1.0);
}

TEST(Wilcoxon, ClearlyShiftedSamplesSignificant) {
  std::vector<double> a;
  std::vector<double> b;
  ts::Rng rng(9);
  for (int i = 0; i < 15; ++i) {
    const double base = rng.Uniform(0, 1);
    a.push_back(base);
    b.push_back(base + 0.5 + rng.Uniform(0, 0.1));
  }
  const auto r = WilcoxonSignedRank(a, b);
  EXPECT_LT(r.p_value, 0.01);
  EXPECT_DOUBLE_EQ(r.statistic, 0.0);  // all differences negative
}

TEST(Wilcoxon, SymmetricDifferencesNotSignificant) {
  const std::vector<double> a = {1, 2, 3, 4, 5, 6};
  const std::vector<double> b = {2, 1, 4, 3, 6, 5};  // +-1 alternating
  const auto r = WilcoxonSignedRank(a, b);
  EXPECT_GT(r.p_value, 0.5);
}

TEST(Wilcoxon, LargeSampleNormalApproximation) {
  ts::Rng rng(10);
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 60; ++i) {
    a.push_back(rng.Gaussian(0.0, 1.0));
    b.push_back(rng.Gaussian(0.05, 1.0));  // tiny shift
  }
  const auto r = WilcoxonSignedRank(a, b);
  EXPECT_EQ(r.n_nonzero, 60u);
  EXPECT_GT(r.p_value, 0.0);
  EXPECT_LE(r.p_value, 1.0);
}

TEST(Wilcoxon, LengthMismatchThrows) {
  EXPECT_THROW(WilcoxonSignedRank({1.0}, {1.0, 2.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace rpm::ml
