// Tests for the extension components: Shapelet Transform baseline,
// alternative feature-space classifiers (k-NN / Gaussian Naive Bayes),
// the Re-Pair-backed RPM pipeline, and model serialization round-trips.

#include <gtest/gtest.h>

#include <sstream>

#include "baselines/shapelet_transform.h"
#include "core/rpm.h"
#include "ml/metrics.h"
#include "ml/simple_classifiers.h"
#include "ts/generators.h"
#include "ts/rng.h"

namespace rpm {
namespace {

const ts::DatasetSplit& Split() {
  static const ts::DatasetSplit split = ts::MakeGunPoint(10, 20, 100, 55);
  return split;
}

// ---------------- Shapelet Transform ----------------

TEST(ShapeletTransformTest, TrainsAndBeatsChance) {
  baselines::ShapeletTransform clf;
  clf.Train(Split().train);
  EXPECT_FALSE(clf.shapelets().empty());
  EXPECT_LE(clf.shapelets().size(), 10u);
  EXPECT_LE(clf.Evaluate(Split().test), 0.25);
}

TEST(ShapeletTransformTest, ShapeletsAreZNormalized) {
  baselines::ShapeletTransform clf;
  clf.Train(Split().train);
  for (const auto& s : clf.shapelets()) {
    double mean = 0.0;
    for (double v : s) mean += v;
    EXPECT_NEAR(mean / static_cast<double>(s.size()), 0.0, 1e-9);
  }
}

TEST(ShapeletTransformTest, SingleClassFallsBack) {
  ts::Dataset train;
  ts::Rng rng(1);
  for (int i = 0; i < 4; ++i) {
    ts::Series s(50);
    for (auto& v : s) v = rng.Gaussian();
    train.Add(9, std::move(s));
  }
  baselines::ShapeletTransform clf;
  clf.Train(train);
  EXPECT_EQ(clf.Classify(ts::Series(50, 0.0)), 9);
}

TEST(ShapeletTransformTest, ThrowsBeforeTrainAndOnEmpty) {
  baselines::ShapeletTransform clf;
  EXPECT_THROW(clf.Classify(ts::Series(10, 0.0)), std::logic_error);
  EXPECT_THROW(clf.Train(ts::Dataset{}), std::invalid_argument);
}

// ---------------- Simple feature classifiers ----------------

ml::FeatureDataset Blobs(std::uint64_t seed) {
  ts::Rng rng(seed);
  ml::FeatureDataset d;
  for (int i = 0; i < 25; ++i) {
    d.Add({rng.Gaussian(-2, 0.5), rng.Gaussian(0, 0.5)}, 1);
    d.Add({rng.Gaussian(2, 0.5), rng.Gaussian(0, 0.5)}, 2);
  }
  return d;
}

TEST(SimpleClassifiers, KnnSeparatesBlobs) {
  ml::KnnFeatureClassifier knn(3);
  knn.Train(Blobs(2));
  EXPECT_EQ(knn.Predict(std::vector<double>{-2.0, 0.0}), 1);
  EXPECT_EQ(knn.Predict(std::vector<double>{2.0, 0.0}), 2);
}

TEST(SimpleClassifiers, NaiveBayesSeparatesBlobs) {
  ml::GaussianNaiveBayes nb;
  nb.Train(Blobs(3));
  EXPECT_EQ(nb.Predict(std::vector<double>{-2.0, 0.0}), 1);
  EXPECT_EQ(nb.Predict(std::vector<double>{2.0, 0.0}), 2);
}

TEST(SimpleClassifiers, PredictBeforeTrainThrows) {
  ml::KnnFeatureClassifier knn;
  EXPECT_THROW(knn.Predict(std::vector<double>{0.0}), std::logic_error);
  ml::GaussianNaiveBayes nb;
  EXPECT_THROW(nb.Predict(std::vector<double>{0.0}), std::logic_error);
}

TEST(SimpleClassifiers, FactoryProducesEachKind) {
  const ml::FeatureDataset d = Blobs(4);
  for (auto kind :
       {ml::FeatureClassifierKind::kSvm, ml::FeatureClassifierKind::kKnn,
        ml::FeatureClassifierKind::kNaiveBayes}) {
    auto clf = ml::MakeFeatureClassifier(kind);
    clf->Train(d);
    EXPECT_TRUE(clf->trained());
    EXPECT_EQ(clf->Predict(std::vector<double>{-2.0, 0.0}), 1);
  }
}

TEST(SimpleClassifiers, SerializationRoundTrips) {
  const ml::FeatureDataset d = Blobs(5);
  for (auto kind :
       {ml::FeatureClassifierKind::kSvm, ml::FeatureClassifierKind::kKnn,
        ml::FeatureClassifierKind::kNaiveBayes}) {
    auto clf = ml::MakeFeatureClassifier(kind);
    clf->Train(d);
    std::stringstream buf;
    clf->Save(buf);
    auto restored = ml::MakeFeatureClassifier(kind);
    restored->Load(buf);
    for (std::size_t i = 0; i < d.size(); ++i) {
      EXPECT_EQ(restored->Predict(d.x[i]), clf->Predict(d.x[i]));
    }
  }
}

// ---------------- RPM with alternative final classifiers ----------------

class FinalClassifierTest
    : public ::testing::TestWithParam<ml::FeatureClassifierKind> {};

TEST_P(FinalClassifierTest, RpmWorksWithAnyClassifier) {
  core::RpmOptions opt;
  opt.search = core::ParameterSearch::kFixed;
  opt.fixed_sax.window = 25;
  opt.fixed_sax.paa_size = 5;
  opt.fixed_sax.alphabet = 4;
  opt.final_classifier = GetParam();
  core::RpmClassifier clf(opt);
  clf.Train(Split().train);
  EXPECT_LE(clf.Evaluate(Split().test), 0.3);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, FinalClassifierTest,
    ::testing::Values(ml::FeatureClassifierKind::kSvm,
                      ml::FeatureClassifierKind::kKnn,
                      ml::FeatureClassifierKind::kNaiveBayes));

// ---------------- Re-Pair-backed RPM ----------------

TEST(RePairPipeline, RpmWorksWithRePairBackend) {
  core::RpmOptions opt;
  opt.search = core::ParameterSearch::kFixed;
  opt.fixed_sax.window = 25;
  opt.fixed_sax.paa_size = 5;
  opt.fixed_sax.alphabet = 4;
  opt.gi_algorithm = grammar::GiAlgorithm::kRePair;
  core::RpmClassifier clf(opt);
  clf.Train(Split().train);
  EXPECT_FALSE(clf.patterns().empty());
  EXPECT_LE(clf.Evaluate(Split().test), 0.3);
}

// ---------------- Model serialization ----------------

TEST(ModelSerialization, RoundTripPreservesPredictions) {
  core::RpmOptions opt;
  opt.search = core::ParameterSearch::kFixed;
  opt.fixed_sax.window = 25;
  opt.fixed_sax.paa_size = 5;
  opt.fixed_sax.alphabet = 4;
  core::RpmClassifier clf(opt);
  clf.Train(Split().train);

  std::stringstream buf;
  clf.Save(buf);
  const core::RpmClassifier restored = core::RpmClassifier::Load(buf);
  EXPECT_TRUE(restored.trained());
  EXPECT_EQ(restored.patterns().size(), clf.patterns().size());
  EXPECT_EQ(restored.ClassifyAll(Split().test),
            clf.ClassifyAll(Split().test));
}

TEST(ModelSerialization, RoundTripWithKnnAndRotation) {
  core::RpmOptions opt;
  opt.search = core::ParameterSearch::kFixed;
  opt.fixed_sax.window = 25;
  opt.fixed_sax.paa_size = 5;
  opt.fixed_sax.alphabet = 4;
  opt.final_classifier = ml::FeatureClassifierKind::kKnn;
  opt.rotation_invariant = true;
  core::RpmClassifier clf(opt);
  clf.Train(Split().train);

  std::stringstream buf;
  clf.Save(buf);
  const core::RpmClassifier restored = core::RpmClassifier::Load(buf);
  EXPECT_TRUE(restored.options().rotation_invariant);
  EXPECT_EQ(restored.ClassifyAll(Split().test),
            clf.ClassifyAll(Split().test));
}

TEST(ModelSerialization, FileRoundTrip) {
  core::RpmOptions opt;
  opt.search = core::ParameterSearch::kFixed;
  opt.fixed_sax.window = 25;
  opt.fixed_sax.paa_size = 5;
  opt.fixed_sax.alphabet = 4;
  core::RpmClassifier clf(opt);
  clf.Train(Split().train);
  const std::string path = "/tmp/rpm_model_test.txt";
  clf.SaveToFile(path);
  const core::RpmClassifier restored =
      core::RpmClassifier::LoadFromFile(path);
  std::remove(path.c_str());
  EXPECT_EQ(restored.ClassifyAll(Split().test),
            clf.ClassifyAll(Split().test));
}

TEST(ModelSerialization, ErrorsOnGarbageAndUntrained) {
  std::stringstream garbage("not a model");
  EXPECT_THROW(core::RpmClassifier::Load(garbage), std::runtime_error);
  core::RpmClassifier untrained;
  std::stringstream out;
  EXPECT_THROW(untrained.Save(out), std::logic_error);
  EXPECT_THROW(core::RpmClassifier::LoadFromFile("/nonexistent/x.model"),
               std::runtime_error);
}

}  // namespace
}  // namespace rpm
