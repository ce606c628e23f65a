// Tests for the RPM core pipeline: concatenation, Algorithm 1 candidate
// mining, Algorithm 2 pruning + selection, the feature transform, and the
// end-to-end classifier with fixed SAX parameters.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/phase_profile.h"
#include "core/rpm.h"
#include "ts/generators.h"
#include "ts/rng.h"
#include "ts/rotation.h"
#include "ts/znorm.h"

namespace rpm::core {
namespace {

// A two-class planted-motif dataset: class 1 carries a sine burst, class 2
// a square pulse, at random offsets in noise.
ts::Dataset PlantedMotifs(std::size_t per_class, std::size_t length,
                          std::uint64_t seed) {
  ts::Rng rng(seed);
  ts::Dataset d;
  for (std::size_t i = 0; i < per_class; ++i) {
    for (int label : {1, 2}) {
      ts::Series s(length);
      for (auto& v : s) v = rng.Gaussian(0.0, 0.25);
      const auto at = static_cast<std::size_t>(
          rng.UniformInt(5, static_cast<std::int64_t>(length) - 45));
      for (std::size_t j = 0; j < 40; ++j) {
        if (label == 1) {
          s[at + j] +=
              2.5 * std::sin(2.0 * M_PI * static_cast<double>(j) / 20.0);
        } else {
          s[at + j] += (j < 20) ? 2.5 : -2.5;
        }
      }
      ts::ZNormalizeInPlace(s);
      d.Add(label, std::move(s));
    }
  }
  return d;
}

sax::SaxOptions TestSax() {
  sax::SaxOptions s;
  s.window = 30;
  s.paa_size = 5;
  s.alphabet = 4;
  return s;
}

RpmOptions FastOptions() {
  RpmOptions o;
  o.search = ParameterSearch::kFixed;
  o.fixed_sax = TestSax();
  o.gamma = 0.2;
  return o;
}

TEST(Concatenate, BoundariesAndInstanceMap) {
  ts::Dataset d;
  d.Add(1, {1.0, 2.0, 3.0});
  d.Add(2, {9.0});
  d.Add(1, {4.0, 5.0});
  d.Add(1, {6.0});
  const ConcatenatedClass c = ConcatenateClass(d, 1);
  EXPECT_EQ(c.values, (ts::Series{1.0, 2.0, 3.0, 4.0, 5.0, 6.0}));
  EXPECT_EQ(c.boundaries, (std::vector<std::size_t>{3, 5}));
  EXPECT_EQ(c.num_instances, 3u);
  EXPECT_EQ(c.InstanceAt(0), 0u);
  EXPECT_EQ(c.InstanceAt(2), 0u);
  EXPECT_EQ(c.InstanceAt(3), 1u);
  EXPECT_EQ(c.InstanceAt(5), 2u);
}

TEST(Candidates, FindsFrequentClassMotifs) {
  const ts::Dataset train = PlantedMotifs(8, 150, 1);
  const RpmOptions opt = FastOptions();
  const auto c1 = FindClassCandidates(train, 1, TestSax(), opt);
  const auto c2 = FindClassCandidates(train, 2, TestSax(), opt);
  EXPECT_FALSE(c1.empty());
  EXPECT_FALSE(c2.empty());
  for (const auto& c : c1) {
    EXPECT_EQ(c.class_label, 1);
    EXPECT_GE(c.frequency, 2u);
    EXPECT_GE(c.values.size(), 2u);
    EXPECT_NEAR(ts::Mean(c.values), 0.0, 1e-6);
  }
}

TEST(Candidates, GammaControlsPoolSize) {
  const ts::Dataset train = PlantedMotifs(8, 150, 2);
  RpmOptions strict = FastOptions();
  strict.gamma = 0.9;
  RpmOptions loose = FastOptions();
  loose.gamma = 0.1;
  const auto few = FindClassCandidates(train, 1, TestSax(), strict);
  const auto many = FindClassCandidates(train, 1, TestSax(), loose);
  EXPECT_LE(few.size(), many.size());
}

TEST(Candidates, WindowLargerThanSeriesYieldsEmpty) {
  ts::Dataset d;
  d.Add(1, ts::Series(10, 0.0));
  sax::SaxOptions s = TestSax();
  s.window = 50;
  EXPECT_TRUE(FindClassCandidates(d, 1, s, FastOptions()).empty());
}

TEST(Candidates, MedoidPrototypeIsAMember) {
  const ts::Dataset train = PlantedMotifs(8, 150, 3);
  RpmOptions opt = FastOptions();
  opt.prototype = ClusterPrototype::kMedoid;
  const auto cands = FindClassCandidates(train, 1, TestSax(), opt);
  ASSERT_FALSE(cands.empty());
  // Medoid values are z-normalized actual members, so stddev == 1.
  for (const auto& c : cands) {
    EXPECT_NEAR(ts::StdDev(c.values), 1.0, 1e-6);
  }
}

TEST(Distinct, CandidateDistanceSymmetricIshAndZeroOnSelf) {
  PatternCandidate a;
  a.values = {0.0, 1.0, 0.0, -1.0};
  ts::ZNormalizeInPlace(a.values);
  EXPECT_NEAR(CandidateDistance(a, a), 0.0, 1e-12);
  PatternCandidate b;
  b.values = ts::Series{0.0, 1.0, 0.0, -1.0, 0.0, 1.0};
  ts::ZNormalizeInPlace(b.values);
  EXPECT_DOUBLE_EQ(CandidateDistance(a, b), CandidateDistance(b, a));
}

TEST(Distinct, ThresholdPercentileMonotone) {
  std::vector<PatternCandidate> cands(1);
  cands[0].values = ts::Series(4, 0.0);
  cands[0].within_cluster_distances = {1.0, 2.0, 3.0, 4.0, 5.0};
  const double t30 = ComputeSimilarityThreshold(cands, 30.0);
  const double t70 = ComputeSimilarityThreshold(cands, 70.0);
  EXPECT_LT(t30, t70);
  EXPECT_DOUBLE_EQ(ComputeSimilarityThreshold({}, 30.0), 0.0);
}

TEST(Distinct, RemoveSimilarKeepsMoreFrequent) {
  PatternCandidate a;
  a.values = {0.0, 1.0, 2.0, 3.0};
  ts::ZNormalizeInPlace(a.values);
  a.frequency = 3;
  PatternCandidate b = a;  // identical values
  b.frequency = 10;
  PatternCandidate c;
  c.values = {3.0, -2.0, 5.0, -4.0};
  ts::ZNormalizeInPlace(c.values);
  c.frequency = 1;
  const auto kept = RemoveSimilarCandidates({a, b, c}, 0.5);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].frequency, 10u);  // b replaced a
}

TEST(Distinct, EndToEndSelectsDiscriminativePatterns) {
  const ts::Dataset train = PlantedMotifs(8, 150, 4);
  const RpmOptions opt = FastOptions();
  std::map<int, sax::SaxOptions> sax = {{1, TestSax()}, {2, TestSax()}};
  const auto candidates = FindAllCandidates(train, sax, opt);
  ASSERT_FALSE(candidates.empty());
  const auto patterns = FindDistinctPatterns(train, candidates, opt);
  ASSERT_FALSE(patterns.empty());
  EXPECT_LE(patterns.size(), candidates.size());
}

TEST(Distinct, SelectedRowsEqualTheSelectedPatternsTransform) {
  // The fit reuses selection's transform: the selected columns of the
  // rows against every pruned candidate must be the rows against the
  // selected patterns alone, bit for bit, at any thread count. Some
  // patterns are longer than the shortest series, so the shrunk-pattern
  // branch is covered too.
  ts::Dataset train = PlantedMotifs(8, 150, 6);
  train.Add(1, train[0].values);
  train.Add(2, ts::Series(train[1].values.begin(),
                          train[1].values.begin() + 24));
  RpmOptions opt = FastOptions();
  std::map<int, sax::SaxOptions> sax = {{1, TestSax()}, {2, TestSax()}};
  const auto candidates = FindAllCandidates(train, sax, opt);
  ASSERT_FALSE(candidates.empty());
  for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    opt.num_threads = threads;
    ml::FeatureDataset rows;
    const auto patterns = FindDistinctPatterns(train, candidates, opt, &rows);
    ASSERT_FALSE(patterns.empty());
    const ml::FeatureDataset want = TransformEngine(patterns).Apply(train);
    EXPECT_EQ(rows.y, want.y);
    ASSERT_EQ(rows.x.size(), want.x.size());
    for (std::size_t i = 0; i < want.x.size(); ++i) {
      ASSERT_EQ(rows.x[i], want.x[i]) << "row " << i << ", " << threads
                                      << " threads";
    }
  }
  ml::FeatureDataset none;
  none.Add({1.0}, 1);
  EXPECT_TRUE(FindDistinctPatterns(train, {}, opt, &none).empty());
  EXPECT_TRUE(none.empty());
}

TEST(Transform, FeatureRowShapeAndSeparability) {
  const ts::Dataset train = PlantedMotifs(8, 150, 5);
  const RpmOptions opt = FastOptions();
  std::map<int, sax::SaxOptions> sax = {{1, TestSax()}, {2, TestSax()}};
  const auto patterns =
      FindDistinctPatterns(train, FindAllCandidates(train, sax, opt), opt);
  ASSERT_FALSE(patterns.empty());
  const ml::FeatureDataset f = TransformEngine(patterns).Apply(train);
  EXPECT_EQ(f.size(), train.size());
  EXPECT_EQ(f.num_features(), patterns.size());
  for (const auto& row : f.x) {
    for (double v : row) {
      EXPECT_TRUE(std::isfinite(v));
      EXPECT_GE(v, 0.0);
    }
  }
}

TEST(Transform, PatternLongerThanSeriesHandled) {
  std::vector<RepresentativePattern> patterns(1);
  patterns[0].values = ts::Series(20, 0.0);
  for (std::size_t i = 0; i < 20; ++i) {
    patterns[0].values[i] = std::sin(0.3 * static_cast<double>(i));
  }
  ts::ZNormalizeInPlace(patterns[0].values);
  const ts::Series series = {1.0, 2.0, 1.0, 0.0, 1.0};
  const auto row = TransformEngine(patterns).Row(series);
  ASSERT_EQ(row.size(), 1u);
  EXPECT_TRUE(std::isfinite(row[0]));
}

TEST(Transform, RotationInvariantNeverWorse) {
  // The rotation-invariant distance is a min over two alternatives, so it
  // can only be <= the plain distance.
  const ts::Dataset train = PlantedMotifs(4, 150, 6);
  std::vector<RepresentativePattern> patterns(1);
  patterns[0].values = ts::Series(
      train[0].values.begin(), train[0].values.begin() + 30);
  ts::ZNormalizeInPlace(patterns[0].values);
  const TransformEngine engine(patterns);
  for (const auto& inst : train) {
    const double plain = engine.Row(inst.values)[0];
    const double rot = engine.Row(inst.values, true)[0];
    EXPECT_LE(rot, plain + 1e-12);
  }
}

TEST(Transform, EngineOutlivesItsPatternVector) {
  // The engine copies the patterns: built from a temporary vector, it
  // must answer after the vector is gone, and again once moved.
  const ts::Dataset train = PlantedMotifs(4, 150, 15);
  auto cut = [&] {
    std::vector<RepresentativePattern> patterns(3);
    for (std::size_t k = 0; k < 3; ++k) {
      const ts::Series& v = train[k].values;
      patterns[k].values.assign(v.begin() + 10 * k, v.begin() + 30 + 15 * k);
      ts::ZNormalizeInPlace(patterns[k].values);
    }
    return patterns;
  };
  const std::vector<RepresentativePattern> kept = cut();
  const TransformEngine reference(kept);
  const ml::FeatureDataset expected = reference.Apply(train);
  TransformEngine engine(cut());
  EXPECT_EQ(engine.Apply(train).x, expected.x);
  const TransformEngine moved(std::move(engine));
  EXPECT_EQ(moved.Apply(train).x, expected.x);
  for (const auto& inst : train) {
    EXPECT_EQ(moved.Row(inst.values, true), reference.Row(inst.values, true));
  }
}

TEST(Classifier, TrainAndClassifyPlantedMotifs) {
  const ts::Dataset train = PlantedMotifs(10, 150, 7);
  const ts::Dataset test = PlantedMotifs(15, 150, 8);
  RpmClassifier clf(FastOptions());
  clf.Train(train);
  ASSERT_TRUE(clf.trained());
  EXPECT_FALSE(clf.patterns().empty());
  const double error = clf.Evaluate(test);
  EXPECT_LE(error, 0.15) << "error " << error;
}

TEST(Classifier, ThrowsBeforeTrainAndOnEmptyTrain) {
  RpmClassifier clf(FastOptions());
  EXPECT_THROW(clf.Classify(ts::Series(10, 0.0)), std::logic_error);
  EXPECT_THROW(clf.Train(ts::Dataset{}), std::invalid_argument);
}

TEST(Classifier, DegenerateDataFallsBackToMajority) {
  // Pure white noise, single class: no patterns survive but Train must
  // still produce a usable (constant) classifier.
  ts::Rng rng(9);
  ts::Dataset train;
  for (int i = 0; i < 4; ++i) {
    ts::Series s(40);
    for (auto& v : s) v = rng.Gaussian();
    train.Add(3, std::move(s));
  }
  RpmOptions opt = FastOptions();
  opt.fixed_sax.window = 20;
  RpmClassifier clf(opt);
  clf.Train(train);
  EXPECT_EQ(clf.Classify(ts::Series(40, 0.5)), 3);
}

// Trains `opt` on `train`; the trained model and its saved-and-loaded
// copy, each moved into a new object, must label `test` as the trained
// model did before the move, through Classify, ClassifyAll and a
// ClassificationEngine. Returns whether the model has an engine.
bool MovedModelsAgree(const RpmOptions& opt, const ts::Dataset& train,
                      const ts::Dataset& test) {
  RpmClassifier trained(opt);
  trained.Train(train);
  const std::vector<int> expected = trained.ClassifyAll(test);
  const bool has_engine = trained.engine() != nullptr;
  std::stringstream saved;
  trained.Save(saved);
  std::vector<RpmClassifier> moved;
  moved.push_back(std::move(trained));
  moved.push_back(RpmClassifier::Load(saved));
  std::vector<ts::Series> batch;
  for (const auto& inst : test) batch.push_back(inst.values);
  for (const RpmClassifier& clf : moved) {
    EXPECT_EQ(clf.engine() != nullptr, has_engine);
    const ClassificationEngine engine(clf);
    for (std::size_t i = 0; i < test.size(); ++i) {
      EXPECT_EQ(clf.Classify(test[i].values), expected[i]);
      EXPECT_EQ(engine.Classify(test[i].values), expected[i]);
    }
    EXPECT_EQ(clf.ClassifyAll(test), expected);
    EXPECT_EQ(engine.ClassifyBatch(batch, 4), expected);
  }
  return has_engine;
}

TEST(Classifier, MovedSvmModelsClassifyThroughTheirEngine) {
  EXPECT_TRUE(MovedModelsAgree(FastOptions(), PlantedMotifs(8, 150, 16),
                               PlantedMotifs(6, 150, 17)));
}

TEST(Classifier, MovedRotationInvariantModelsClassifyThroughTheirEngine) {
  RpmOptions opt = FastOptions();
  opt.rotation_invariant = true;
  ts::Dataset rotated;
  for (const auto& inst : PlantedMotifs(6, 150, 19)) {
    rotated.Add(inst.label, ts::RotateAtMidpoint(inst.values));
  }
  EXPECT_TRUE(MovedModelsAgree(opt, PlantedMotifs(8, 150, 18), rotated));
}

TEST(Classifier, MovedMajorityModelsKeepTheFallback) {
  // Series shorter than the SAX window yield no candidates, so the model
  // is the majority-class fallback.
  ts::Rng rng(20);
  ts::Dataset train;
  for (int label : {1, 2, 2, 1, 2}) {
    ts::Series s(16);
    for (auto& v : s) v = rng.Gaussian();
    train.Add(label, std::move(s));
  }
  EXPECT_FALSE(MovedModelsAgree(FastOptions(), train, train));
}

TEST(PhaseProfile, FinalFitIsChargedToTheSvmPhase) {
  // kFixed runs no selection CV, so the final fit is the only SVM work.
  const ts::DatasetSplit cbf = ts::MakeCbf(10, 1, 128, 21);
  RpmClassifier clf(FastOptions());
  PhaseProfile::Reset();
  PhaseProfile::Enable(true);
  clf.Train(cbf.train);
  PhaseProfile::Enable(false);
  const auto totals = PhaseProfile::Totals();
  PhaseProfile::Reset();
  ASSERT_FALSE(clf.patterns().empty());
  EXPECT_GT(totals[PhaseProfile::kSvm], 0.0);
  EXPECT_GT(totals[PhaseProfile::kTransform], 0.0);
}

TEST(Classifier, PerClassSaxRecorded) {
  const ts::Dataset train = PlantedMotifs(8, 150, 10);
  RpmClassifier clf(FastOptions());
  clf.Train(train);
  EXPECT_EQ(clf.sax_by_class().size(), 2u);
  EXPECT_EQ(clf.sax_by_class().at(1).window, 30u);
}

TEST(ParameterSelection, DefaultRangeScalesWithLength) {
  ts::Dataset d;
  d.Add(1, ts::Series(200, 0.0));
  const SaxParamRange r = DefaultRange(d);
  EXPECT_EQ(r.window_lo, 25);
  EXPECT_EQ(r.window_hi, 120);
  EXPECT_GE(r.paa_lo, 2);
  EXPECT_LE(r.alphabet_hi, 9);
}

TEST(ParameterSelection, FixedSearchReturnsFixedSax) {
  const ts::Dataset train = PlantedMotifs(4, 150, 11);
  RpmOptions opt = FastOptions();
  const auto result = SelectSaxParameters(train, opt);
  EXPECT_EQ(result.combos_evaluated, 0u);
  for (const auto& [label, sax] : result.sax_by_class) {
    EXPECT_EQ(sax.window, opt.fixed_sax.window);
  }
}

TEST(ParameterSelection, DirectSearchPicksWorkingParams) {
  const ts::Dataset train = PlantedMotifs(8, 150, 12);
  RpmOptions opt = FastOptions();
  opt.search = ParameterSearch::kDirect;
  opt.direct_max_evaluations = 8;
  opt.param_splits = 2;
  opt.param_folds = 2;
  const auto result = SelectSaxParameters(train, opt);
  EXPECT_GE(result.combos_evaluated, 1u);
  EXPECT_EQ(result.sax_by_class.size(), 2u);
  const SaxParamRange range = DefaultRange(train);
  for (const auto& [label, sax] : result.sax_by_class) {
    EXPECT_GE(static_cast<int>(sax.window), range.window_lo);
    EXPECT_LE(static_cast<int>(sax.window), range.window_hi);
  }
}

TEST(ParameterSelection, EvaluateComboScoresClasses) {
  const ts::Dataset train = PlantedMotifs(8, 150, 13);
  RpmOptions opt = FastOptions();
  opt.param_splits = 2;
  opt.param_folds = 2;
  const auto f = EvaluateSaxCombo(train, TestSax(), opt);
  ASSERT_EQ(f.size(), 2u);
  for (const auto& [label, score] : f) {
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
  }
}

TEST(Ablation, JunctionFilteringReducesOrKeepsCandidates) {
  const ts::Dataset train = PlantedMotifs(8, 150, 14);
  RpmOptions with = FastOptions();
  RpmOptions without = FastOptions();
  without.filter_junctions = false;
  const auto a = FindClassCandidates(train, 1, TestSax(), with);
  const auto b = FindClassCandidates(train, 1, TestSax(), without);
  std::size_t freq_with = 0;
  std::size_t freq_without = 0;
  for (const auto& c : a) freq_with += c.frequency;
  for (const auto& c : b) freq_without += c.frequency;
  EXPECT_LE(freq_with, freq_without);
}

}  // namespace
}  // namespace rpm::core
