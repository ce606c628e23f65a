#include "core/classifier.h"

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/candidates.h"
#include "core/distinct.h"
#include "core/phase_profile.h"
#include "core/sampling.h"
#include "core/transform.h"
#include "ml/metrics.h"
#include "ts/dataset_io.h"
#include "ts/parallel.h"

namespace rpm::core {

void RpmClassifier::Train(const ts::Dataset& train) {
  if (train.empty()) {
    throw std::invalid_argument("RpmClassifier::Train: empty training set");
  }
  trained_ = false;
  patterns_.clear();
  feature_classifier_.reset();
  engine_.reset();
  report_ = TrainingReport{};
  using Clock = std::chrono::steady_clock;
  auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  // Majority label as the degenerate fallback.
  const auto hist = train.ClassHistogram();
  majority_label_ = hist.begin()->first;
  for (const auto& [label, count] : hist) {
    if (count > hist.at(majority_label_)) majority_label_ = label;
  }

  // Stage 0: SAX parameters per class (Section 4).
  auto t0 = Clock::now();
  ParameterSelectionResult params = [&] {
    ScopedPhaseTimer timer(PhaseProfile::kSelection);
    return SelectSaxParameters(train, options_);
  }();
  sax_by_class_ = std::move(params.sax_by_class);
  combos_evaluated_ = params.combos_evaluated;
  report_.parameter_selection_seconds = seconds_since(t0);
  report_.combos_evaluated = combos_evaluated_;

  // Stage 1+2: candidates and representative patterns (Algorithms 1, 2;
  // Section 4.3 combines per-class parameter results and re-selects).
  t0 = Clock::now();
  const std::vector<PatternCandidate> candidates =
      FindAllCandidates(train, sax_by_class_, options_);
  report_.candidate_mining_seconds = seconds_since(t0);
  report_.candidates_total = candidates.size();
  for (const auto& c : candidates) {
    ++report_.candidates_per_class[c.class_label];
  }

  t0 = Clock::now();
  ml::FeatureDataset rows;
  patterns_ = FindDistinctPatterns(train, candidates, options_, &rows);
  report_.pattern_selection_seconds = seconds_since(t0);
  report_.patterns_selected = patterns_.size();
  if (patterns_.empty()) {
    trained_ = true;  // Majority-class fallback.
    return;
  }
  t0 = Clock::now();

  // Stage 3: fit the feature-space classifier on the training rows
  // distinct selection already computed. They are the selected
  // patterns' columns, the distances the engine Classify keeps using
  // would give (training rows are never rotation-augmented; the
  // invariance trick applies at test time).
  engine_.emplace(patterns_);
  feature_classifier_ = ml::MakeFeatureClassifier(
      options_.final_classifier, options_.svm, options_.knn_k);
  {
    ScopedPhaseTimer timer(PhaseProfile::kSvm);
    feature_classifier_->Train(rows);
  }
  if (!feature_classifier_->trained()) engine_.reset();
  report_.classifier_fit_seconds = seconds_since(t0);
  trained_ = true;
}

void RpmClassifier::Train(const ts::DatasetReader& archive,
                          const TrainFromDiskOptions& disk) {
  if (archive.empty()) {
    throw std::invalid_argument("RpmClassifier::Train: empty archive");
  }
  // Pick the training subset off the label column alone (decoded at
  // open; no value pages are faulted in), then materialize just those
  // series. With no binding cap StratifiedSample returns every index in
  // order, so this is bit-identical to Train(archive.ReadAll()).
  const std::vector<std::size_t> subset = StratifiedSample(
      archive.labels(), disk.max_train_per_class, options_.seed);
  Train(archive.ReadSubset(subset));
}

namespace {

// The one batch loop behind ClassifyAll and ClassifyBatch: every slot is
// written by exactly one Classify call, so the labels are identical for
// any thread count.
template <typename SeriesAt>
std::vector<int> ClassifyEach(const RpmClassifier& clf, std::size_t n,
                              std::size_t num_threads,
                              const SeriesAt& series_at) {
  std::vector<int> out(n, 0);
  ts::ParallelFor(n, num_threads, [&](std::size_t i) {
    out[i] = clf.Classify(series_at(i));
  });
  return out;
}

}  // namespace

int RpmClassifier::Classify(ts::SeriesView series) const {
  if (!trained_) {
    throw std::logic_error("RpmClassifier::Classify before Train");
  }
  if (!engine_.has_value()) return majority_label_;
  return feature_classifier_->Predict(
      engine_->Row(series, options_.rotation_invariant));
}

std::vector<int> RpmClassifier::ClassifyAll(const ts::Dataset& test) const {
  if (!trained_) {
    throw std::logic_error("RpmClassifier::ClassifyAll before Train");
  }
  return ClassifyEach(*this, test.size(), options_.num_threads,
                      [&](std::size_t i) -> const ts::Series& {
                        return test[i].values;
                      });
}

ClassificationEngine::ClassificationEngine(const RpmClassifier& clf)
    : clf_(&clf) {
  if (!clf.trained()) {
    throw std::logic_error("ClassificationEngine: classifier not trained");
  }
}

std::size_t ClassificationEngine::num_patterns() const {
  return clf_->patterns().size();
}

std::vector<double> ClassificationEngine::Row(ts::SeriesView series) const {
  if (!has_feature_space()) {
    throw std::logic_error("ClassificationEngine::Row: no feature space");
  }
  return clf_->engine()->Row(series, clf_->options().rotation_invariant);
}

void ClassificationEngine::RowInto(ts::SeriesView series,
                                   TransformScratch* scratch,
                                   std::vector<double>* row) const {
  if (!has_feature_space()) {
    throw std::logic_error("ClassificationEngine::RowInto: no feature space");
  }
  clf_->engine()->RowInto(series, clf_->options().rotation_invariant,
                          scratch, row);
}

int ClassificationEngine::PredictRow(std::span<const double> row) const {
  if (!has_feature_space()) {
    throw std::logic_error(
        "ClassificationEngine::PredictRow: no feature space");
  }
  return clf_->feature_classifier()->Predict(row);
}

int ClassificationEngine::Classify(ts::SeriesView series) const {
  return clf_->Classify(series);
}

std::vector<int> ClassificationEngine::ClassifyBatch(
    std::span<const ts::Series> batch, std::size_t num_threads) const {
  return ClassifyEach(*clf_, batch.size(), num_threads,
                      [&](std::size_t i) -> const ts::Series& {
                        return batch[i];
                      });
}

void RpmClassifier::Save(std::ostream& out) const {
  if (!trained_) {
    throw std::logic_error("RpmClassifier::Save before Train");
  }
  out.precision(17);
  out << "RPM-MODEL v1\n";
  // v1 flags: rotation, approximate, refine_top_k, classifier, knn_k.
  // Matching is always exact, so the two approximate-matching slots are
  // "0 10" — the bytes every exact-matching v1 model carries.
  out << "flags " << (options_.rotation_invariant ? 1 : 0) << " 0 10 "
      << static_cast<int>(options_.final_classifier) << ' '
      << options_.knn_k << '\n';
  out << "majority " << majority_label_ << '\n';
  out << "sax " << sax_by_class_.size() << '\n';
  for (const auto& [label, sax] : sax_by_class_) {
    out << label << ' ' << sax.window << ' ' << sax.paa_size << ' '
        << sax.alphabet << '\n';
  }
  out << "patterns " << patterns_.size() << '\n';
  for (const auto& p : patterns_) {
    out << p.class_label << ' ' << p.frequency << ' ' << p.values.size();
    for (double v : p.values) out << ' ' << v;
    out << '\n';
  }
  out << "classifier "
      << (patterns_.empty() || feature_classifier_ == nullptr ? 0 : 1)
      << '\n';
  if (!patterns_.empty() && feature_classifier_ != nullptr) {
    feature_classifier_->Save(out);
  }
}

void RpmClassifier::SaveToFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("RpmClassifier::SaveToFile: cannot open " +
                             path);
  }
  Save(out);
  if (!out) {
    throw std::runtime_error("RpmClassifier::SaveToFile: write failed");
  }
}

namespace {

// Sanity caps applied while parsing persisted models: a corrupt or
// malicious header must produce a descriptive error, not a multi-gigabyte
// resize. Real models are orders of magnitude below both.
constexpr std::size_t kMaxModelEntries = std::size_t{1} << 20;
constexpr std::size_t kMaxPatternLength = std::size_t{1} << 24;

}  // namespace

RpmClassifier RpmClassifier::Load(std::istream& in) {
  auto fail = [](const std::string& what) -> void {
    throw std::runtime_error("RpmClassifier::Load: " + what);
  };
  // Header: magic bytes and format version are checked separately so a
  // non-model file and a model from an incompatible build fail with
  // distinct, actionable messages.
  std::string magic;
  if (!(in >> magic)) fail("empty or unreadable stream");
  if (magic != "RPM-MODEL") {
    fail("bad magic '" + magic + "' (not an RPM model file)");
  }
  std::string version;
  if (!(in >> version)) fail("missing format version");
  if (version != "v1") {
    fail("unsupported model format version '" + version +
         "' (this build reads v1)");
  }

  RpmClassifier clf;
  std::string tag;
  int rotation = 0;
  int approximate = 0;
  std::size_t refine_top_k = 0;  // only meaningful to approximate models
  int classifier_kind = 0;
  if (!(in >> tag >> rotation >> approximate >> refine_top_k >>
        classifier_kind >> clf.options_.knn_k) ||
      tag != "flags") {
    fail("bad flags");
  }
  if (approximate != 0) {
    // Serving such a model with exact matching would silently change its
    // features, so it is refused rather than reinterpreted.
    fail("flags field 'approximate' is " + std::to_string(approximate) +
         ": approximate matching is not supported by this build");
  }
  if (classifier_kind < 0 ||
      classifier_kind > static_cast<int>(ml::FeatureClassifierKind::kNaiveBayes)) {
    fail("corrupt classifier kind " + std::to_string(classifier_kind));
  }
  clf.options_.rotation_invariant = rotation != 0;
  clf.options_.final_classifier =
      static_cast<ml::FeatureClassifierKind>(classifier_kind);
  if (!(in >> tag >> clf.majority_label_) || tag != "majority") {
    fail("bad majority");
  }
  std::size_t num_sax = 0;
  if (!(in >> tag >> num_sax) || tag != "sax") fail("bad sax header");
  if (num_sax > kMaxModelEntries) {
    fail("corrupt sax entry count " + std::to_string(num_sax));
  }
  for (std::size_t i = 0; i < num_sax; ++i) {
    int label = 0;
    sax::SaxOptions sax;
    if (!(in >> label >> sax.window >> sax.paa_size >> sax.alphabet)) {
      fail("truncated sax section");
    }
    if (sax.window == 0 || sax.paa_size == 0 || sax.alphabet < 2) {
      fail("corrupt sax parameters for class " + std::to_string(label));
    }
    clf.sax_by_class_[label] = sax;
  }
  std::size_t num_patterns = 0;
  if (!(in >> tag >> num_patterns) || tag != "patterns") {
    fail("bad patterns header");
  }
  if (num_patterns > kMaxModelEntries) {
    fail("corrupt pattern count " + std::to_string(num_patterns));
  }
  clf.patterns_.resize(num_patterns);
  for (std::size_t i = 0; i < num_patterns; ++i) {
    auto& p = clf.patterns_[i];
    std::size_t len = 0;
    if (!(in >> p.class_label >> p.frequency >> len)) {
      fail("truncated pattern header (pattern " + std::to_string(i) + " of " +
           std::to_string(num_patterns) + ")");
    }
    if (len == 0 || len > kMaxPatternLength) {
      fail("corrupt pattern length " + std::to_string(len) + " (pattern " +
           std::to_string(i) + ")");
    }
    p.values.resize(len);
    for (double& v : p.values) {
      if (!(in >> v)) {
        fail("truncated pattern values (pattern " + std::to_string(i) + ")");
      }
    }
  }
  int has_classifier = 0;
  if (!(in >> tag >> has_classifier) || tag != "classifier") {
    fail("bad classifier header");
  }
  if (has_classifier != 0) {
    clf.feature_classifier_ = ml::MakeFeatureClassifier(
        clf.options_.final_classifier, clf.options_.svm, clf.options_.knn_k);
    clf.feature_classifier_->Load(in);
    if (!in) fail("truncated classifier section");
    // Every row the engine produces has one value per pattern; a
    // classifier fitted on another width would read past it or past its
    // own per-feature state on every Classify.
    const std::size_t features = clf.feature_classifier_->num_features();
    if (features != num_patterns) {
      fail("feature classifier expects " + std::to_string(features) +
           " features but the model has " + std::to_string(num_patterns) +
           " patterns");
    }
    if (num_patterns > 0 && clf.feature_classifier_->trained()) {
      clf.engine_.emplace(clf.patterns_);
    }
  }
  clf.trained_ = true;
  return clf;
}

RpmClassifier RpmClassifier::LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("RpmClassifier::LoadFromFile: cannot open " +
                             path);
  }
  return Load(in);
}

double RpmClassifier::Evaluate(const ts::Dataset& test) const {
  std::vector<int> truth;
  truth.reserve(test.size());
  for (const auto& inst : test) truth.push_back(inst.label);
  return ml::ErrorRate(ClassifyAll(test), truth);
}

}  // namespace rpm::core
