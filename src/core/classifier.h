// The end-to-end RPM classifier (the paper's contribution): learn the
// representative patterns from the training data (Algorithms 1-3), embed
// series into the pattern-distance feature space, and classify with an
// SVM. This is the main public entry point of the library.

#ifndef RPM_CORE_CLASSIFIER_H_
#define RPM_CORE_CLASSIFIER_H_

#include <map>
#include <optional>
#include <span>
#include <vector>

#include <iosfwd>
#include <memory>
#include <string>

#include "core/options.h"
#include "core/parameter_selection.h"
#include "core/pattern.h"
#include "core/transform.h"
#include "ml/simple_classifiers.h"
#include "ts/series.h"

namespace rpm::ts {
class DatasetReader;
}  // namespace rpm::ts

namespace rpm::core {

/// Caps applied when training straight off an on-disk RPMD archive
/// (ts/dataset_io.h); see docs/DATASETS.md, "Sampling semantics".
struct TrainFromDiskOptions {
  /// Per-class cap on the instances materialized from the archive: past
  /// it a stratified reservoir sample (seeded from RpmOptions::seed) is
  /// read instead of the full class. 0 — or a cap at or above every
  /// class size — materializes everything, making disk training
  /// bit-identical to Train(reader.ReadAll()).
  std::size_t max_train_per_class = 0;
};

/// Per-stage training diagnostics, populated by Train.
struct TrainingReport {
  double parameter_selection_seconds = 0.0;
  double candidate_mining_seconds = 0.0;
  double pattern_selection_seconds = 0.0;
  double classifier_fit_seconds = 0.0;
  std::size_t candidates_total = 0;
  std::size_t patterns_selected = 0;
  std::size_t combos_evaluated = 0;
  std::map<int, std::size_t> candidates_per_class;

  double total_seconds() const {
    return parameter_selection_seconds + candidate_mining_seconds +
           pattern_selection_seconds + classifier_fit_seconds;
  }
};

class RpmClassifier {
 public:
  explicit RpmClassifier(RpmOptions options = {}) : options_(options) {}

  /// Learns SAX parameters (per `options.search`), mines the
  /// representative patterns, and fits the SVM on the transformed
  /// training data. Degenerate inputs (no minable patterns) fall back to
  /// a majority-class model so Classify never fails.
  void Train(const ts::Dataset& train);

  /// Archive-scale variant: trains off an mmap-backed RPMD reader. Only
  /// the label column is scanned to pick the (possibly capped) training
  /// subset — value pages are touched solely for the series actually
  /// materialized — so peak memory tracks the subset, not the file.
  void Train(const ts::DatasetReader& archive,
             const TrainFromDiskOptions& disk = {});

  /// Classifies one series through the model's warm engine.
  int Classify(ts::SeriesView series) const;

  /// Classifies every instance of `test` (labels in `test` are ignored).
  /// The loop runs on `options.num_threads` pool workers; predictions are
  /// identical to per-series Classify calls for any thread count.
  std::vector<int> ClassifyAll(const ts::Dataset& test) const;

  /// Error rate on a labeled test set.
  double Evaluate(const ts::Dataset& test) const;

  /// The learned representative patterns (empty before Train).
  const std::vector<RepresentativePattern>& patterns() const {
    return patterns_;
  }

  /// SAX parameters chosen per class.
  const std::map<int, sax::SaxOptions>& sax_by_class() const {
    return sax_by_class_;
  }

  /// Distinct SAX combos evaluated during parameter selection (R).
  std::size_t combos_evaluated() const { return combos_evaluated_; }

  bool trained() const { return trained_; }

  const RpmOptions& options() const { return options_; }

  /// Worker threads used by ClassifyAll (results are bit-identical for
  /// any value; only wall-clock time changes). Loaded models, whose
  /// persisted format carries no thread count, start at the default.
  void set_num_threads(std::size_t n) { options_.num_threads = n; }

  /// The fitted feature-space classifier, or nullptr for the
  /// majority-class fallback (and before Train).
  const ml::FeatureClassifier* feature_classifier() const {
    return feature_classifier_.get();
  }

  /// Label predicted when no patterns were minable.
  int majority_label() const { return majority_label_; }

  /// The transform over the learned patterns, built once by Train or
  /// Load and shared by every Classify call; nullptr for the
  /// majority-class fallback (and before Train).
  const TransformEngine* engine() const {
    return engine_.has_value() ? &*engine_ : nullptr;
  }

  /// Stage timings and counts from the last Train call.
  const TrainingReport& report() const { return report_; }

  /// Persists the trained model (patterns, per-class SAX parameters,
  /// transform flags, feature classifier) as line-oriented text.
  /// Requires trained().
  void Save(std::ostream& out) const;
  void SaveToFile(const std::string& path) const;

  /// Restores a model written by Save. The returned classifier is ready
  /// to Classify without retraining. Throws std::runtime_error on
  /// malformed input, including a feature classifier fitted on a
  /// different number of features than the model has patterns.
  static RpmClassifier Load(std::istream& in);
  static RpmClassifier LoadFromFile(const std::string& path);

 private:
  RpmOptions options_;
  bool trained_ = false;
  int majority_label_ = 0;
  std::vector<RepresentativePattern> patterns_;
  std::map<int, sax::SaxOptions> sax_by_class_;
  std::size_t combos_evaluated_ = 0;
  TrainingReport report_;
  std::unique_ptr<ml::FeatureClassifier> feature_classifier_;
  /// Engaged exactly when Classify goes through the feature classifier.
  std::optional<TransformEngine> engine_;
};

/// Request-oriented view of a trained classifier: the serving queue,
/// stream sessions and benches classify through it. It builds nothing;
/// rows and labels come from the classifier's own warm engine
/// (RpmClassifier::engine), so it is cheap to construct.
///
/// Keeps a pointer to `clf`: the classifier must outlive the engine and
/// must not be retrained or moved while the engine is alive.
class ClassificationEngine {
 public:
  explicit ClassificationEngine(const RpmClassifier& clf);

  /// Label of one series, identical to clf.Classify(series).
  int Classify(ts::SeriesView series) const;

  /// Labels for a batch of plain series, parallel over `num_threads` pool
  /// workers; bit-identical to per-series Classify for any thread count.
  std::vector<int> ClassifyBatch(std::span<const ts::Series> batch,
                                 std::size_t num_threads = 1) const;

  std::size_t num_patterns() const;

  /// False for a majority-class fallback model: no pattern space exists,
  /// Row/PredictRow must not be called and Classify returns the majority
  /// label unconditionally.
  bool has_feature_space() const { return clf_->engine() != nullptr; }

  /// The K-dim pattern-distance row of one series (the transform the
  /// feature classifier consumes). Requires has_feature_space(). Exposed
  /// so callers that need both the row and the label — e.g. the streaming
  /// scorer's confidence margin — pay the pattern scan once.
  std::vector<double> Row(ts::SeriesView series) const;

  /// Alloc-free Row for hot loops (the streaming scorer's per-hop path):
  /// contexts and match buffers persist in `scratch`, the row is written
  /// into `*row`. Bit-identical to Row. Requires has_feature_space().
  void RowInto(ts::SeriesView series, TransformScratch* scratch,
               std::vector<double>* row) const;

  /// Feature-classifier prediction on a row produced by Row(). Requires
  /// has_feature_space(). PredictRow(Row(s)) == Classify(s).
  int PredictRow(std::span<const double> row) const;

  /// The classifier the engine was built over (patterns, class labels,
  /// majority fallback).
  const RpmClassifier& classifier() const { return *clf_; }

 private:
  const RpmClassifier* clf_;
};

}  // namespace rpm::core

#endif  // RPM_CORE_CLASSIFIER_H_
