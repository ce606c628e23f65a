// Common interface of the comparison classifiers from the paper's
// evaluation (Section 5.1): NN-ED, NN-DTWB, SAX-VSM, Fast Shapelets and
// Learning Shapelets all implement this, as does the RpmAdapter, so the
// benchmark harness can sweep them uniformly.

#ifndef RPM_BASELINES_CLASSIFIER_H_
#define RPM_BASELINES_CLASSIFIER_H_

#include <string>
#include <vector>

#include "ts/series.h"

namespace rpm::baselines {

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Fits the model; may be called again to retrain from scratch.
  virtual void Train(const ts::Dataset& train) = 0;

  /// Predicts the label of one series. Precondition: Train was called.
  virtual int Classify(ts::SeriesView series) const = 0;

  /// Display name used in benchmark tables.
  virtual std::string Name() const = 0;

  /// Predicts every instance of `test`. The default loops Classify on
  /// the calling thread; RpmAdapter overrides it to run the batch on its
  /// options' `num_threads` pool workers.
  virtual std::vector<int> ClassifyAll(const ts::Dataset& test) const;

  /// Error rate on a labeled test set.
  double Evaluate(const ts::Dataset& test) const;
};

}  // namespace rpm::baselines

#endif  // RPM_BASELINES_CLASSIFIER_H_
