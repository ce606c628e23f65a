// Adapter exposing the RPM classifier through the common baseline
// interface so the benchmark harness can sweep all six methods uniformly.

#ifndef RPM_BASELINES_RPM_ADAPTER_H_
#define RPM_BASELINES_RPM_ADAPTER_H_

#include "baselines/classifier.h"
#include "core/classifier.h"

namespace rpm::baselines {

class RpmAdapter : public Classifier {
 public:
  explicit RpmAdapter(core::RpmOptions options = {}) : clf_(options) {}

  void Train(const ts::Dataset& train) override { clf_.Train(train); }
  int Classify(ts::SeriesView series) const override {
    return clf_.Classify(series);
  }
  std::vector<int> ClassifyAll(const ts::Dataset& test) const override {
    // Delegate so the batch runs on the options' num_threads pool
    // workers (rpm_cli evaluate) instead of the base class's serial loop.
    return clf_.ClassifyAll(test);
  }
  std::string Name() const override { return "RPM"; }

  const core::RpmClassifier& classifier() const { return clf_; }
  core::RpmClassifier& classifier() { return clf_; }

 private:
  core::RpmClassifier clf_;
};

}  // namespace rpm::baselines

#endif  // RPM_BASELINES_RPM_ADAPTER_H_
