// Alternative classifiers over the representative-pattern feature space.
// Section 3.1: "we use SVM for its popularity, but note that our
// algorithm can work with any classifier" — this module makes that claim
// executable: a common interface, k-NN and Gaussian Naive Bayes
// implementations, an SVM wrapper, and a factory keyed by kind.

#ifndef RPM_ML_SIMPLE_CLASSIFIERS_H_
#define RPM_ML_SIMPLE_CLASSIFIERS_H_

#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "ml/feature_dataset.h"
#include "ml/svm.h"

namespace rpm::ml {

/// Classifier over fixed-length feature vectors.
class FeatureClassifier {
 public:
  virtual ~FeatureClassifier() = default;
  virtual void Train(const FeatureDataset& data) = 0;
  virtual int Predict(std::span<const double> features) const = 0;
  virtual bool trained() const = 0;
  /// Width of the rows the trained state was fitted on (0 before Train).
  virtual std::size_t num_features() const = 0;
  /// Text serialization of the trained state (model persistence).
  virtual void Save(std::ostream& out) const = 0;
  virtual void Load(std::istream& in) = 0;
};

/// k-nearest-neighbour over Euclidean feature distance (majority vote,
/// nearer neighbour breaks ties).
class KnnFeatureClassifier : public FeatureClassifier {
 public:
  explicit KnnFeatureClassifier(std::size_t k = 1) : k_(k) {}
  void Train(const FeatureDataset& data) override;
  int Predict(std::span<const double> features) const override;
  bool trained() const override { return !data_.empty(); }
  std::size_t num_features() const override { return data_.num_features(); }
  void Save(std::ostream& out) const override;
  void Load(std::istream& in) override;

 private:
  std::size_t k_;
  FeatureDataset data_;
};

/// Gaussian Naive Bayes: per-class, per-feature normal likelihoods with
/// variance smoothing; class priors from the training distribution.
class GaussianNaiveBayes : public FeatureClassifier {
 public:
  void Train(const FeatureDataset& data) override;
  int Predict(std::span<const double> features) const override;
  bool trained() const override { return !classes_.empty(); }
  std::size_t num_features() const override {
    return classes_.empty() ? 0 : classes_.front().mean.size();
  }
  void Save(std::ostream& out) const override;
  void Load(std::istream& in) override;

 private:
  struct ClassModel {
    int label = 0;
    double log_prior = 0.0;
    std::vector<double> mean;
    std::vector<double> variance;
  };
  std::vector<ClassModel> classes_;
};

/// Thin adapter exposing SvmClassifier through the common interface.
class SvmFeatureClassifier : public FeatureClassifier {
 public:
  explicit SvmFeatureClassifier(SvmOptions options = {}) : svm_(options) {}
  void Train(const FeatureDataset& data) override { svm_.Train(data); }
  int Predict(std::span<const double> features) const override {
    return svm_.Predict(features);
  }
  bool trained() const override { return svm_.trained(); }
  std::size_t num_features() const override { return svm_.num_features(); }
  void Save(std::ostream& out) const override { svm_.Save(out); }
  void Load(std::istream& in) override { svm_.Load(in); }

 private:
  SvmClassifier svm_;
};

/// Which feature-space classifier RPM uses at the final stage.
enum class FeatureClassifierKind { kSvm, kKnn, kNaiveBayes };

/// Factory; `svm_options` only applies to kSvm, `knn_k` only to kKnn.
std::unique_ptr<FeatureClassifier> MakeFeatureClassifier(
    FeatureClassifierKind kind, const SvmOptions& svm_options = {},
    std::size_t knn_k = 1);

}  // namespace rpm::ml

#endif  // RPM_ML_SIMPLE_CLASSIFIERS_H_
