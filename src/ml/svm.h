// Support vector machine trained with Platt's Sequential Minimal
// Optimization. RPM classifies in the representative-pattern feature space
// with an SVM (Section 3.1: "we use SVM for its popularity, but note that
// our algorithm can work with any classifier"). Multi-class problems are
// handled by one-vs-one voting; features are standardized internally.

#ifndef RPM_ML_SVM_H_
#define RPM_ML_SVM_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "ml/feature_dataset.h"

namespace rpm::ml {

/// Kernel families supported by the SMO trainer.
enum class KernelKind { kLinear, kRbf, kPolynomial };

/// SVM hyperparameters.
struct SvmOptions {
  double c = 1.0;                        ///< soft-margin penalty
  KernelKind kernel = KernelKind::kLinear;
  /// RBF gamma; <= 0 means 1 / num_features (the common heuristic).
  double gamma = 0.0;
  /// Polynomial kernel (gamma*<a,b> + coef0)^degree.
  int poly_degree = 3;
  double poly_coef0 = 1.0;
  double tolerance = 1e-3;               ///< KKT violation tolerance
  std::size_t max_passes = 5;            ///< SMO passes without change
  std::size_t max_iterations = 2000;     ///< hard iteration cap
  std::uint64_t seed = 7;                ///< partner-pick shuffling
};

/// One-vs-one multi-class SVM.
class SvmClassifier {
 public:
  explicit SvmClassifier(SvmOptions options = {}) : options_(options) {}

  /// Trains on `data`; previous state is discarded. Requires at least one
  /// instance and one feature. Degenerate single-class data yields a
  /// constant classifier.
  void Train(const FeatureDataset& data);

  /// Predicts the label of one standardized-internally feature row.
  int Predict(std::span<const double> features) const;

  /// Predicts all rows of `data`.
  std::vector<int> PredictAll(const FeatureDataset& data) const;

  bool trained() const { return trained_; }

  /// Width of the rows the model was fitted on (its feature moments).
  std::size_t num_features() const { return feature_mean_.size(); }

  /// Writes the trained model (options, moments, support vectors) as
  /// line-oriented text. Requires trained().
  void Save(std::ostream& out) const;

  /// Restores a model previously written by Save. Throws
  /// std::runtime_error on malformed input.
  void Load(std::istream& in);

 private:
  struct BinaryModel {
    int positive_label = 0;
    int negative_label = 0;
    std::vector<std::vector<double>> support_vectors;
    std::vector<double> alpha_y;  // alpha_i * y_i per support vector
    double bias = 0.0;
  };

  double Decision(const BinaryModel& m, std::span<const double> row) const;
  std::vector<double> Standardize(std::span<const double> row) const;

  SvmOptions options_;
  bool trained_ = false;
  int lone_label_ = 0;  // used when training data has a single class
  std::vector<BinaryModel> models_;
  std::vector<double> feature_mean_;
  std::vector<double> feature_std_;
};

}  // namespace rpm::ml

#endif  // RPM_ML_SVM_H_
