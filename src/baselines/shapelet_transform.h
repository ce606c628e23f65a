// Shapelet Transform (Lines, Davis, Hills & Bagnall 2012), discussed in
// the paper's related work (Section 2.2): find the K best shapelets
// globally by information gain, transform every series into the K-vector
// of best-match distances, and hand the result to a conventional
// classifier (the SVM substrate here). RPM's transform step is the
// class-specific, grammar-driven analogue of this method, which makes ST
// the natural extra comparator.

#ifndef RPM_BASELINES_SHAPELET_TRANSFORM_H_
#define RPM_BASELINES_SHAPELET_TRANSFORM_H_

#include <vector>

#include "baselines/classifier.h"
#include "distance/matcher.h"
#include "ml/svm.h"

namespace rpm::baselines {

struct ShapeletTransformOptions {
  /// Number of shapelets kept (the K features of the transform).
  std::size_t num_shapelets = 10;
  /// Candidate lengths as fractions of the shortest series.
  std::vector<double> length_fractions = {0.15, 0.3, 0.45};
  /// Sampled start positions per series per length.
  std::size_t starts_per_series = 12;
  ml::SvmOptions svm;
};

class ShapeletTransform : public Classifier {
 public:
  explicit ShapeletTransform(ShapeletTransformOptions options = {})
      : options_(options) {}

  void Train(const ts::Dataset& train) override;
  int Classify(ts::SeriesView series) const override;
  std::string Name() const override { return "ST"; }

  /// The selected shapelets (z-normalized), best first.
  const std::vector<ts::Series>& shapelets() const { return shapelets_; }

 private:
  std::vector<double> Transform(ts::SeriesView series) const;

  ShapeletTransformOptions options_;
  bool trained_ = false;
  std::vector<ts::Series> shapelets_;
  /// Matching contexts of the selected shapelets, built once after
  /// selection and reused by every Transform call.
  distance::BatchMatcher matcher_;
  ml::SvmClassifier svm_{};
  int lone_label_ = 0;  // majority / degenerate fallback
};

}  // namespace rpm::baselines

#endif  // RPM_BASELINES_SHAPELET_TRANSFORM_H_
