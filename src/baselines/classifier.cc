#include "baselines/classifier.h"

#include "ml/metrics.h"

namespace rpm::baselines {

std::vector<int> Classifier::ClassifyAll(const ts::Dataset& test) const {
  std::vector<int> out;
  out.reserve(test.size());
  for (const auto& inst : test) out.push_back(Classify(inst.values));
  return out;
}

double Classifier::Evaluate(const ts::Dataset& test) const {
  std::vector<int> truth;
  truth.reserve(test.size());
  for (const auto& inst : test) truth.push_back(inst.label);
  return ml::ErrorRate(ClassifyAll(test), truth);
}

}  // namespace rpm::baselines
