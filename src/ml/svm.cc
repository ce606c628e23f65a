#include "ml/svm.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <map>
#include <ostream>
#include <random>
#include <stdexcept>
#include <string>

namespace rpm::ml {
namespace {

double Dot(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double SquaredDistance(std::span<const double> a, std::span<const double> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double Kernel(const SvmOptions& opt, double gamma, std::span<const double> a,
              std::span<const double> b) {
  switch (opt.kernel) {
    case KernelKind::kLinear:
      return Dot(a, b);
    case KernelKind::kRbf:
      return std::exp(-gamma * SquaredDistance(a, b));
    case KernelKind::kPolynomial:
      return std::pow(gamma * Dot(a, b) + opt.poly_coef0, opt.poly_degree);
  }
  return 0.0;
}

// Simplified SMO (Platt 1998 as in the CS229 notes): random partner
// selection, repeated passes until `max_passes` consecutive passes change
// no multiplier or the iteration cap is hit.
struct SmoResult {
  std::vector<double> alpha;
  double bias = 0.0;
};

SmoResult TrainBinarySmo(const std::vector<std::vector<double>>& x,
                         const std::vector<int>& y,  // +1 / -1
                         const SvmOptions& opt, double gamma) {
  const std::size_t n = x.size();
  SmoResult res;
  res.alpha.assign(n, 0.0);
  std::mt19937_64 rng(opt.seed);

  // Cache the kernel matrix; training sets here are small (O(100) rows).
  std::vector<double> k(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = Kernel(opt, gamma, x[i], x[j]);
      k[i * n + j] = v;
      k[j * n + i] = v;
    }
  }

  // Most multipliers stay 0, so a decision sums over the support only:
  // the indices with alpha != 0 in ascending order, kept with alpha*y as
  // each multiplier changes. The additions and their order are those of
  // a sweep over all n that skips zeros (alpha*y is exact for y = +-1,
  // and k is symmetric bit for bit), so the fit does not move by a bit.
  std::vector<std::size_t> support;
  std::vector<double> alpha_y(n, 0.0);
  auto set_alpha = [&](std::size_t j, double a) {
    const auto at = std::lower_bound(support.begin(), support.end(), j);
    const bool listed = at != support.end() && *at == j;
    if (a != 0.0 && !listed) support.insert(at, j);
    if (a == 0.0 && listed) support.erase(at);
    res.alpha[j] = a;
    alpha_y[j] = a * y[j];
  };
  auto decision = [&](std::size_t i) {
    const double* row = &k[i * n];
    double acc = res.bias;
    for (const std::size_t j : support) acc += alpha_y[j] * row[j];
    return acc;
  };

  std::size_t passes = 0;
  std::size_t iter = 0;
  while (passes < opt.max_passes && iter < opt.max_iterations) {
    ++iter;
    int changed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double ei = decision(i) - y[i];
      const bool violates =
          (y[i] * ei < -opt.tolerance && res.alpha[i] < opt.c) ||
          (y[i] * ei > opt.tolerance && res.alpha[i] > 0.0);
      if (!violates) continue;
      std::size_t j =
          std::uniform_int_distribution<std::size_t>(0, n - 2)(rng);
      if (j >= i) ++j;
      const double ej = decision(j) - y[j];
      const double ai_old = res.alpha[i];
      const double aj_old = res.alpha[j];
      double lo, hi;
      if (y[i] != y[j]) {
        lo = std::max(0.0, aj_old - ai_old);
        hi = std::min(opt.c, opt.c + aj_old - ai_old);
      } else {
        lo = std::max(0.0, ai_old + aj_old - opt.c);
        hi = std::min(opt.c, ai_old + aj_old);
      }
      if (lo >= hi) continue;
      const double eta = 2.0 * k[i * n + j] - k[i * n + i] - k[j * n + j];
      if (eta >= 0.0) continue;
      double aj = aj_old - y[j] * (ei - ej) / eta;
      aj = std::clamp(aj, lo, hi);
      if (std::abs(aj - aj_old) < 1e-6) continue;
      const double ai = ai_old + y[i] * y[j] * (aj_old - aj);
      set_alpha(i, ai);
      set_alpha(j, aj);
      const double b1 = res.bias - ei - y[i] * (ai - ai_old) * k[i * n + i] -
                        y[j] * (aj - aj_old) * k[i * n + j];
      const double b2 = res.bias - ej - y[i] * (ai - ai_old) * k[i * n + j] -
                        y[j] * (aj - aj_old) * k[j * n + j];
      if (ai > 0.0 && ai < opt.c) {
        res.bias = b1;
      } else if (aj > 0.0 && aj < opt.c) {
        res.bias = b2;
      } else {
        res.bias = 0.5 * (b1 + b2);
      }
      ++changed;
    }
    passes = (changed == 0) ? passes + 1 : 0;
  }
  return res;
}

}  // namespace

void SvmClassifier::Train(const FeatureDataset& data) {
  trained_ = false;
  models_.clear();
  if (data.empty() || data.num_features() == 0) return;

  // Standardize features; remember the moments for prediction time.
  const std::size_t d = data.num_features();
  feature_mean_.assign(d, 0.0);
  feature_std_.assign(d, 0.0);
  for (const auto& row : data.x) {
    for (std::size_t f = 0; f < d; ++f) feature_mean_[f] += row[f];
  }
  for (std::size_t f = 0; f < d; ++f) {
    feature_mean_[f] /= static_cast<double>(data.size());
  }
  for (const auto& row : data.x) {
    for (std::size_t f = 0; f < d; ++f) {
      const double dv = row[f] - feature_mean_[f];
      feature_std_[f] += dv * dv;
    }
  }
  for (std::size_t f = 0; f < d; ++f) {
    feature_std_[f] =
        std::sqrt(feature_std_[f] / static_cast<double>(data.size()));
    if (feature_std_[f] < 1e-12) feature_std_[f] = 1.0;
  }
  std::vector<std::vector<double>> z(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    z[i] = Standardize(data.x[i]);
  }

  const std::vector<int> labels = data.Labels();
  if (labels.size() == 1) {
    lone_label_ = labels.front();
    trained_ = true;
    return;
  }

  const double gamma =
      options_.gamma > 0.0 ? options_.gamma : 1.0 / static_cast<double>(d);

  // One binary machine per unordered label pair.
  for (std::size_t a = 0; a < labels.size(); ++a) {
    for (std::size_t b = a + 1; b < labels.size(); ++b) {
      std::vector<std::vector<double>> px;
      std::vector<int> py;
      for (std::size_t i = 0; i < data.size(); ++i) {
        if (data.y[i] == labels[a]) {
          px.push_back(z[i]);
          py.push_back(+1);
        } else if (data.y[i] == labels[b]) {
          px.push_back(z[i]);
          py.push_back(-1);
        }
      }
      const SmoResult smo = TrainBinarySmo(px, py, options_, gamma);
      BinaryModel m;
      m.positive_label = labels[a];
      m.negative_label = labels[b];
      m.bias = smo.bias;
      for (std::size_t i = 0; i < px.size(); ++i) {
        if (std::abs(smo.alpha[i]) > 1e-12) {
          m.support_vectors.push_back(px[i]);
          m.alpha_y.push_back(smo.alpha[i] * py[i]);
        }
      }
      models_.push_back(std::move(m));
    }
  }
  trained_ = true;
}

std::vector<double> SvmClassifier::Standardize(
    std::span<const double> row) const {
  std::vector<double> out(row.size());
  for (std::size_t f = 0; f < row.size(); ++f) {
    out[f] = (row[f] - feature_mean_[f]) / feature_std_[f];
  }
  return out;
}

double SvmClassifier::Decision(const BinaryModel& m,
                               std::span<const double> row) const {
  const double gamma = options_.gamma > 0.0
                           ? options_.gamma
                           : 1.0 / static_cast<double>(row.size());
  double acc = m.bias;
  for (std::size_t i = 0; i < m.support_vectors.size(); ++i) {
    acc += m.alpha_y[i] * Kernel(options_, gamma, m.support_vectors[i], row);
  }
  return acc;
}

int SvmClassifier::Predict(std::span<const double> features) const {
  if (models_.empty()) return lone_label_;
  const std::vector<double> z = Standardize(features);
  std::map<int, int> votes;
  std::map<int, double> margin;
  for (const auto& m : models_) {
    const double dec = Decision(m, z);
    const int winner = dec >= 0.0 ? m.positive_label : m.negative_label;
    ++votes[winner];
    margin[winner] += std::abs(dec);
  }
  int best = votes.begin()->first;
  for (const auto& [label, count] : votes) {
    if (count > votes[best] ||
        (count == votes[best] && margin[label] > margin[best])) {
      best = label;
    }
  }
  return best;
}

std::vector<int> SvmClassifier::PredictAll(const FeatureDataset& data) const {
  std::vector<int> out;
  out.reserve(data.size());
  for (const auto& row : data.x) out.push_back(Predict(row));
  return out;
}

void SvmClassifier::Save(std::ostream& out) const {
  out.precision(17);
  out << "svm " << static_cast<int>(options_.kernel) << ' ' << options_.c
      << ' ' << options_.gamma << ' ' << lone_label_ << '\n';
  out << "moments " << feature_mean_.size() << '\n';
  for (double v : feature_mean_) out << v << ' ';
  out << '\n';
  for (double v : feature_std_) out << v << ' ';
  out << '\n';
  out << "models " << models_.size() << '\n';
  for (const auto& m : models_) {
    out << m.positive_label << ' ' << m.negative_label << ' ' << m.bias
        << ' ' << m.support_vectors.size() << '\n';
    for (std::size_t i = 0; i < m.support_vectors.size(); ++i) {
      out << m.alpha_y[i];
      for (double v : m.support_vectors[i]) out << ' ' << v;
      out << '\n';
    }
  }
}

void SvmClassifier::Load(std::istream& in) {
  auto fail = [](const std::string& what) {
    throw std::runtime_error("SvmClassifier::Load: " + what);
  };
  // Parsing caps, mirroring RpmClassifier::Load: corrupt count fields
  // must produce a descriptive error, never an unbounded allocation
  // (regression corpus: tests/fuzz_corpus/model_svm_count_bomb.seed).
  constexpr std::size_t kMaxEntries = std::size_t{1} << 20;
  constexpr std::size_t kMaxFeatures = std::size_t{1} << 16;
  constexpr std::size_t kMaxTotalValues = std::size_t{1} << 24;
  std::string tag;
  int kernel = 0;
  if (!(in >> tag >> kernel >> options_.c >> options_.gamma >>
        lone_label_) ||
      tag != "svm") {
    fail("bad header");
  }
  if (kernel < 0 || kernel > static_cast<int>(KernelKind::kPolynomial)) {
    fail("corrupt kernel kind " + std::to_string(kernel));
  }
  options_.kernel = static_cast<KernelKind>(kernel);
  std::size_t d = 0;
  if (!(in >> tag >> d) || tag != "moments") fail("bad moments");
  if (d > kMaxFeatures) {
    fail("corrupt feature count " + std::to_string(d));
  }
  feature_mean_.resize(d);
  feature_std_.resize(d);
  for (double& v : feature_mean_) in >> v;
  for (double& v : feature_std_) in >> v;
  if (!in) fail("truncated moments");
  std::size_t num_models = 0;
  if (!(in >> tag >> num_models) || tag != "models") fail("bad models");
  if (num_models > kMaxEntries) {
    fail("corrupt model count " + std::to_string(num_models));
  }
  models_.clear();
  models_.resize(num_models);
  for (auto& m : models_) {
    std::size_t num_sv = 0;
    if (!(in >> m.positive_label >> m.negative_label >> m.bias >> num_sv)) {
      fail("bad model row");
    }
    if (num_sv > kMaxEntries ||
        num_sv * std::max<std::size_t>(d, 1) > kMaxTotalValues) {
      fail("corrupt support-vector count " + std::to_string(num_sv));
    }
    m.alpha_y.resize(num_sv);
    m.support_vectors.assign(num_sv, std::vector<double>(d));
    for (std::size_t i = 0; i < num_sv; ++i) {
      in >> m.alpha_y[i];
      for (double& v : m.support_vectors[i]) in >> v;
      if (!in) fail("truncated support vector " + std::to_string(i));
    }
  }
  if (!in) fail("truncated input");
  trained_ = true;
}

}  // namespace rpm::ml
