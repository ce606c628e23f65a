#include "core/parameter_selection.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <span>

#include "core/candidates.h"
#include "core/phase_profile.h"
#include "core/distinct.h"
#include "core/transform.h"
#include "ml/cross_validation.h"
#include "ml/metrics.h"
#include "ml/svm.h"
#include "opt/direct.h"
#include "ts/parallel.h"
#include "ts/rng.h"

namespace rpm::core {

SaxParamRange DefaultRange(const ts::Dataset& train) {
  SaxParamRange r;
  const auto min_len = static_cast<int>(train.MinLength());
  r.window_lo = std::max(5, min_len / 8);
  r.window_hi = std::max(r.window_lo + 1, min_len * 3 / 5);
  r.paa_lo = 2;
  r.paa_hi = std::min(9, std::max(3, r.window_lo));
  r.alphabet_lo = 3;
  r.alphabet_hi = 9;
  return r;
}

namespace {

// Share of the training set each random split trains on; the rest
// validates the combo.
constexpr double kParamTrainFraction = 0.7;

// Clamps a raw integer triple into a valid SaxOptions.
sax::SaxOptions MakeSax(int window, int paa, int alphabet,
                        const SaxParamRange& range) {
  sax::SaxOptions s;
  s.window = static_cast<std::size_t>(
      std::clamp(window, range.window_lo, range.window_hi));
  s.paa_size = static_cast<std::size_t>(std::clamp(
      paa, range.paa_lo, std::min(range.paa_hi, static_cast<int>(s.window))));
  s.alphabet = std::clamp(alphabet, range.alphabet_lo, range.alphabet_hi);
  return s;
}

// Evaluation shared by both engines, memoized on the integer triple.
// Prewarm is the one evaluation path: it runs every (combo x split) pair
// a batch still needs on the pool, then merges and memoizes the results
// on the calling thread, so only that thread ever touches the memo.
class ComboEvaluator {
 public:
  ComboEvaluator(const ts::Dataset& train, const RpmOptions& options)
      : train_(train), options_(options) {
    // Fixed splits reused across combos keep comparisons apples-to-apples.
    ts::Rng rng(options.seed);
    for (std::size_t s = 0; s < std::max<std::size_t>(1, options.param_splits);
         ++s) {
      splits_.push_back(
          ml::SplitDataset(train, kParamTrainFraction, rng));
    }
  }

  /// Evaluates every combo in `combos` that is not memoized yet (each
  /// distinct triple once). Results are identical for any thread count:
  /// each pair writes its own slot and a combo's splits are merged in
  /// split order.
  void Prewarm(std::span<const sax::SaxOptions> combos) {
    std::vector<sax::SaxOptions> pending;
    std::set<Key> queued;
    for (const sax::SaxOptions& sax : combos) {
      const Key key = KeyOf(sax);
      if (memo_.count(key) == 0 && queued.insert(key).second) {
        pending.push_back(sax);
      }
    }
    if (pending.empty()) return;
    const std::size_t num_splits = splits_.size();
    std::vector<std::map<int, double>> split_scores(pending.size() *
                                                    num_splits);
    ts::ParallelFor(split_scores.size(), options_.num_threads,
                    [&](std::size_t i) {
                      split_scores[i] =
                          EvaluateSplit(pending[i / num_splits],
                                        i % num_splits);
                    });
    const std::vector<int> labels = train_.ClassLabels();
    const double inv = 1.0 / static_cast<double>(num_splits);
    for (std::size_t c = 0; c < pending.size(); ++c) {
      std::map<int, double> f_sum;
      for (int label : labels) f_sum[label] = 0.0;
      for (std::size_t s = 0; s < num_splits; ++s) {
        for (const auto& [label, f1] : split_scores[c * num_splits + s]) {
          if (f_sum.count(label) > 0) f_sum[label] += f1;
        }
      }
      for (auto& [label, f] : f_sum) f *= inv;
      memo_.emplace(KeyOf(pending[c]), std::move(f_sum));
    }
  }

  /// Per-class F-measure of one combo, evaluated on first use. Map nodes
  /// are stable, so the reference outlives later insertions.
  const std::map<int, double>& Evaluate(const sax::SaxOptions& sax) {
    Prewarm({&sax, 1});
    return memo_.at(KeyOf(sax));
  }

  std::size_t combos_evaluated() const { return memo_.size(); }

 private:
  using Key = std::array<int, 3>;

  static Key KeyOf(const sax::SaxOptions& sax) {
    return {static_cast<int>(sax.window), static_cast<int>(sax.paa_size),
            sax.alphabet};
  }

  // One split's per-class F1 under `sax` (Alg. 3 lines 7-12). Returns an
  // empty map when the combo is pruned (no candidates / patterns).
  std::map<int, double> EvaluateSplit(const sax::SaxOptions& sax,
                                      std::size_t s) const {
    const std::vector<int> labels = train_.ClassLabels();
    const auto& [sub_train, validation] = splits_[s];
    std::map<int, sax::SaxOptions> sax_by_class;
    for (int label : labels) sax_by_class[label] = sax;
    // Candidate mining inside a (combo x split) pair stays
    // single-threaded: the pair is the unit of parallelism here (nested
    // regions would run inline on the pool anyway, so this is also
    // explicit).
    RpmOptions inner = options_;
    inner.num_threads = 1;
    const std::vector<PatternCandidate> candidates =
        FindAllCandidates(sub_train, sax_by_class, inner);
    if (candidates.empty()) return {};  // Pruned: contributes 0.
    const std::vector<RepresentativePattern> patterns =
        FindDistinctPatterns(sub_train, candidates, inner);
    if (patterns.empty()) return {};

    const ml::FeatureDataset tv = TransformEngine(patterns).Apply(validation);
    if (tv.empty()) return {};

    // k-fold CV on the transformed validation data (Alg. 3 line 12).
    ts::Rng fold_rng(options_.seed + 101 * (s + 1));
    const std::size_t k =
        std::min<std::size_t>(std::max<std::size_t>(2, options_.param_folds),
                              tv.size());
    const std::vector<int> folds = ml::StratifiedFolds(tv.y, k, fold_rng);
    std::vector<int> predicted(tv.size(), 0);
    ScopedPhaseTimer timer(PhaseProfile::kSvm);
    for (std::size_t fold = 0; fold < k; ++fold) {
      std::vector<std::size_t> tr;
      std::vector<std::size_t> te;
      for (std::size_t i = 0; i < tv.size(); ++i) {
        (folds[i] == static_cast<int>(fold) ? te : tr).push_back(i);
      }
      if (tr.empty() || te.empty()) continue;
      ml::SvmClassifier svm(options_.svm);
      svm.Train(tv.SelectRows(tr));
      for (std::size_t i : te) predicted[i] = svm.Predict(tv.x[i]);
    }
    std::map<int, double> out;
    for (const auto& [label, score] : ml::PerClassScores(predicted, tv.y)) {
      out[label] = score.f1;
    }
    return out;
  }

  const ts::Dataset& train_;
  const RpmOptions& options_;
  std::vector<std::pair<ts::Dataset, ts::Dataset>> splits_;
  std::map<Key, std::map<int, double>> memo_;
};

}  // namespace

std::map<int, double> EvaluateSaxCombo(const ts::Dataset& train,
                                       const sax::SaxOptions& sax,
                                       const RpmOptions& options) {
  ComboEvaluator evaluator(train, options);
  return evaluator.Evaluate(sax);
}

ParameterSelectionResult SelectSaxParameters(const ts::Dataset& train,
                                             const RpmOptions& options) {
  ParameterSelectionResult result;
  const std::vector<int> labels = train.ClassLabels();
  if (options.search == ParameterSearch::kFixed) {
    for (int label : labels) result.sax_by_class[label] = options.fixed_sax;
    return result;
  }

  const SaxParamRange range = DefaultRange(train);
  ComboEvaluator evaluator(train, options);
  std::map<int, double> best_f;
  std::map<int, sax::SaxOptions> best_sax;
  for (int label : labels) {
    best_f[label] = -1.0;
    best_sax[label] = MakeSax(range.window_lo, range.paa_lo,
                              range.alphabet_lo, range);
  }
  auto consider = [&](const sax::SaxOptions& sax) {
    const auto& f = evaluator.Evaluate(sax);
    for (const auto& [label, value] : f) {
      if (value > best_f[label]) {
        best_f[label] = value;
        best_sax[label] = sax;
      }
    }
  };

  if (options.search == ParameterSearch::kGrid) {
    // The whole lattice is evaluated as one batch, then considered window
    // fastest, then PAA, then alphabet. A tie keeps the first point, so
    // this order is part of the result.
    const int window_step = std::max(1, options.grid_window_step);
    std::vector<sax::SaxOptions> lattice;
    for (int a = range.alphabet_lo; a <= range.alphabet_hi; a += 2) {
      for (int p = range.paa_lo; p <= range.paa_hi; p += 2) {
        for (int w = range.window_lo; w <= range.window_hi; w += window_step) {
          lattice.push_back(MakeSax(w, p, a, range));
        }
      }
    }
    evaluator.Prewarm(lattice);
    for (const sax::SaxOptions& sax : lattice) consider(sax);
  } else {  // kDirect: one 3-D search per class, shared memo.
    opt::Bounds bounds;
    bounds.lower = {static_cast<double>(range.window_lo),
                    static_cast<double>(range.paa_lo),
                    static_cast<double>(range.alphabet_lo)};
    bounds.upper = {static_cast<double>(range.window_hi),
                    static_cast<double>(range.paa_hi),
                    static_cast<double>(range.alphabet_hi)};
    opt::DirectOptions direct_options;
    direct_options.max_evaluations = options.direct_max_evaluations;
    for (int label : labels) {
      // Each DIRECT round is evaluated as one batch on the pool; the
      // points are then considered one by one in round order, exactly as
      // a point-at-a-time search would visit them.
      opt::MinimizeBatch(
          [&](std::span<const std::vector<double>> points) {
            std::vector<sax::SaxOptions> round;
            for (const std::vector<double>& x : points) {
              round.push_back(MakeSax(static_cast<int>(std::lround(x[0])),
                                      static_cast<int>(std::lround(x[1])),
                                      static_cast<int>(std::lround(x[2])),
                                      range));
            }
            evaluator.Prewarm(round);
            std::vector<double> values;
            for (const sax::SaxOptions& sax : round) {
              consider(sax);
              const auto& f = evaluator.Evaluate(sax);
              const auto it = f.find(label);
              values.push_back(1.0 - (it != f.end() ? it->second : 0.0));
            }
            return values;
          },
          bounds, direct_options);
    }
  }

  result.sax_by_class = std::move(best_sax);
  result.combos_evaluated = evaluator.combos_evaluated();
  return result;
}

}  // namespace rpm::core
