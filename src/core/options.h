// Configuration of the RPM classifier (Sections 3-4 knobs).

#ifndef RPM_CORE_OPTIONS_H_
#define RPM_CORE_OPTIONS_H_

#include <cstdint>

#include "cluster/hierarchical.h"
#include "grammar/repair.h"
#include "ml/simple_classifiers.h"
#include "ml/svm.h"
#include "sax/sax.h"
#include "ts/parallel.h"

namespace rpm::core {

/// Cluster prototype choice (Algorithm 1, line 15: "an alternative is to
/// use the medoid instead of centroid").
enum class ClusterPrototype { kCentroid, kMedoid };

/// How SAX parameters are chosen before training.
enum class ParameterSearch {
  kFixed,   ///< use `fixed_sax` for every class
  kGrid,    ///< Algorithm 3, exhaustive (Section 4.1)
  kDirect,  ///< DIRECT-driven search (Section 4.2), the paper's default
};

struct RpmOptions {
  /// Minimum cluster size as a fraction of the class's training size
  /// (gamma; the paper's experiments use 20 %).
  double gamma = 0.2;

  /// Percentile of pooled within-cluster pairwise distances used as the
  /// similar-candidate removal threshold tau (Section 3.2.3; 30 in the
  /// paper, swept in Table 3 / Figure 9).
  double tau_percentile = 30.0;

  ClusterPrototype prototype = ClusterPrototype::kCentroid;
  cluster::SplitOptions split;

  /// Drop grammar-rule occurrences spanning concatenation junctions
  /// (Figure 4); ablation switch.
  bool filter_junctions = true;

  /// Numerosity reduction during discretization; ablation switch.
  bool numerosity_reduction = true;

  /// Grammar-induction backend (Section 3.2.2 notes the pipeline works
  /// with any context-free GI algorithm); Sequitur is the paper's choice,
  /// Re-Pair the alternative — ablated in bench/ablation_design.
  grammar::GiAlgorithm gi_algorithm = grammar::GiAlgorithm::kSequitur;

  /// Rotation-invariant transform at classification time (Section 6.1):
  /// also match against the test series rotated at its midpoint.
  bool rotation_invariant = false;

  ParameterSearch search = ParameterSearch::kDirect;
  /// SAX parameters used when `search == kFixed`.
  sax::SaxOptions fixed_sax;

  /// Parameter-search budget: random train/validation splits per combo
  /// (the paper uses 5) and folds of the inner CV (paper: 5). Defaults
  /// are trimmed for the synthetic suite's scale.
  std::size_t param_splits = 3;
  std::size_t param_folds = 3;
  /// Objective-call budget for DIRECT per class (R in Section 5.3).
  std::size_t direct_max_evaluations = 24;
  /// Grid stride for kGrid (window dimension).
  int grid_window_step = 8;

  /// Final classifier over the pattern-distance features (Section 3.1:
  /// "our algorithm can work with any classifier"); SVM is the paper's
  /// choice, k-NN and Gaussian Naive Bayes are the ablation alternatives.
  ml::FeatureClassifierKind final_classifier =
      ml::FeatureClassifierKind::kSvm;
  std::size_t knn_k = 1;

  ml::SvmOptions svm;
  std::uint64_t seed = 1234;

  /// Worker threads for parameter search (the (combo x split) pairs of
  /// each DIRECT round or of the grid lattice), per-class candidate
  /// mining, dataset transformation and ClassifyAll. Defaults to the CPUs
  /// this thread may run on (ts::DefaultThreads). Results are
  /// bit-identical for any value (work items are independent); 1 = fully
  /// sequential.
  std::size_t num_threads = ts::DefaultThreads();

  /// Archive-scale candidate discovery (docs/DATASETS.md): cap on the
  /// instances per class concatenated in front of Sequitur. Past the
  /// cap a seeded uniform subset (ReservoirSample, ClassSeed(seed,
  /// label)) is mined instead; the frequency requirement gamma applies
  /// to the sampled count. 0 — and any cap at or above the class size —
  /// leaves training bit-identical to the unsampled pipeline.
  std::size_t discovery_sample_per_class = 0;
};

}  // namespace rpm::core

#endif  // RPM_CORE_OPTIONS_H_
