// Algorithm 1 (FindCandidates): per class, concatenate the training
// instances, discretize with SAX over a sliding window, infer a Sequitur
// grammar, map each repeated rule back to raw variable-length
// subsequences, refine them by iterative complete-linkage splitting, and
// emit the prototype of every cluster that is frequent enough
// (size >= gamma * |class|).

#ifndef RPM_CORE_CANDIDATES_H_
#define RPM_CORE_CANDIDATES_H_

#include <map>
#include <span>
#include <vector>

#include "core/options.h"
#include "core/pattern.h"
#include "sax/sax.h"
#include "ts/series.h"

namespace rpm::core {

/// The concatenation of one class's training instances plus the
/// bookkeeping needed to avoid junction artifacts.
struct ConcatenatedClass {
  int class_label = 0;
  ts::Series values;
  /// Start offset of each instance after the first (sorted).
  std::vector<std::size_t> boundaries;
  /// Instance index owning each offset — computed from boundaries.
  std::size_t InstanceAt(std::size_t offset) const;
  std::size_t num_instances = 0;
};

/// Concatenates all instances of `label` in order.
ConcatenatedClass ConcatenateClass(const ts::Dataset& train, int label);

/// Concatenates the instances at `indices` (ascending positions into
/// `train`, all carrying `label`) in order. With every index of the
/// class present this is byte-identical to ConcatenateClass — the
/// invariant behind the sampled-vs-full exactness guarantee.
ConcatenatedClass ConcatenateClassSubset(const ts::Dataset& train, int label,
                                         std::span<const std::size_t> indices);

/// Runs Algorithm 1 for one class with the given SAX parameters.
/// Returns the candidate pool (possibly empty when nothing repeats often
/// enough — Algorithm 3 uses emptiness to prune parameter combinations).
/// Each call discretizes the class series with
/// sax::DiscretizeSlidingWindow; nothing is shared between calls.
std::vector<PatternCandidate> FindClassCandidates(
    const ts::Dataset& train, int label, const sax::SaxOptions& sax_options,
    const RpmOptions& options);

/// Runs Algorithm 1 for every class with per-class SAX parameters.
/// `sax_by_class` must contain an entry per class label in `train`.
std::vector<PatternCandidate> FindAllCandidates(
    const ts::Dataset& train,
    const std::map<int, sax::SaxOptions>& sax_by_class,
    const RpmOptions& options);

}  // namespace rpm::core

#endif  // RPM_CORE_CANDIDATES_H_
