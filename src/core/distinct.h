// Algorithm 2 (FindDistinct): prune the candidate pool down to the
// representative patterns. Two stages: (1) remove near-duplicate
// candidates — closest-match distance under the tau threshold, keeping the
// more frequent one; (2) transform the training set into candidate-distance
// features and run correlation-based feature selection; the surviving
// features *are* the representative patterns.

#ifndef RPM_CORE_DISTINCT_H_
#define RPM_CORE_DISTINCT_H_

#include <vector>

#include "core/options.h"
#include "core/pattern.h"
#include "ml/feature_dataset.h"
#include "ts/series.h"

namespace rpm::core {

/// Distance between two candidates of possibly different lengths: the
/// shorter one's best match inside the longer (Alg. 2 line 9).
double CandidateDistance(const PatternCandidate& a,
                         const PatternCandidate& b);

/// The tau threshold: `percentile`-th percentile of the pooled
/// within-cluster pairwise distances of `candidates` (Section 3.2.3).
/// Returns 0 when no distances are available (every candidate kept).
double ComputeSimilarityThreshold(
    const std::vector<PatternCandidate>& candidates, double percentile);

/// Stage 1: drop near-duplicates (distance < tau keeps the more frequent).
std::vector<PatternCandidate> RemoveSimilarCandidates(
    const std::vector<PatternCandidate>& candidates, double tau);

/// Full Algorithm 2: returns the selected representative patterns.
/// `train` is the complete training set (all classes); its transform
/// against the pruned candidates runs on `options.num_threads`. When
/// `selected_rows` is given it receives that transform's columns of the
/// selected patterns, in their order: the rows TransformEngine(result)
/// would compute for `train`, bit for bit, since a pattern's distance
/// does not depend on the other patterns in the store.
std::vector<RepresentativePattern> FindDistinctPatterns(
    const ts::Dataset& train, const std::vector<PatternCandidate>& candidates,
    const RpmOptions& options, ml::FeatureDataset* selected_rows = nullptr);

}  // namespace rpm::core

#endif  // RPM_CORE_DISTINCT_H_
