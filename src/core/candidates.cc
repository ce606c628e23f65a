#include "core/candidates.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "cluster/hierarchical.h"
#include "core/phase_profile.h"
#include "core/sampling.h"
#include "grammar/motifs.h"
#include "ts/parallel.h"
#include "ts/resample.h"
#include "ts/znorm.h"

namespace rpm::core {

std::size_t ConcatenatedClass::InstanceAt(std::size_t offset) const {
  return static_cast<std::size_t>(
      std::upper_bound(boundaries.begin(), boundaries.end(), offset) -
      boundaries.begin());
}

ConcatenatedClass ConcatenateClass(const ts::Dataset& train, int label) {
  ConcatenatedClass out;
  out.class_label = label;
  for (const auto& inst : train) {
    if (inst.label != label) continue;
    if (out.num_instances > 0) out.boundaries.push_back(out.values.size());
    out.values.insert(out.values.end(), inst.values.begin(),
                      inst.values.end());
    ++out.num_instances;
  }
  return out;
}

ConcatenatedClass ConcatenateClassSubset(
    const ts::Dataset& train, int label,
    std::span<const std::size_t> indices) {
  ConcatenatedClass out;
  out.class_label = label;
  for (std::size_t i : indices) {
    const auto& inst = train[i];
    if (inst.label != label) continue;
    if (out.num_instances > 0) out.boundaries.push_back(out.values.size());
    out.values.insert(out.values.end(), inst.values.begin(),
                      inst.values.end());
    ++out.num_instances;
  }
  return out;
}

namespace {

// The class series Sequitur discovery runs on: all instances of the
// class, or — past the discovery_sample_per_class cap — a seeded
// uniform subset of them (docs/DATASETS.md, "Sampling semantics").
// Below the cap the un-sampled path runs unchanged, so sampled and full
// training are bit-identical on every suite the cap doesn't bind.
ConcatenatedClass ConcatenateForDiscovery(const ts::Dataset& train, int label,
                                          const RpmOptions& options) {
  const std::size_t cap = options.discovery_sample_per_class;
  if (cap == 0) return ConcatenateClass(train, label);
  const std::vector<std::size_t> members = train.IndicesOfClass(label);
  if (members.size() <= cap) return ConcatenateClass(train, label);
  const std::vector<std::size_t> pick =
      ReservoirSample(members.size(), cap, ClassSeed(options.seed, label));
  std::vector<std::size_t> chosen;
  chosen.reserve(pick.size());
  for (std::size_t p : pick) chosen.push_back(members[p]);
  return ConcatenateClassSubset(train, label, chosen);
}

}  // namespace

std::vector<PatternCandidate> FindClassCandidates(
    const ts::Dataset& train, int label, const sax::SaxOptions& sax_options,
    const RpmOptions& options) {
  std::vector<PatternCandidate> candidates;
  const ConcatenatedClass cls = ConcatenateForDiscovery(train, label, options);
  if (cls.values.size() < sax_options.window || cls.num_instances == 0) {
    return candidates;
  }

  sax::SaxOptions sax = sax_options;
  sax.numerosity_reduction = options.numerosity_reduction;
  std::vector<sax::SaxRecord> records;
  {
    ScopedPhaseTimer timer(PhaseProfile::kDiscretization);
    records = sax::DiscretizeSlidingWindow(cls.values, sax);
  }
  std::vector<grammar::MotifCandidate> motifs;
  {
    ScopedPhaseTimer timer(PhaseProfile::kGrammar);
    motifs = grammar::FindMotifCandidates(records, sax.window,
                                          cls.values.size(), cls.boundaries,
                                          options.filter_junctions,
                                          options.gi_algorithm);
  }

  const double min_size_d =
      options.gamma * static_cast<double>(cls.num_instances);
  const auto min_size = static_cast<std::size_t>(
      std::max(2.0, std::ceil(min_size_d)));

  // Motifs are refined independently (resample -> split -> prototype);
  // per-motif slots merged in order keep the output deterministic for any
  // thread count. When FindClassCandidates itself runs inside the
  // per-class parallel region of FindAllCandidates, this nested region
  // executes inline on the owning worker.
  std::vector<std::vector<PatternCandidate>> per_motif(motifs.size());
  ts::ParallelFor(motifs.size(), options.num_threads, [&](std::size_t mi) {
    const grammar::MotifCandidate& motif = motifs[mi];
    // Bring all occurrences to a common (median) length, z-normalized.
    std::vector<std::size_t> lengths;
    lengths.reserve(motif.intervals.size());
    for (const auto& iv : motif.intervals) lengths.push_back(iv.length);
    std::nth_element(lengths.begin(), lengths.begin() + lengths.size() / 2,
                     lengths.end());
    const std::size_t common_len = lengths[lengths.size() / 2];
    if (common_len < 2) return;

    std::vector<ts::Series> members;
    members.reserve(motif.intervals.size());
    for (const auto& iv : motif.intervals) {
      ts::SeriesView raw(cls.values.data() + iv.start, iv.length);
      ts::Series m = ts::ResampleLinear(raw, common_len);
      ts::ZNormalizeInPlace(m);
      members.push_back(std::move(m));
    }

    // Iterative 2-way splitting (30 % rule) into homogeneous groups. The
    // split's pairwise matrix is kept and sliced below: the tau pooling
    // and the medoid prototype read the distances the refinement already
    // measured instead of re-deriving them per group.
    ScopedPhaseTimer timer(PhaseProfile::kClustering);
    const cluster::SplitResult split =
        cluster::IterativeSplitWithMatrix(members, options.split);
    const std::size_t all_n = members.size();

    for (const auto& group : split.groups) {
      if (group.size() < min_size) continue;  // Frequency requirement.
      std::vector<ts::Series> group_members;
      group_members.reserve(group.size());
      std::set<std::size_t> covered;
      for (std::size_t gi : group) {
        group_members.push_back(members[gi]);
        covered.insert(cls.InstanceAt(motif.intervals[gi].start));
      }
      PatternCandidate cand;
      cand.class_label = label;
      cand.rule_id = motif.rule_id;
      cand.frequency = group.size();
      cand.instance_coverage = covered.size();
      const std::size_t n = group_members.size();
      if (options.prototype == ClusterPrototype::kCentroid) {
        cand.values = cluster::Centroid(group_members);
        ts::ZNormalizeInPlace(cand.values);
      } else {
        std::vector<double> sub(n * n);
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            sub[i * n + j] = split.matrix[group[i] * all_n + group[j]];
          }
        }
        cand.values =
            group_members[cluster::MedoidIndexFromMatrix(sub, n)];
      }
      // Pairwise member distances feed the tau threshold (Section 3.2.3).
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          cand.within_cluster_distances.push_back(
              split.matrix[group[i] * all_n + group[j]]);
        }
      }
      per_motif[mi].push_back(std::move(cand));
    }
  });
  for (auto& batch : per_motif) {
    for (auto& cand : batch) candidates.push_back(std::move(cand));
  }
  return candidates;
}

std::vector<PatternCandidate> FindAllCandidates(
    const ts::Dataset& train,
    const std::map<int, sax::SaxOptions>& sax_by_class,
    const RpmOptions& options) {
  const std::vector<int> labels = train.ClassLabels();
  // Per-class slots keep the output order independent of thread count.
  std::vector<std::vector<PatternCandidate>> per_class(labels.size());
  ts::ParallelFor(labels.size(), options.num_threads, [&](std::size_t i) {
    const auto it = sax_by_class.find(labels[i]);
    const sax::SaxOptions& sax =
        it != sax_by_class.end() ? it->second : options.fixed_sax;
    per_class[i] = FindClassCandidates(train, labels[i], sax, options);
  });
  std::vector<PatternCandidate> all;
  for (auto& cls : per_class) {
    for (auto& c : cls) all.push_back(std::move(c));
  }
  return all;
}

}  // namespace rpm::core
