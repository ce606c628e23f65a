#include "cluster/hierarchical.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "distance/euclidean.h"

namespace rpm::cluster {

std::vector<double> PairwiseDistanceMatrix(
    const std::vector<ts::Series>& items) {
  const std::size_t n = items.size();
  std::vector<double> d(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dist = distance::Euclidean(items[i], items[j]);
      d[i * n + j] = dist;
      d[j * n + i] = dist;
    }
  }
  return d;
}

AgglomerationResult CompleteLinkageAgglomerate(std::vector<double>& dist,
                                               std::size_t n, std::size_t k) {
  AgglomerationResult out;
  out.assignment.assign(n, 0);
  if (n == 0) return out;
  k = std::clamp<std::size_t>(k, 1, n);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<char> alive(n, 1);
  // Cached minimum of row i over alive j > i, and the smallest such j.
  // Scanning j ascending with a strict `<` reproduces the naive pairwise
  // scan's tie-breaking exactly.
  std::vector<double> row_min(n, kInf);
  std::vector<std::size_t> row_arg(n, n);
  auto recompute_row = [&](std::size_t i) {
    double mn = kInf;
    std::size_t arg = n;
    for (std::size_t j = i + 1; j < n; ++j) {
      if (alive[j] == 0) continue;
      const double d = dist[i * n + j];
      if (d < mn) {
        mn = d;
        arg = j;
      }
    }
    row_min[i] = mn;
    row_arg[i] = arg;
  };
  for (std::size_t i = 0; i + 1 < n; ++i) recompute_row(i);

  std::size_t active = n;
  out.merges.reserve(n - k);
  while (active > k) {
    // Global minimum: smallest slot a achieving the minimum, then the
    // smallest partner b (already encoded in row_arg).
    double best = kInf;
    std::size_t a = n;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      if (alive[i] != 0 && row_min[i] < best) {
        best = row_min[i];
        a = i;
      }
    }
    const std::size_t b = row_arg[a];
    out.merges.push_back(Merge{a, b, best});

    // Lance-Williams complete-linkage update: d(a∪b, j) takes the max of
    // the two source rows — pure selection from existing entries, so the
    // dendrogram heights stay bit-identical to the naive recomputation.
    alive[b] = 0;
    --active;
    for (std::size_t j = 0; j < n; ++j) {
      if (alive[j] == 0 || j == a) continue;
      const double m = std::max(dist[a * n + j], dist[b * n + j]);
      dist[a * n + j] = m;
      dist[j * n + a] = m;
    }
    // Row minima: entries in row a changed, and any row whose cached
    // minimum pointed at a (grown) or b (gone) must rescan. Rows whose
    // argument is elsewhere are untouched — the max update can only
    // increase d(·, a), never undercut an existing minimum.
    recompute_row(a);
    for (std::size_t i = 0; i < a; ++i) {
      if (alive[i] != 0 && (row_arg[i] == a || row_arg[i] == b)) {
        recompute_row(i);
      }
    }
    for (std::size_t i = a + 1; i < b; ++i) {
      if (alive[i] != 0 && row_arg[i] == b) recompute_row(i);
    }
  }

  // Dense ids ordered by surviving slot (== the naive path's position
  // order, since merges always fold the later slot into the earlier one).
  std::vector<int> slot_to_id(n, -1);
  int next_id = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (alive[i] != 0) slot_to_id[i] = next_id++;
  }
  // Each item's slot: follow the merge chain. Rebuild membership by
  // replaying merges over a union of index lists.
  std::vector<std::size_t> owner(n);
  std::iota(owner.begin(), owner.end(), 0);
  // owner[i] must end at the surviving slot; replay is O(total moved).
  {
    std::vector<std::vector<std::size_t>> members(n);
    for (std::size_t i = 0; i < n; ++i) members[i] = {i};
    for (const Merge& m : out.merges) {
      for (std::size_t idx : members[m.b]) owner[idx] = m.a;
      members[m.a].insert(members[m.a].end(), members[m.b].begin(),
                          members[m.b].end());
      members[m.b].clear();
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    out.assignment[i] = slot_to_id[owner[i]];
  }
  return out;
}

std::vector<int> CompleteLinkageCut(const std::vector<ts::Series>& items,
                                    std::size_t k) {
  std::vector<double> dist = PairwiseDistanceMatrix(items);
  return CompleteLinkageAgglomerate(dist, items.size(), k).assignment;
}

std::vector<int> CompleteLinkageCutNaive(const std::vector<ts::Series>& items,
                                         std::size_t k) {
  const std::size_t n = items.size();
  std::vector<int> assignment(n, 0);
  if (n == 0) return assignment;
  k = std::clamp<std::size_t>(k, 1, n);

  // Textbook O(n^3) agglomeration: every step recomputes every
  // cluster-pair linkage from member distances.
  std::vector<double> dist = PairwiseDistanceMatrix(items);
  std::vector<std::vector<std::size_t>> clusters(n);
  for (std::size_t i = 0; i < n; ++i) clusters[i] = {i};
  // linkage[a][b] = max pairwise distance between clusters a and b.
  auto linkage = [&](const std::vector<std::size_t>& a,
                     const std::vector<std::size_t>& b) {
    double mx = 0.0;
    for (std::size_t i : a) {
      for (std::size_t j : b) mx = std::max(mx, dist[i * n + j]);
    }
    return mx;
  };

  while (clusters.size() > k) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t bi = 0;
    std::size_t bj = 1;
    for (std::size_t i = 0; i < clusters.size(); ++i) {
      for (std::size_t j = i + 1; j < clusters.size(); ++j) {
        const double l = linkage(clusters[i], clusters[j]);
        if (l < best) {
          best = l;
          bi = i;
          bj = j;
        }
      }
    }
    clusters[bi].insert(clusters[bi].end(), clusters[bj].begin(),
                        clusters[bj].end());
    clusters.erase(clusters.begin() + static_cast<std::ptrdiff_t>(bj));
  }

  for (std::size_t c = 0; c < clusters.size(); ++c) {
    for (std::size_t i : clusters[c]) assignment[i] = static_cast<int>(c);
  }
  return assignment;
}

double MaxIntraDistance(const std::vector<double>& dist, std::size_t n,
                        const std::vector<std::size_t>& group) {
  double mx = 0.0;
  for (std::size_t i = 0; i < group.size(); ++i) {
    for (std::size_t j = i + 1; j < group.size(); ++j) {
      mx = std::max(mx, dist[group[i] * n + group[j]]);
    }
  }
  return mx;
}

namespace {

// Recursive helper: try to split group `idx` (indices into items) in two.
// `dist` is the pairwise matrix over ALL items — subgroups slice it
// instead of recomputing any distance.
void SplitRecursive(const std::vector<double>& dist, std::size_t n,
                    std::vector<std::size_t> group,
                    const SplitOptions& options,
                    std::vector<std::vector<std::size_t>>& out) {
  if (group.size() < options.min_size_to_split) {
    out.push_back(std::move(group));
    return;
  }
  // Slice the parent matrix down to the group: the entries are the very
  // Euclidean values the old path recomputed from scratch per recursion.
  const std::size_t g = group.size();
  std::vector<double> sub(g * g);
  for (std::size_t i = 0; i < g; ++i) {
    for (std::size_t j = 0; j < g; ++j) {
      sub[i * g + j] = dist[group[i] * n + group[j]];
    }
  }
  const std::vector<int> cut =
      CompleteLinkageAgglomerate(sub, g, 2).assignment;

  std::vector<std::size_t> left;
  std::vector<std::size_t> right;
  for (std::size_t m = 0; m < group.size(); ++m) {
    (cut[m] == cut[0] ? left : right).push_back(group[m]);
  }
  const double frac = static_cast<double>(std::min(left.size(), right.size())) /
                      static_cast<double>(group.size());
  if (right.empty() || frac < options.min_fraction) {
    // Drastically unbalanced (or degenerate) split: keep the group whole.
    out.push_back(std::move(group));
    return;
  }
  // Homogeneity check: a split must actually tighten the clusters. All
  // three diameters are maxima over entries of the shared matrix.
  const double parent_diameter = MaxIntraDistance(dist, n, group);
  const double child_diameter =
      std::max(MaxIntraDistance(dist, n, left),
               MaxIntraDistance(dist, n, right));
  if (parent_diameter <= 0.0 ||
      child_diameter >
          options.max_child_diameter_fraction * parent_diameter) {
    out.push_back(std::move(group));
    return;
  }
  SplitRecursive(dist, n, std::move(left), options, out);
  SplitRecursive(dist, n, std::move(right), options, out);
}

}  // namespace

SplitResult IterativeSplitWithMatrix(const std::vector<ts::Series>& items,
                                     const SplitOptions& options) {
  SplitResult out;
  if (items.empty()) return out;
  out.matrix = PairwiseDistanceMatrix(items);
  std::vector<std::size_t> all(items.size());
  std::iota(all.begin(), all.end(), 0);
  SplitRecursive(out.matrix, items.size(), std::move(all), options,
                 out.groups);
  return out;
}

std::vector<std::vector<std::size_t>> IterativeSplit(
    const std::vector<ts::Series>& items, const SplitOptions& options) {
  return IterativeSplitWithMatrix(items, options).groups;
}

ts::Series Centroid(const std::vector<ts::Series>& members) {
  ts::Series out;
  if (members.empty()) return out;
  out.assign(members.front().size(), 0.0);
  for (const auto& m : members) {
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += m[i];
  }
  const double inv = 1.0 / static_cast<double>(members.size());
  for (double& v : out) v *= inv;
  return out;
}

std::size_t MedoidIndexFromMatrix(const std::vector<double>& dist,
                                  std::size_t n) {
  if (n <= 1) return 0;
  std::size_t best = 0;
  double best_sum = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) sum += dist[i * n + j];
    if (sum < best_sum) {
      best_sum = sum;
      best = i;
    }
  }
  return best;
}

std::size_t MedoidIndex(const std::vector<ts::Series>& members) {
  if (members.size() <= 1) return 0;
  const std::vector<double> dist = PairwiseDistanceMatrix(members);
  return MedoidIndexFromMatrix(dist, members.size());
}

}  // namespace rpm::cluster
