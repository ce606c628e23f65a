#include "opt/direct.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace rpm::opt {
namespace {

struct Rect {
  std::vector<double> center;  // in [0,1]^d
  std::vector<int> level;      // per-dim trisection count; side = 3^-level
  double value = 0.0;
  double size = 0.0;           // half-diagonal

  void ComputeSize() {
    double acc = 0.0;
    for (int l : level) {
      const double side = std::pow(3.0, -l);
      acc += side * side;
    }
    size = 0.5 * std::sqrt(acc);
  }
};

}  // namespace

DirectResult MinimizeBatch(const BatchObjective& f, const Bounds& bounds,
                           const DirectOptions& options) {
  const std::size_t d = bounds.dimension();
  if (d == 0 || bounds.upper.size() != d) {
    throw std::invalid_argument("Direct: empty or inconsistent bounds");
  }
  for (std::size_t i = 0; i < d; ++i) {
    if (!(bounds.lower[i] <= bounds.upper[i])) {
      throw std::invalid_argument("Direct: lower > upper");
    }
  }

  DirectResult result;
  auto unscale = [&](const std::vector<double>& u) {
    std::vector<double> x(d);
    for (std::size_t i = 0; i < d; ++i) {
      x[i] = bounds.lower[i] + u[i] * (bounds.upper[i] - bounds.lower[i]);
    }
    return x;
  };
  // Evaluates one round of (unscaled) points, in order.
  auto eval = [&](const std::vector<std::vector<double>>& points) {
    std::vector<double> values = f(points);
    if (values.size() != points.size()) {
      throw std::invalid_argument("Direct: batch objective returned " +
                                  std::to_string(values.size()) +
                                  " values for " +
                                  std::to_string(points.size()) + " points");
    }
    result.evaluations += points.size();
    return values;
  };

  std::vector<Rect> rects;
  {
    Rect r;
    r.center.assign(d, 0.5);
    r.level.assign(d, 0);
    r.value = eval({unscale(r.center)})[0];
    r.ComputeSize();
    rects.push_back(std::move(r));
  }
  result.best_point = unscale(rects[0].center);
  result.best_value = rects[0].value;

  struct Probe {
    std::size_t dim;
    std::vector<double> lo_c;
    std::vector<double> hi_c;
    double lo_val = 0.0;
    double hi_val = 0.0;
    double best() const { return std::min(lo_val, hi_val); }
  };
  struct Division {
    std::size_t rect;
    std::vector<Probe> probes;
  };

  while (result.iterations < options.max_iterations &&
         result.evaluations < options.max_evaluations) {
    ++result.iterations;

    // Potentially-optimal rectangles: for each distinct size, the best
    // value; then keep those on the lower-right convex hull satisfying
    // Jones' epsilon test.
    std::vector<std::size_t> by_size(rects.size());
    for (std::size_t i = 0; i < by_size.size(); ++i) by_size[i] = i;
    std::sort(by_size.begin(), by_size.end(), [&](std::size_t a,
                                                  std::size_t b) {
      if (rects[a].size != rects[b].size) {
        return rects[a].size < rects[b].size;
      }
      return rects[a].value < rects[b].value;
    });
    // Best rect per size class.
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i < by_size.size(); ++i) {
      if (i == 0 || rects[by_size[i]].size != rects[by_size[i - 1]].size) {
        candidates.push_back(by_size[i]);
      }
    }
    // Lower-right hull via monotone scan (sizes ascending).
    std::vector<std::size_t> hull;
    for (std::size_t c : candidates) {
      while (hull.size() >= 2) {
        const Rect& a = rects[hull[hull.size() - 2]];
        const Rect& b = rects[hull.back()];
        const Rect& p = rects[c];
        // Drop b if it lies above segment a-p.
        const double cross = (b.size - a.size) * (p.value - a.value) -
                             (p.size - a.size) * (b.value - a.value);
        if (cross >= 0.0) {
          hull.pop_back();
        } else {
          break;
        }
      }
      while (!hull.empty() &&
             rects[hull.back()].value >= rects[c].value &&
             rects[hull.back()].size <= rects[c].size) {
        hull.pop_back();
      }
      hull.push_back(c);
    }
    // Epsilon filter: rect must be able to beat fmin by epsilon*|fmin|.
    std::vector<std::size_t> selected;
    const double fmin = result.best_value;
    const double thresh = fmin - options.epsilon * std::max(1e-12,
                                                            std::abs(fmin));
    for (std::size_t idx = 0; idx < hull.size(); ++idx) {
      const Rect& r = rects[hull[idx]];
      // Slope to the next hull point bounds the achievable value.
      double slope = 0.0;
      if (idx + 1 < hull.size()) {
        const Rect& nx = rects[hull[idx + 1]];
        slope = (nx.value - r.value) / std::max(1e-300, nx.size - r.size);
      }
      const double potential = r.value - slope * r.size;
      if (idx + 1 == hull.size() || potential <= thresh ||
          r.value <= fmin + 1e-12) {
        selected.push_back(hull[idx]);
      }
    }
    if (selected.empty()) selected = hull;

    // Plan the round: each selected rectangle is trisected along its
    // longest dimensions, probing the two new centers per dimension while
    // the budget allows. No probe depends on another's value, so the whole
    // round is evaluated as one batch.
    std::vector<Division> divisions;
    std::vector<std::vector<double>> round;
    std::size_t planned = result.evaluations;
    for (std::size_t ri : selected) {
      if (planned >= options.max_evaluations) break;
      const Rect& base = rects[ri];
      const int min_level = *std::min_element(base.level.begin(),
                                              base.level.end());
      const double delta = std::pow(3.0, -(min_level + 1));
      Division division{ri, {}};
      for (std::size_t dim = 0; dim < d; ++dim) {
        if (base.level[dim] != min_level) continue;
        if (planned + 2 > options.max_evaluations) break;
        Probe p;
        p.dim = dim;
        p.lo_c = base.center;
        p.hi_c = base.center;
        p.lo_c[dim] -= delta;
        p.hi_c[dim] += delta;
        planned += 2;
        round.push_back(unscale(p.lo_c));
        round.push_back(unscale(p.hi_c));
        division.probes.push_back(std::move(p));
      }
      if (!division.probes.empty()) divisions.push_back(std::move(division));
    }
    if (divisions.empty()) break;
    const std::vector<double> values = eval(round);

    std::size_t next_value = 0;
    for (Division& division : divisions) {
      for (Probe& p : division.probes) {
        p.lo_val = values[next_value++];
        p.hi_val = values[next_value++];
      }
      // Copy: rects re-allocates as we push.
      Rect base = rects[division.rect];
      // Divide dims in order of their best sample (Jones' rule).
      std::sort(division.probes.begin(), division.probes.end(),
                [](const Probe& a, const Probe& b) {
                  return a.best() < b.best();
                });
      for (const Probe& p : division.probes) {
        base.level[p.dim] += 1;
        Rect lo;
        lo.center = p.lo_c;
        lo.level = base.level;
        lo.value = p.lo_val;
        lo.ComputeSize();
        Rect hi;
        hi.center = p.hi_c;
        hi.level = base.level;
        hi.value = p.hi_val;
        hi.ComputeSize();
        if (lo.value < result.best_value) {
          result.best_value = lo.value;
          result.best_point = unscale(lo.center);
        }
        if (hi.value < result.best_value) {
          result.best_value = hi.value;
          result.best_point = unscale(hi.center);
        }
        rects.push_back(std::move(lo));
        rects.push_back(std::move(hi));
      }
      base.ComputeSize();
      rects[division.rect] = std::move(base);
    }
  }
  return result;
}

DirectResult Minimize(const Objective& f, const Bounds& bounds,
                      const DirectOptions& options) {
  return MinimizeBatch(
      [&](std::span<const std::vector<double>> points) {
        std::vector<double> values;
        values.reserve(points.size());
        for (const std::vector<double>& x : points) values.push_back(f(x));
        return values;
      },
      bounds, options);
}

}  // namespace rpm::opt
