// DIviding RECTangles (DIRECT, Jones/Perttunen/Stuckman 1993), the
// derivative-free global optimizer the paper uses to pick SAX parameters
// (Section 4.2): the unit hypercube is recursively trisected, and each
// iteration samples the centers of the potentially-optimal rectangles
// (lower-right convex hull of the (size, value) cloud).

#ifndef RPM_OPT_DIRECT_H_
#define RPM_OPT_DIRECT_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace rpm::opt {

/// Box constraints; lower.size() == upper.size() == dimension.
struct Bounds {
  std::vector<double> lower;
  std::vector<double> upper;

  std::size_t dimension() const { return lower.size(); }
};

/// Objective: minimized; receives a point in the original (unscaled) domain.
using Objective = std::function<double(std::span<const double>)>;

/// Batch objective: receives every point of one DIRECT round, in the
/// original domain and in evaluation order, and returns one value per
/// point in the same order. A round's points depend only on the
/// rectangles it divides and the evaluation count, never on the values
/// it yields, so the caller may evaluate them in any order or in
/// parallel.
using BatchObjective =
    std::function<std::vector<double>(std::span<const std::vector<double>>)>;

struct DirectOptions {
  std::size_t max_evaluations = 120;  ///< budget on objective calls
  std::size_t max_iterations = 40;    ///< budget on divide rounds
  /// Jones' epsilon: a rectangle must promise at least this relative
  /// improvement over the best value to be potentially optimal.
  double epsilon = 1e-4;
};

struct DirectResult {
  std::vector<double> best_point;
  double best_value = 0.0;
  std::size_t evaluations = 0;
  std::size_t iterations = 0;
};

/// Minimizes `f` over `bounds` with DIRECT, handing `f` one round of
/// points at a time: the initial center, then every probe of each
/// iteration's divisions. Throws std::invalid_argument on empty or
/// inconsistent bounds, or when `f` returns the wrong number of values.
/// Deterministic.
DirectResult MinimizeBatch(const BatchObjective& f, const Bounds& bounds,
                           const DirectOptions& options = {});

/// MinimizeBatch with the points of each round evaluated one at a time,
/// in order.
DirectResult Minimize(const Objective& f, const Bounds& bounds,
                      const DirectOptions& options = {});

}  // namespace rpm::opt

#endif  // RPM_OPT_DIRECT_H_
