// Tests for the optimizer: DIRECT on standard test functions (it must
// approach the global optimum within a modest budget, deterministically).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "opt/direct.h"

namespace rpm::opt {
namespace {

TEST(Direct, QuadraticBowl1D) {
  const Bounds bounds{{-5.0}, {5.0}};
  const auto r = Minimize(
      [](std::span<const double> x) { return (x[0] - 1.3) * (x[0] - 1.3); },
      bounds, {200, 60, 1e-4});
  EXPECT_NEAR(r.best_point[0], 1.3, 0.05);
  EXPECT_LT(r.best_value, 0.01);
}

TEST(Direct, QuadraticBowl3D) {
  const Bounds bounds{{-2.0, -2.0, -2.0}, {2.0, 2.0, 2.0}};
  const auto r = Minimize(
      [](std::span<const double> x) {
        double acc = 0.0;
        const double target[3] = {0.5, -1.0, 1.5};
        for (int i = 0; i < 3; ++i) {
          acc += (x[i] - target[i]) * (x[i] - target[i]);
        }
        return acc;
      },
      bounds, {400, 80, 1e-4});
  EXPECT_LT(r.best_value, 0.1);
}

TEST(Direct, MultimodalFindsGlobalBasin) {
  // f(x) = sin(3x) + 0.5x on [-3, 3]: global min near x = -2.6 region.
  const Bounds bounds{{-3.0}, {3.0}};
  const auto r = Minimize(
      [](std::span<const double> x) {
        return std::sin(3.0 * x[0]) + 0.5 * x[0];
      },
      bounds, {150, 50, 1e-4});
  // Brute-force reference.
  double ref = 1e9;
  for (double x = -3.0; x <= 3.0; x += 1e-4) {
    ref = std::min(ref, std::sin(3.0 * x) + 0.5 * x);
  }
  EXPECT_NEAR(r.best_value, ref, 0.05);
}

TEST(Direct, RespectsEvaluationBudget) {
  const Bounds bounds{{0.0, 0.0}, {1.0, 1.0}};
  std::size_t calls = 0;
  const auto r = Minimize(
      [&](std::span<const double> x) {
        ++calls;
        return x[0] + x[1];
      },
      bounds, {25, 100, 1e-4});
  EXPECT_LE(calls, 25u + 2u);  // one probe pair may straddle the budget
  EXPECT_EQ(r.evaluations, calls);
}

TEST(Direct, Deterministic) {
  const Bounds bounds{{-1.0}, {2.0}};
  auto f = [](std::span<const double> x) {
    return std::cos(5.0 * x[0]) + x[0] * x[0];
  };
  const auto a = Minimize(f, bounds, {80, 30, 1e-4});
  const auto b = Minimize(f, bounds, {80, 30, 1e-4});
  EXPECT_EQ(a.best_value, b.best_value);
  EXPECT_EQ(a.best_point, b.best_point);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(Direct, EvaluationSequencePinned) {
  // Every point handed to the objective, in order, for a fixed run whose
  // last division straddles the budget. The pins were taken from the
  // one-point-at-a-time implementation; evaluating a round as a batch
  // must reproduce them bit for bit.
  const Bounds bounds{{-2.0, 0.0, 1.0}, {3.0, 4.0, 9.0}};
  std::vector<double> seen;
  const auto r = Minimize(
      [&](std::span<const double> x) {
        seen.insert(seen.end(), x.begin(), x.end());
        return std::sin(2.0 * x[0]) * std::cos(x[1]) +
               0.05 * (x[2] - 6.5) * (x[2] - 6.5) + 0.1 * x[0];
      },
      bounds, {60, 100, 1e-4});
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a over the bits
  for (double v : seen) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    digest = (digest ^ bits) * 1099511628211ull;
  }
  EXPECT_EQ(r.evaluations, 59u);
  EXPECT_EQ(seen.size(), 3 * r.evaluations);
  EXPECT_EQ(r.iterations, 10u);
  EXPECT_EQ(digest, 0x11317050f87b4a75ull);
  EXPECT_EQ(r.best_point, (std::vector<double>{
                              0.74691358024691379, 3.1851851851851851,
                              6.481481481481481}));
  EXPECT_EQ(r.best_value, -0.92138363968823589);
}

TEST(Direct, InvalidBoundsThrow) {
  EXPECT_THROW(Minimize([](std::span<const double>) { return 0.0; },
                        Bounds{{}, {}}, {}),
               std::invalid_argument);
  EXPECT_THROW(Minimize([](std::span<const double>) { return 0.0; },
                        Bounds{{1.0}, {0.0}}, {}),
               std::invalid_argument);
}

TEST(Direct, BatchObjectiveMustReturnOneValuePerPoint) {
  const Bounds bounds{{0.0, 0.0}, {1.0, 1.0}};
  EXPECT_THROW(MinimizeBatch(
                   [](std::span<const std::vector<double>> points) {
                     return std::vector<double>(points.size() + 1, 0.0);
                   },
                   bounds, {25, 10, 1e-4}),
               std::invalid_argument);
}

}  // namespace
}  // namespace rpm::opt
