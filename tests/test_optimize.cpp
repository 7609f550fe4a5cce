#include "timeseries/optimize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace {

using namespace rrp::ts;

TEST(LevenbergMarquardt, SolvesLinearLeastSquares) {
  // r = A x - b with b = A x*: an overdetermined consistent system.
  const double a[5][3] = {{2.0, -1.0, 0.5},
                          {1.0, 3.0, -2.0},
                          {0.0, 1.5, 1.0},
                          {-1.0, 0.5, 4.0},
                          {3.0, 0.0, -1.0}};
  const double target[3] = {0.75, -1.25, 2.5};
  double b[5];
  for (std::size_t i = 0; i < 5; ++i) {
    b[i] = 0.0;
    for (std::size_t j = 0; j < 3; ++j) b[i] += a[i][j] * target[j];
  }
  std::vector<double> r(5);
  auto residuals = [&](std::span<const double> x) {
    for (std::size_t i = 0; i < 5; ++i) {
      r[i] = -b[i];
      for (std::size_t j = 0; j < 3; ++j) r[i] += a[i][j] * x[j];
    }
    return std::span<const double>(r);
  };
  const auto res = levenberg_marquardt(residuals, {0.0, 0.0, 0.0});
  EXPECT_TRUE(res.converged);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(res.x[j], target[j], 1e-12);
  EXPECT_LE(res.value, 1e-24);
}

TEST(LevenbergMarquardt, SolvesRosenbrockInResidualForm) {
  std::vector<double> r(2);
  auto residuals = [&](std::span<const double> x) {
    r[0] = 10.0 * (x[1] - x[0] * x[0]);
    r[1] = 1.0 - x[0];
    return std::span<const double>(r);
  };
  const auto res = levenberg_marquardt(residuals, {-1.2, 1.0});
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.x[0], 1.0, 1e-6);
  EXPECT_NEAR(res.x[1], 1.0, 1e-6);
  // A simplex search needs hundreds of evaluations here.
  EXPECT_LT(res.evaluations, 200u);
}

TEST(LevenbergMarquardt, RespectsEvaluationBudget) {
  std::size_t calls = 0;
  std::vector<double> r(2);
  auto residuals = [&](std::span<const double> x) {
    ++calls;
    r[0] = 10.0 * (x[1] - x[0] * x[0]);
    r[1] = 1.0 - x[0];
    return std::span<const double>(r);
  };
  for (const std::size_t cap : {1u, 2u, 3u, 4u, 10u, 25u}) {
    calls = 0;
    LeastSquaresOptions opt;
    opt.max_evaluations = cap;
    const auto res = levenberg_marquardt(residuals, {-1.2, 1.0}, opt);
    EXPECT_LE(res.evaluations, cap);
    EXPECT_EQ(calls, res.evaluations);
    EXPECT_FALSE(res.converged);
    EXPECT_TRUE(std::isfinite(res.value));
  }
}

TEST(LevenbergMarquardt, NonFiniteResidualsRejectTheStep) {
  // log x is NaN below zero.  From x = 4 the undamped step lands at
  // x = -1.5, so the optimiser must reject it and damp its way to x = 1.
  std::size_t non_finite = 0;
  std::vector<double> r(1);
  auto residuals = [&](std::span<const double> x) {
    r[0] = std::log(x[0]);
    if (!std::isfinite(r[0])) ++non_finite;
    return std::span<const double>(r);
  };
  const auto res = levenberg_marquardt(residuals, {4.0});
  EXPECT_GT(non_finite, 0u);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.x[0], 1.0, 1e-6);
  EXPECT_TRUE(std::isfinite(res.value));
}

TEST(LevenbergMarquardt, EmptyStartRejected) {
  std::vector<double> r(1, 0.0);
  auto residuals = [&](std::span<const double>) {
    return std::span<const double>(r);
  };
  EXPECT_THROW(levenberg_marquardt(residuals, {}), rrp::ContractViolation);
}

TEST(NelderMead, MinimizesQuadratic1D) {
  auto fn = [](const std::vector<double>& x) {
    return (x[0] - 3.0) * (x[0] - 3.0);
  };
  const auto r = nelder_mead(fn, {0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 3.0, 1e-4);
  EXPECT_NEAR(r.value, 0.0, 1e-7);
}

TEST(NelderMead, MinimizesShiftedQuadratic3D) {
  auto fn = [](const std::vector<double>& x) {
    double s = 0.0;
    const double target[3] = {1.0, -2.0, 0.5};
    for (int i = 0; i < 3; ++i) s += (x[i] - target[i]) * (x[i] - target[i]);
    return s;
  };
  const auto r = nelder_mead(fn, {0.0, 0.0, 0.0});
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], -2.0, 1e-3);
  EXPECT_NEAR(r.x[2], 0.5, 1e-3);
}

TEST(NelderMead, SolvesRosenbrock) {
  auto fn = [](const std::vector<double>& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  NelderMeadOptions opt;
  opt.max_evaluations = 50000;
  const auto r = nelder_mead(fn, {-1.2, 1.0}, opt);
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(NelderMead, HandlesInfiniteRegions) {
  // Constrained region: reject x < 0 with +inf; optimum at boundary-ish.
  auto fn = [](const std::vector<double>& x) {
    if (x[0] < 0.0) return std::numeric_limits<double>::infinity();
    return (x[0] - 0.5) * (x[0] - 0.5) + 1.0;
  };
  const auto r = nelder_mead(fn, {2.0});
  EXPECT_NEAR(r.x[0], 0.5, 1e-3);
  EXPECT_NEAR(r.value, 1.0, 1e-6);
}

TEST(NelderMead, NanTreatedAsRejection) {
  auto fn = [](const std::vector<double>& x) {
    if (x[0] > 10.0) return std::nan("");
    return (x[0] - 1.0) * (x[0] - 1.0);
  };
  const auto r = nelder_mead(fn, {9.5});
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
}

TEST(NelderMead, RespectsEvaluationBudget) {
  int calls = 0;
  auto fn = [&calls](const std::vector<double>& x) {
    ++calls;
    return x[0] * x[0];
  };
  NelderMeadOptions opt;
  opt.max_evaluations = 50;
  const auto r = nelder_mead(fn, {100.0}, opt);
  EXPECT_LE(r.evaluations, 52u);  // initial simplex + loop granularity
  EXPECT_LE(calls, 52);
}

TEST(NelderMead, EmptyStartRejected) {
  auto fn = [](const std::vector<double>&) { return 0.0; };
  EXPECT_THROW(nelder_mead(fn, {}), rrp::ContractViolation);
}

TEST(NelderMead, ZeroStartPointStillPerturbs) {
  // The initial step must handle coordinates at exactly zero.
  auto fn = [](const std::vector<double>& x) {
    return (x[0] + 4.0) * (x[0] + 4.0);
  };
  const auto r = nelder_mead(fn, {0.0});
  EXPECT_NEAR(r.x[0], -4.0, 1e-3);
}

}  // namespace
