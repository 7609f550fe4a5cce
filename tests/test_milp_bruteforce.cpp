// Property test: branch & bound against a brute-force oracle.
//
// For small random MILPs over binary variables we can enumerate every
// 0/1 assignment, check feasibility directly and take the best
// objective — an oracle independent of every solver code path.  B&B
// must match it exactly (status and optimum) across a randomised sweep
// of general rows and of multi-row 0/1 knapsacks.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "milp/branch_and_bound.hpp"

namespace {

using namespace rrp::milp;

struct RandomMilp {
  Model model;
  std::vector<std::vector<double>> row_coeffs;  // dense per row
  std::vector<double> row_lo, row_hi;
  std::vector<double> objective;
  bool maximize = false;
};

RandomMilp make_random_binary_milp(std::uint64_t seed, std::size_t n_vars,
                                   std::size_t n_rows) {
  rrp::Rng rng(seed);
  RandomMilp r;
  r.maximize = rng.bernoulli(0.5);
  std::vector<Var> vars;
  LinExpr objective;
  for (std::size_t j = 0; j < n_vars; ++j) {
    vars.push_back(r.model.add_binary());
    r.objective.push_back(rng.uniform(-5.0, 5.0));
    objective += r.objective.back() * LinExpr(vars.back());
  }
  r.model.set_objective(std::move(objective), r.maximize
                                                  ? Objective::Maximize
                                                  : Objective::Minimize);
  for (std::size_t row = 0; row < n_rows; ++row) {
    LinExpr expr;
    std::vector<double> coeffs(n_vars, 0.0);
    for (std::size_t j = 0; j < n_vars; ++j) {
      if (rng.bernoulli(0.6)) {
        coeffs[j] = rng.uniform(-3.0, 3.0);
        expr += coeffs[j] * LinExpr(Var{j});
      }
    }
    // Bounds anchored near the all-half point so instances are usually
    // (but not always) feasible.
    double mid = 0.0;
    for (double c : coeffs) mid += 0.5 * c;
    const double lo = mid - rng.uniform(0.0, 2.0);
    const double hi = mid + rng.uniform(0.0, 2.0);
    r.model.add_constraint(Constraint{expr, lo, hi});
    r.row_coeffs.push_back(std::move(coeffs));
    r.row_lo.push_back(lo);
    r.row_hi.push_back(hi);
  }
  return r;
}

/// Maximisation knapsack: positive values, and 1-2 capacity rows with
/// positive weights whose capacity admits only part of the items.
RandomMilp make_random_knapsack(std::uint64_t seed, std::size_t n_vars,
                                std::size_t n_rows) {
  rrp::Rng rng(seed);
  RandomMilp r;
  r.maximize = true;
  LinExpr value;
  for (std::size_t j = 0; j < n_vars; ++j) {
    r.objective.push_back(rng.uniform(1.0, 20.0));
    value += r.objective.back() * LinExpr(r.model.add_binary());
  }
  r.model.set_objective(std::move(value), Objective::Maximize);
  for (std::size_t row = 0; row < n_rows; ++row) {
    LinExpr weight;
    std::vector<double> coeffs(n_vars, 0.0);
    double total = 0.0;
    for (std::size_t j = 0; j < n_vars; ++j) {
      coeffs[j] = rng.uniform(1.0, 10.0);
      weight += coeffs[j] * LinExpr(Var{j});
      total += coeffs[j];
    }
    const double capacity = rng.uniform(0.3, 0.6) * total;
    r.model.add_constraint(std::move(weight) <= capacity);
    r.row_coeffs.push_back(std::move(coeffs));
    r.row_lo.push_back(-std::numeric_limits<double>::infinity());
    r.row_hi.push_back(capacity);
  }
  return r;
}

/// Enumerates all assignments; returns (found_feasible, best objective).
std::pair<bool, double> brute_force(const RandomMilp& r,
                                    std::size_t n_vars) {
  bool found = false;
  double best = r.maximize ? -std::numeric_limits<double>::infinity()
                           : std::numeric_limits<double>::infinity();
  for (std::size_t mask = 0; mask < (std::size_t{1} << n_vars); ++mask) {
    bool feasible = true;
    for (std::size_t row = 0; row < r.row_coeffs.size() && feasible;
         ++row) {
      double ax = 0.0;
      for (std::size_t j = 0; j < n_vars; ++j)
        if (mask & (std::size_t{1} << j)) ax += r.row_coeffs[row][j];
      if (ax < r.row_lo[row] - 1e-9 || ax > r.row_hi[row] + 1e-9)
        feasible = false;
    }
    if (!feasible) continue;
    double obj = 0.0;
    for (std::size_t j = 0; j < n_vars; ++j)
      if (mask & (std::size_t{1} << j)) obj += r.objective[j];
    found = true;
    best = r.maximize ? std::max(best, obj) : std::min(best, obj);
  }
  return {found, best};
}

void expect_matches_brute_force(const RandomMilp& r) {
  const std::size_t n_vars = r.objective.size();
  const auto [feasible, best] = brute_force(r, n_vars);
  const MipResult result = solve(r.model);
  if (!feasible) {
    EXPECT_EQ(result.status, MipStatus::Infeasible) << "vars " << n_vars;
    return;
  }
  ASSERT_EQ(result.status, MipStatus::Optimal)
      << "vars " << n_vars << " rows " << r.row_coeffs.size();
  EXPECT_NEAR(result.objective, best, 1e-6);
  // The incumbent must be binary and satisfy every row.
  for (std::size_t j = 0; j < n_vars; ++j) {
    EXPECT_NEAR(result.x[j], std::round(result.x[j]), 1e-7);
  }
  for (std::size_t row = 0; row < r.row_coeffs.size(); ++row) {
    double ax = 0.0;
    for (std::size_t j = 0; j < n_vars; ++j)
      ax += r.row_coeffs[row][j] * std::round(result.x[j]);
    EXPECT_GE(ax, r.row_lo[row] - 1e-6);
    EXPECT_LE(ax, r.row_hi[row] + 1e-6);
  }
}

class BnbVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(BnbVsBruteForce, StatusAndOptimumMatch) {
  const std::size_t n_vars = 4 + static_cast<std::size_t>(GetParam()) % 7;
  const std::size_t n_rows = 1 + static_cast<std::size_t>(GetParam()) % 4;
  expect_matches_brute_force(make_random_binary_milp(
      31000 + static_cast<std::uint64_t>(GetParam()), n_vars, n_rows));
}

TEST_P(BnbVsBruteForce, KnapsackOptimumMatches) {
  const std::size_t n_vars = 8 + static_cast<std::size_t>(GetParam()) % 3;
  const std::size_t n_rows = 1 + static_cast<std::size_t>(GetParam()) % 2;
  expect_matches_brute_force(make_random_knapsack(
      32000 + static_cast<std::uint64_t>(GetParam()), n_vars, n_rows));
}

INSTANTIATE_TEST_SUITE_P(Sweep, BnbVsBruteForce, ::testing::Range(0, 40));

}  // namespace
