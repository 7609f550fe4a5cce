#include "lp/presolve.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "lp/simplex.hpp"
#include "lp_certificate.hpp"

namespace {

using namespace rrp::lp;
using rrp::lp_test::certified_optimum;

// The equivalence suites certify both sides of the comparison: the
// direct solve against the original program, and the solve of the
// reduced program against that program (presolve_and_solve lifts only
// the primal point, so the certificate is checked before the lift).
void expect_both_certified(const LinearProgram& lp, const Solution& direct) {
  EXPECT_TRUE(certified_optimum(lp, direct));
  const PresolvedLp pre = presolve(lp);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_TRUE(certified_optimum(pre.reduced, solve(pre.reduced)));
}

TEST(Presolve, SingletonRowBecomesBound) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 10.0, 1.0, "x");
  const auto y = lp.add_variable(0.0, 10.0, 1.0, "y");
  lp.add_row({{x, 2.0}}, 4.0, 6.0);         // 2x in [4,6] -> x in [2,3]
  lp.add_row({{x, 1.0}, {y, 1.0}}, 5.0, kInfinity);
  const auto pre = presolve(lp);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.rows_removed, 1u);
  EXPECT_EQ(pre.reduced.num_rows(), 1u);
  // x survives with tightened bounds.
  ASSERT_EQ(pre.var_map.size(), 2u);
  EXPECT_DOUBLE_EQ(pre.reduced.variable(0).lo, 2.0);
  EXPECT_DOUBLE_EQ(pre.reduced.variable(0).hi, 3.0);
}

TEST(Presolve, NegativeCoefficientSingleton) {
  LinearProgram lp;
  const auto x = lp.add_variable(-10.0, 10.0, 1.0);
  lp.add_row({{x, -2.0}}, 2.0, 6.0);  // -2x in [2,6] -> x in [-3,-1]
  const auto pre = presolve(lp);
  ASSERT_FALSE(pre.infeasible);
  // The tightened column has no remaining rows, so the empty-column
  // reduction fixes it at the objective-optimising bound.
  ASSERT_TRUE(pre.fixed[x].has_value());
  EXPECT_DOUBLE_EQ(*pre.fixed[x], -3.0);
  EXPECT_EQ(pre.var_map.size(), 0u);
  EXPECT_NEAR(pre.objective_offset, -3.0, 1e-12);
}

TEST(Presolve, FixedVariableSubstituted) {
  LinearProgram lp;
  const auto x = lp.add_variable(2.5, 2.5, 3.0, "x");  // fixed
  const auto y = lp.add_variable(0.0, 10.0, 1.0, "y");
  lp.add_row({{x, 2.0}, {y, 1.0}}, 7.0, kInfinity);  // => y >= 2
  const auto pre = presolve(lp);
  ASSERT_FALSE(pre.infeasible);
  ASSERT_TRUE(pre.fixed[x].has_value());
  EXPECT_DOUBLE_EQ(*pre.fixed[x], 2.5);
  // Substitution shifts the row to y >= 2, which is itself a singleton
  // and collapses into y's lower bound; the then-empty column y is
  // fixed at that bound (its objective coefficient is positive).
  EXPECT_EQ(pre.reduced.num_rows(), 0u);
  EXPECT_EQ(pre.vars_removed, 2u);
  ASSERT_TRUE(pre.fixed[y].has_value());
  EXPECT_DOUBLE_EQ(*pre.fixed[y], 2.0);
  EXPECT_NEAR(pre.objective_offset, 9.5, 1e-12);
}

TEST(Presolve, CascadeSingletonFixesVariable) {
  // Singleton collapses x to a point; substitution turns the second
  // row into a singleton on y, tightening it too.
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 10.0, 1.0);
  const auto y = lp.add_variable(0.0, 10.0, 1.0);
  lp.add_row({{x, 1.0}}, 4.0, 4.0);            // x = 4
  lp.add_row({{x, 1.0}, {y, 1.0}}, 6.0, 9.0);  // => y in [2,5]
  const auto pre = presolve(lp);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_TRUE(pre.fixed[x].has_value());
  EXPECT_EQ(pre.reduced.num_rows(), 0u);
  // y in [2,5] is left without rows and fixed at its cheaper bound.
  ASSERT_TRUE(pre.fixed[y].has_value());
  EXPECT_DOUBLE_EQ(*pre.fixed[y], 2.0);
}

TEST(Presolve, DetectsBoundInfeasibility) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 1.0, 1.0);
  lp.add_row({{x, 1.0}}, 5.0, kInfinity);  // x >= 5 impossible
  const auto pre = presolve(lp);
  EXPECT_TRUE(pre.infeasible);
}

TEST(Presolve, DetectsEmptyRowInfeasibility) {
  LinearProgram lp;
  const auto x = lp.add_variable(3.0, 3.0, 1.0);  // fixed at 3
  lp.add_row({{x, 1.0}}, 5.0, 7.0);  // becomes empty row 0 in [2,4]
  const auto pre = presolve(lp);
  EXPECT_TRUE(pre.infeasible);
}

TEST(Presolve, RestoreLiftsSolutions) {
  LinearProgram lp;
  const auto x = lp.add_variable(1.5, 1.5, 1.0);
  const auto y = lp.add_variable(0.0, 10.0, 1.0);
  const auto z = lp.add_variable(0.0, 10.0, 2.0);
  lp.add_row({{y, 1.0}, {z, 1.0}}, 4.0, kInfinity);
  const auto pre = presolve(lp);
  ASSERT_EQ(pre.var_map.size(), 2u);
  const auto x_full = pre.restore({4.0, 0.0});
  EXPECT_DOUBLE_EQ(x_full[x], 1.5);
  EXPECT_DOUBLE_EQ(x_full[y], 4.0);
  EXPECT_DOUBLE_EQ(x_full[z], 0.0);
}

TEST(Presolve, ActivityBoundTightening) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 10.0, 1.0, "x");
  const auto y = lp.add_variable(1.0, 10.0, 1.0, "y");
  lp.add_row({{x, 1.0}, {y, 1.0}}, -kInfinity, 4.0);
  const auto pre = presolve(lp);
  ASSERT_FALSE(pre.infeasible);
  // x <= 4 - min(y) = 3 and y <= 4 - min(x) = 4.
  ASSERT_EQ(pre.var_map.size(), 2u);
  EXPECT_DOUBLE_EQ(pre.reduced.variable(0).hi, 3.0);
  EXPECT_DOUBLE_EQ(pre.reduced.variable(1).hi, 4.0);
  EXPECT_EQ(pre.reduced.num_rows(), 1u);
}

TEST(Presolve, RedundantRowDropped) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 1.0, 1.0);
  const auto y = lp.add_variable(0.0, 1.0, 1.0);
  lp.add_row({{x, 1.0}, {y, 1.0}}, -5.0, 5.0);  // never binding
  const auto pre = presolve(lp);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.rows_removed, 1u);
  EXPECT_EQ(pre.reduced.num_rows(), 0u);
  // The freed columns collapse onto their cheaper bound.
  ASSERT_TRUE(pre.fixed[x].has_value());
  ASSERT_TRUE(pre.fixed[y].has_value());
  EXPECT_DOUBLE_EQ(*pre.fixed[x], 0.0);
  EXPECT_DOUBLE_EQ(*pre.fixed[y], 0.0);
}

TEST(Presolve, ForcingConstraintFixesAllVariables) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 2.0, 1.0);
  const auto y = lp.add_variable(0.0, 3.0, 1.0);
  lp.add_row({{x, 1.0}, {y, 1.0}}, 5.0, kInfinity);  // only x=2, y=3 works
  const auto pre = presolve(lp);
  ASSERT_FALSE(pre.infeasible);
  ASSERT_TRUE(pre.fixed[x].has_value());
  ASSERT_TRUE(pre.fixed[y].has_value());
  EXPECT_DOUBLE_EQ(*pre.fixed[x], 2.0);
  EXPECT_DOUBLE_EQ(*pre.fixed[y], 3.0);
  EXPECT_NEAR(pre.objective_offset, 5.0, 1e-12);
}

TEST(Presolve, ActivityProvesInfeasibility) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 2.0, 1.0);
  const auto y = lp.add_variable(0.0, 3.0, 1.0);
  lp.add_row({{x, 1.0}, {y, 1.0}}, 5.5, kInfinity);  // max activity 5
  const auto pre = presolve(lp);
  EXPECT_TRUE(pre.infeasible);
}

TEST(Presolve, FreeZeroCostSingletonAbsorbsRow) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 10.0, 1.0, "x");
  const auto z = lp.add_variable(-kInfinity, kInfinity, 0.0, "z");
  lp.add_row({{x, 1.0}, {z, 1.0}}, 3.0, 3.0);
  const auto pre = presolve(lp);
  ASSERT_FALSE(pre.infeasible);
  // z soaks up the equality, the row goes, and x is left unconstrained
  // (then fixed at its cheaper bound 0).
  EXPECT_EQ(pre.reduced.num_rows(), 0u);
  EXPECT_EQ(pre.var_map.size(), 0u);
  ASSERT_EQ(pre.singletons.size(), 1u);
  const auto full = pre.restore({});
  EXPECT_DOUBLE_EQ(full[x], 0.0);
  EXPECT_DOUBLE_EQ(full[z], 3.0);  // restores x + z = 3
  EXPECT_LT(lp.max_violation(full), 1e-9);
}

TEST(Presolve, BoundedZeroCostSingletonNeedsCoverage) {
  LinearProgram lp;
  // 2z can absorb any x in [0,6] against row bounds [0,8]...
  const auto x = lp.add_variable(0.0, 6.0, 1.0);
  const auto z = lp.add_variable(0.0, 10.0, 0.0);
  lp.add_row({{x, 1.0}, {z, 2.0}}, 0.0, 8.0);
  const auto pre = presolve(lp);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.singletons.size(), 1u);
  const auto full = pre.restore({});
  EXPECT_LT(lp.max_violation(full), 1e-9);

  // ...but a singleton with objective weight is never eliminated (its
  // value trades off against the cost, which restore cannot replay).
  LinearProgram lp2;
  lp2.add_variable(0.0, 6.0, 1.0);
  const auto z2 = lp2.add_variable(0.0, 10.0, 0.5);
  lp2.add_row({{0, 1.0}, {z2, 2.0}}, 0.0, 8.0);
  const auto pre2 = presolve(lp2);
  ASSERT_FALSE(pre2.infeasible);
  EXPECT_TRUE(pre2.singletons.empty());
}

TEST(Presolve, EmptyAfterPresolveStillSolves) {
  // Everything reduces away; presolve_and_solve must report the
  // original optimum from the bookkeeping alone.
  LinearProgram lp;
  const auto x = lp.add_variable(2.5, 2.5, 3.0);  // fixed
  const auto y = lp.add_variable(0.0, 10.0, 1.0);
  lp.add_row({{x, 2.0}, {y, 1.0}}, 7.0, kInfinity);  // => y >= 2
  const auto pre = presolve(lp);
  ASSERT_FALSE(pre.infeasible);
  EXPECT_EQ(pre.reduced.num_variables(), 0u);
  const Solution sol = presolve_and_solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 9.5, 1e-9);
  EXPECT_DOUBLE_EQ(sol.x[x], 2.5);
  EXPECT_DOUBLE_EQ(sol.x[y], 2.0);
}

TEST(Presolve, NoRowsProgramCollapses) {
  LinearProgram lp;
  lp.add_variable(-1.0, 4.0, 2.0);   // min at lo
  lp.add_variable(-3.0, 2.0, -1.0);  // min at hi
  const Solution sol = presolve_and_solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, -4.0, 1e-12);
}

class PresolveEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PresolveEquivalence, SolveMatchesDirectSolve) {
  // Random programs rich in singletons and fixed variables: presolve +
  // solve + restore must agree with the direct solve.
  rrp::Rng rng(61000 + static_cast<std::uint64_t>(GetParam()));
  LinearProgram lp;
  const std::size_t n = 4 + static_cast<std::size_t>(GetParam()) % 6;
  for (std::size_t j = 0; j < n; ++j) {
    if (rng.bernoulli(0.25)) {
      const double v = rng.uniform(-2.0, 2.0);
      lp.add_variable(v, v, rng.uniform(-2.0, 2.0));  // fixed
    } else {
      const double lo = rng.uniform(-2.0, 0.0);
      lp.add_variable(lo, lo + rng.uniform(0.5, 3.0),
                      rng.uniform(-2.0, 2.0));
    }
  }
  const std::size_t rows = 2 + static_cast<std::size_t>(GetParam()) % 4;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<Entry> entries;
    for (std::size_t j = 0; j < n; ++j)
      if (rng.bernoulli(r == 0 ? 0.2 : 0.5))
        entries.push_back({j, rng.uniform(-2.0, 2.0)});
    if (entries.empty()) entries.push_back({0, 1.0});
    double mid = 0.0;
    for (const auto& e : entries)
      mid += e.coeff * 0.5 * (lp.variable(e.col).lo + lp.variable(e.col).hi);
    lp.add_row(std::move(entries), mid - rng.uniform(0.2, 2.0),
               mid + rng.uniform(0.2, 2.0));
  }

  const Solution direct = solve(lp);
  const Solution via_presolve = presolve_and_solve(lp);
  ASSERT_EQ(direct.status, via_presolve.status);
  if (direct.status == SolveStatus::Optimal) {
    EXPECT_NEAR(direct.objective, via_presolve.objective,
                1e-6 * (1.0 + std::fabs(direct.objective)));
    EXPECT_LT(lp.max_violation(via_presolve.x), 1e-6);
    expect_both_certified(lp, direct);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PresolveEquivalence,
                         ::testing::Range(0, 30));

class PresolveSparseEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PresolveSparseEquivalence, SolveMatchesDirectSolve) {
  // Programs rich in zero-cost columns, one-sided rows and infinite
  // bounds exercise the activity, forcing and column-singleton
  // reductions; statuses and optima must match the direct solve.
  rrp::Rng rng(72000 + static_cast<std::uint64_t>(GetParam()));
  LinearProgram lp;
  const std::size_t n = 5 + static_cast<std::size_t>(GetParam()) % 5;
  for (std::size_t j = 0; j < n; ++j) {
    const double lo = rng.uniform(-2.0, 0.0);
    const double hi =
        rng.bernoulli(0.2) ? kInfinity : lo + rng.uniform(0.5, 4.0);
    const double obj = rng.bernoulli(0.3) ? 0.0 : rng.uniform(-2.0, 2.0);
    lp.add_variable(lo, hi, obj);
  }
  const std::size_t rows = 2 + static_cast<std::size_t>(GetParam()) % 4;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<Entry> entries;
    for (std::size_t j = 0; j < n; ++j)
      if (rng.bernoulli(0.35)) entries.push_back({j, rng.uniform(-2.0, 2.0)});
    if (entries.empty()) entries.push_back({0, 1.0});
    double mid = 0.0;
    for (const auto& e : entries) {
      const auto& v = lp.variable(e.col);
      mid += e.coeff *
             (std::isfinite(v.hi) ? 0.5 * (v.lo + v.hi) : v.lo + 1.0);
    }
    const double lo =
        rng.bernoulli(0.25) ? -kInfinity : mid - rng.uniform(0.2, 2.0);
    lp.add_row(std::move(entries), lo, mid + rng.uniform(0.2, 2.0));
  }

  const Solution direct = solve(lp);
  const Solution via_presolve = presolve_and_solve(lp);
  ASSERT_EQ(direct.status, via_presolve.status);
  if (direct.status == SolveStatus::Optimal) {
    EXPECT_NEAR(direct.objective, via_presolve.objective,
                1e-6 * (1.0 + std::fabs(direct.objective)));
    EXPECT_LT(lp.max_violation(via_presolve.x), 1e-6);
    expect_both_certified(lp, direct);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PresolveSparseEquivalence,
                         ::testing::Range(0, 30));

}  // namespace
