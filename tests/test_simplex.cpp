#include "lp/simplex.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "lp_certificate.hpp"

namespace {

using namespace rrp::lp;
using rrp::lp_test::certified_optimum;

// Multi-pivot LP used by the deadline tests (needs several iterations).
LinearProgram dense_lp() {
  LinearProgram lp;
  std::vector<std::size_t> vars;
  for (int i = 0; i < 12; ++i)
    vars.push_back(lp.add_variable(0.0, 10.0, 1.0 + 0.1 * i));
  lp.set_sense(Sense::Maximize);
  for (int r = 0; r < 8; ++r) {
    std::vector<Entry> row;
    for (int i = 0; i < 12; ++i)
      row.push_back({vars[i], 1.0 + ((r + i) % 3)});
    lp.add_row(std::move(row), -kInfinity, 30.0 + 2.0 * r);
  }
  return lp;
}

TEST(Simplex, SolvesTextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18, x,y >= 0.
  // Optimum (2, 6) with objective 36 (Dantzig's classic).
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, kInfinity, 3.0, "x");
  const auto y = lp.add_variable(0.0, kInfinity, 5.0, "y");
  lp.set_sense(Sense::Maximize);
  lp.add_row({{x, 1.0}}, -kInfinity, 4.0);
  lp.add_row({{y, 2.0}}, -kInfinity, 12.0);
  lp.add_row({{x, 3.0}, {y, 2.0}}, -kInfinity, 18.0);
  const Solution sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 36.0, 1e-8);
  EXPECT_NEAR(sol.x[x], 2.0, 1e-8);
  EXPECT_NEAR(sol.x[y], 6.0, 1e-8);
}

TEST(Simplex, SolvesMinimizationWithEqualities) {
  // min x + 2y s.t. x + y = 10, x - y <= 4, x,y >= 0 -> (7,3)? No:
  // min pushes y as low as allowed: x - y <= 4 with x + y = 10 gives
  // x <= 7, y >= 3; objective x + 2y = (10 - y) + 2y = 10 + y -> y = 3.
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, kInfinity, 1.0);
  const auto y = lp.add_variable(0.0, kInfinity, 2.0);
  lp.add_row({{x, 1.0}, {y, 1.0}}, 10.0, 10.0);
  lp.add_row({{x, 1.0}, {y, -1.0}}, -kInfinity, 4.0);
  const Solution sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 13.0, 1e-8);
  EXPECT_NEAR(sol.x[x], 7.0, 1e-8);
  EXPECT_NEAR(sol.x[y], 3.0, 1e-8);
}

TEST(Simplex, DetectsInfeasibility) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 1.0, 1.0);
  lp.add_row({{x, 1.0}}, 5.0, kInfinity);  // x >= 5 with x <= 1
  EXPECT_EQ(solve(lp).status, SolveStatus::Infeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, kInfinity, -1.0);  // min -x
  lp.add_row({{x, 1.0}}, 0.0, kInfinity);
  EXPECT_EQ(solve(lp).status, SolveStatus::Unbounded);
}

TEST(Simplex, BoundedAboveIsNotUnbounded) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 9.0, -1.0);
  lp.add_row({{x, 1.0}}, 0.0, kInfinity);
  const Solution sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.x[x], 9.0, 1e-9);
}

TEST(Simplex, HandlesFreeVariables) {
  // min x + y with x free, y >= 0, x + y >= 3, x >= -5 (via row).
  LinearProgram lp;
  const auto x = lp.add_variable(-kInfinity, kInfinity, 1.0);
  const auto y = lp.add_variable(0.0, kInfinity, 1.0);
  lp.add_row({{x, 1.0}, {y, 1.0}}, 3.0, kInfinity);
  lp.add_row({{x, 1.0}}, -5.0, kInfinity);
  const Solution sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 3.0, 1e-8);
}

TEST(Simplex, HandlesNegativeLowerBounds) {
  // min x s.t. x >= -7 via variable bound.
  LinearProgram lp;
  const auto x = lp.add_variable(-7.0, 3.0, 1.0);
  lp.add_row({{x, 1.0}}, -kInfinity, kInfinity);
  const Solution sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.x[x], -7.0, 1e-9);
}

TEST(Simplex, RangedRowsActOnBothSides) {
  // min x + y s.t. 2 <= x + y <= 5, x,y in [0, 10].
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 10.0, 1.0);
  const auto y = lp.add_variable(0.0, 10.0, 1.0);
  lp.add_row({{x, 1.0}, {y, 1.0}}, 2.0, 5.0);
  const Solution sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 2.0, 1e-9);
}

TEST(Simplex, FixedVariablesAreRespected) {
  LinearProgram lp;
  const auto x = lp.add_variable(2.5, 2.5, 1.0);  // fixed
  const auto y = lp.add_variable(0.0, kInfinity, 1.0);
  lp.add_row({{x, 1.0}, {y, 1.0}}, 4.0, kInfinity);
  const Solution sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.x[x], 2.5, 1e-9);
  EXPECT_NEAR(sol.x[y], 1.5, 1e-9);
}

TEST(Simplex, NoRowsPureBoundProblem) {
  LinearProgram lp;
  const auto x = lp.add_variable(1.0, 4.0, 2.0);
  const auto y = lp.add_variable(-3.0, 5.0, -1.0);
  const Solution sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.x[x], 1.0, 1e-12);
  EXPECT_NEAR(sol.x[y], 5.0, 1e-12);
  EXPECT_NEAR(sol.objective, -3.0, 1e-12);
}

TEST(Simplex, NoRowsUnboundedDetected) {
  LinearProgram lp;
  lp.add_variable(0.0, kInfinity, -1.0);
  EXPECT_EQ(solve(lp).status, SolveStatus::Unbounded);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Beale's classic cycling example (min form); Bland fallback must
  // terminate it.
  LinearProgram lp;
  const auto x1 = lp.add_variable(0.0, kInfinity, -0.75);
  const auto x2 = lp.add_variable(0.0, kInfinity, 150.0);
  const auto x3 = lp.add_variable(0.0, kInfinity, -0.02);
  const auto x4 = lp.add_variable(0.0, kInfinity, 6.0);
  lp.add_row({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}}, -kInfinity,
             0.0);
  lp.add_row({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}}, -kInfinity,
             0.0);
  lp.add_row({{x3, 1.0}}, -kInfinity, 1.0);
  const Solution sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, -0.05, 1e-8);
}

TEST(Simplex, BlandPricingGivesSameOptimum) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, kInfinity, 3.0);
  const auto y = lp.add_variable(0.0, kInfinity, 5.0);
  lp.set_sense(Sense::Maximize);
  lp.add_row({{x, 1.0}}, -kInfinity, 4.0);
  lp.add_row({{y, 2.0}}, -kInfinity, 12.0);
  lp.add_row({{x, 3.0}, {y, 2.0}}, -kInfinity, 18.0);
  SimplexOptions opt;
  opt.pricing = Pricing::Bland;
  const Solution sol = solve(lp, opt);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 36.0, 1e-8);
}

TEST(Simplex, DualsSatisfyStrongDualityOnStandardProblem) {
  // max c'x = min b'y; check b'y == c'x at optimum.
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, kInfinity, 3.0);
  const auto y = lp.add_variable(0.0, kInfinity, 5.0);
  lp.set_sense(Sense::Maximize);
  lp.add_row({{x, 1.0}}, -kInfinity, 4.0);
  lp.add_row({{y, 2.0}}, -kInfinity, 12.0);
  lp.add_row({{x, 3.0}, {y, 2.0}}, -kInfinity, 18.0);
  const Solution sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  // Internal duals are for the minimised (negated) problem over rows
  // a'x - s = 0; strong duality: sum_r hi_r * (-y_r) == -objective.
  double dual_obj = 0.0;
  const double rhs[3] = {4.0, 12.0, 18.0};
  for (int r = 0; r < 3; ++r) dual_obj += rhs[r] * sol.duals[r];
  EXPECT_NEAR(std::fabs(dual_obj), 36.0, 1e-6);
}

TEST(Simplex, TinyEqualityOnlySystem) {
  // x = 3 via equality row.
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, kInfinity, 1.0);
  lp.add_row({{x, 1.0}}, 3.0, 3.0);
  const Solution sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.x[x], 3.0, 1e-9);
}

TEST(Simplex, RedundantRowsDoNotBreakColdSolve) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, kInfinity, 1.0);
  const auto y = lp.add_variable(0.0, kInfinity, 1.0);
  lp.add_row({{x, 1.0}, {y, 1.0}}, 4.0, 4.0);
  lp.add_row({{x, 2.0}, {y, 2.0}}, 8.0, 8.0);  // same constraint doubled
  const Solution sol = solve(lp);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 4.0, 1e-8);
}

// --- Cold path --------------------------------------------------------
// A cold solve starts from the slack basis.  The cases below cover the
// starts that are not dual feasible (a cost pulling towards an infinite
// bound), which take the zero-objective feasibility pass before the
// primal loop, and the infeasibility proof of the dual simplex.  Every
// optimum is checked against its program by the certificate.

TEST(SimplexCold, BealesExampleIsCertified) {
  // Costs -0.75 and -0.02 on columns without an upper bound: the slack
  // start is not dual feasible, and the primal loop must not cycle.
  LinearProgram lp;
  const auto x1 = lp.add_variable(0.0, kInfinity, -0.75);
  const auto x2 = lp.add_variable(0.0, kInfinity, 150.0);
  const auto x3 = lp.add_variable(0.0, kInfinity, -0.02);
  const auto x4 = lp.add_variable(0.0, kInfinity, 6.0);
  lp.add_row({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}}, -kInfinity,
             0.0);
  lp.add_row({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}}, -kInfinity,
             0.0);
  lp.add_row({{x3, 1.0}}, -kInfinity, 1.0);
  for (const Pricing pricing : {Pricing::Dantzig, Pricing::Bland}) {
    SimplexOptions opt;
    opt.pricing = pricing;
    const Solution sol = solve(lp, opt);
    EXPECT_TRUE(certified_optimum(lp, sol));
    EXPECT_NEAR(sol.objective, -0.05, 1e-8);
  }
}

TEST(SimplexCold, MaximisationWithUnboundedAboveColumn) {
  // max 2x + y, x >= 0 with no upper bound, y in [0, 3],
  // x + y <= 5, x - y <= 1  ->  (3, 2), objective 8.
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, kInfinity, 2.0);
  const auto y = lp.add_variable(0.0, 3.0, 1.0);
  lp.set_sense(Sense::Maximize);
  lp.add_row({{x, 1.0}, {y, 1.0}}, -kInfinity, 5.0);
  lp.add_row({{x, 1.0}, {y, -1.0}}, -kInfinity, 1.0);
  SimplexSolver solver(lp);
  const Solution sol = solver.solve();
  EXPECT_FALSE(solver.last_solve_was_warm());
  EXPECT_TRUE(certified_optimum(lp, sol));
  EXPECT_NEAR(sol.objective, 8.0, 1e-9);
  EXPECT_NEAR(sol.x[x], 3.0, 1e-9);
  EXPECT_NEAR(sol.x[y], 2.0, 1e-9);
}

TEST(SimplexCold, FreeColumnWithNonzeroCost) {
  // min 2x + y, x free, y >= 0, x + y >= 3, x - y >= -1  ->  (1, 2), 4.
  LinearProgram lp;
  const auto x = lp.add_variable(-kInfinity, kInfinity, 2.0);
  const auto y = lp.add_variable(0.0, kInfinity, 1.0);
  lp.add_row({{x, 1.0}, {y, 1.0}}, 3.0, kInfinity);
  lp.add_row({{x, 1.0}, {y, -1.0}}, -1.0, kInfinity);
  const Solution sol = solve(lp);
  EXPECT_TRUE(certified_optimum(lp, sol));
  EXPECT_NEAR(sol.objective, 4.0, 1e-9);
  EXPECT_NEAR(sol.x[x], 1.0, 1e-9);
}

TEST(SimplexCold, RedundantEqualitiesKeepAnExportableBasis) {
  // Three equalities of rank two.  The slack of a redundant row may stay
  // basic, and the basis is still a valid warm start.
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, kInfinity, 1.0);
  const auto y = lp.add_variable(0.0, kInfinity, 2.0);
  const auto z = lp.add_variable(0.0, 5.0, 1.0);
  lp.add_row({{x, 1.0}, {y, 1.0}}, 4.0, 4.0);
  lp.add_row({{x, 2.0}, {y, 2.0}}, 8.0, 8.0);
  lp.add_row({{x, 1.0}, {y, 1.0}, {z, 1.0}}, 6.0, 6.0);
  SimplexSolver solver(lp);
  const Solution cold = solver.solve();
  EXPECT_TRUE(certified_optimum(lp, cold));
  EXPECT_NEAR(cold.objective, 6.0, 1e-9);  // x = 4, z = 2

  const Basis basis = solver.basis();
  ASSERT_FALSE(basis.empty());
  const Solution warm = solver.solve_from(basis);
  EXPECT_TRUE(solver.last_solve_was_warm());
  EXPECT_TRUE(certified_optimum(lp, warm));
  EXPECT_NEAR(warm.objective, cold.objective, 1e-12);
}

TEST(SimplexCold, DualSimplexProvesInfeasibility) {
  // Dual-feasible start: x + y >= 6 over the box [0, 2]^2.
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 2.0, 1.0);
  const auto y = lp.add_variable(0.0, 2.0, 1.0);
  lp.add_row({{x, 1.0}, {y, 1.0}}, 6.0, kInfinity);
  SimplexSolver solver(lp);
  const Solution sol = solver.solve();
  EXPECT_EQ(sol.status, SolveStatus::Infeasible);
  EXPECT_GT(sol.iterations, 0u);
  EXPECT_TRUE(solver.basis().empty());

  // Not dual feasible (a free column with nonzero cost): the
  // zero-objective pass finds the same certificate.
  LinearProgram free_lp;
  const auto f = free_lp.add_variable(-kInfinity, kInfinity, -1.0);
  const auto g = free_lp.add_variable(0.0, 2.0, 1.0);
  free_lp.add_row({{f, 1.0}, {g, 1.0}}, 6.0, kInfinity);
  free_lp.add_row({{f, 1.0}}, -kInfinity, 1.0);
  EXPECT_EQ(solve(free_lp).status, SolveStatus::Infeasible);
}

TEST(SimplexCold, DualStallSwitchKeepsTheOptimum) {
  // dense_lp's slack start is dual feasible, so the cold solve is dual
  // pivots.  stall_limit = 1 moves them onto Bland's rule after the
  // first dual-degenerate pivot; the certified optimum must not change.
  const LinearProgram lp = dense_lp();
  const Solution reference = solve(lp);
  ASSERT_TRUE(certified_optimum(lp, reference));
  for (const Pricing pricing : {Pricing::Dantzig, Pricing::Bland}) {
    SimplexOptions opt;
    opt.pricing = pricing;
    opt.stall_limit = 1;
    const Solution sol = solve(lp, opt);
    EXPECT_TRUE(certified_optimum(lp, sol));
    EXPECT_NEAR(sol.objective, reference.objective,
                1e-9 * (1.0 + std::fabs(reference.objective)));
  }
}

TEST(SimplexCertificate, RejectsTamperedSolutions) {
  // The certificate is the oracle of the cold-path and property suites,
  // so it must notice each kind of wrong answer.
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, kInfinity, 3.0);
  const auto y = lp.add_variable(0.0, kInfinity, 5.0);
  lp.set_sense(Sense::Maximize);
  lp.add_row({{x, 1.0}}, -kInfinity, 4.0);
  lp.add_row({{y, 2.0}}, -kInfinity, 12.0);
  lp.add_row({{x, 3.0}, {y, 2.0}}, -kInfinity, 18.0);
  const Solution sol = solve(lp);
  ASSERT_TRUE(certified_optimum(lp, sol));

  Solution infeasible = sol;  // 3x + 2y = 19.5 > 18
  infeasible.x[x] += 0.5;
  EXPECT_FALSE(certified_optimum(lp, infeasible));

  Solution wrong_objective = sol;
  wrong_objective.objective += 1.0;
  EXPECT_FALSE(certified_optimum(lp, wrong_objective));

  Solution wrong_duals = sol;  // reduced costs no longer c - A'y
  wrong_duals.duals[2] = -wrong_duals.duals[2];
  EXPECT_FALSE(certified_optimum(lp, wrong_duals));

  Solution no_duals = sol;  // consistent, but d pulls x, y towards +inf
  no_duals.duals.assign(3, 0.0);
  no_duals.reduced_costs = {-3.0, -5.0};
  EXPECT_FALSE(certified_optimum(lp, no_duals));

  Solution suboptimal = sol;  // feasible vertex (0, 6), objective 30
  suboptimal.x = {0.0, 6.0};
  suboptimal.objective = 30.0;
  EXPECT_FALSE(certified_optimum(lp, suboptimal));
}

TEST(SimplexDeadline, ExpiredOnEntryReturnsTimeLimitWithoutPivoting) {
  rrp::common::FakeClock clock(10.0);
  SimplexOptions opt;
  opt.deadline = rrp::common::Deadline::after(-1.0, clock);
  const Solution sol = solve(dense_lp(), opt);
  EXPECT_EQ(sol.status, SolveStatus::TimeLimit);
  EXPECT_EQ(sol.iterations, 0u);
}

TEST(SimplexDeadline, MidSolveExpiryReturnsTimeLimit) {
  const LinearProgram lp = dense_lp();
  // Reference: unlimited solve is optimal and takes several pivots.
  const Solution exact = solve(lp);
  ASSERT_EQ(exact.status, SolveStatus::Optimal);
  ASSERT_GT(exact.iterations, 2u);

  // One fake second per deadline poll; a 3.5s budget expires after a
  // deterministic handful of pivots, before optimality.
  rrp::common::FakeClock clock;
  clock.set_auto_advance(1.0);
  SimplexOptions opt;
  opt.deadline = rrp::common::Deadline::after(3.5, clock);
  const Solution sol = solve(lp, opt);
  EXPECT_EQ(sol.status, SolveStatus::TimeLimit);
  EXPECT_LT(sol.iterations, exact.iterations);
}

TEST(SimplexDeadline, GenerousDeadlineDoesNotChangeResult) {
  const LinearProgram lp = dense_lp();
  const Solution exact = solve(lp);
  SimplexOptions opt;
  opt.deadline = rrp::common::Deadline::after(3600.0);
  const Solution sol = solve(lp, opt);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(sol.objective, exact.objective);
  EXPECT_EQ(sol.iterations, exact.iterations);
}

TEST(SimplexDeadline, TimeLimitStatusString) {
  EXPECT_STREQ(to_string(SolveStatus::TimeLimit), "time-limit");
}

TEST(SimplexFaults, ArmedInjectorThrowsNumericalError) {
  rrp::testing::FaultInjector inj;
  inj.arm_lp_failures(1);
  SimplexOptions opt;
  opt.fault_injector = &inj;
  EXPECT_THROW(solve(dense_lp(), opt), rrp::NumericalError);
  // The failure is consumed: the next solve succeeds.
  const Solution sol = solve(dense_lp(), opt);
  EXPECT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_EQ(inj.armed_lp_failures(), 0u);
}

}  // namespace
