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
  const auto x = lp.add_variable(0.0, kInfinity, 3.0);
  const auto y = lp.add_variable(0.0, kInfinity, 5.0);
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

TEST(SimplexCold, EqualViolationsLeaveInPositionOrder) {
  // The slack start violates rows 0, 1 and 2 by 3, 2 and 2, and the
  // infeasible list holds positions 0, 1, 2.  The first pivot (row 0,
  // x0 enters) clears position 0 only, and the list's swap-removal
  // moves position 2 into its slot: the list is then 2, 1, with two
  // exactly equal violations.  A scan of all rows takes position 1
  // first; x1 enters there, so x2 needs a pivot of its own on row 2:
  // three pivots.  Taking position 2 first would let x2 clear both
  // rows in two.
  LinearProgram lp;
  const auto x0 = lp.add_variable(0.0, kInfinity, 1.0);
  const auto x1 = lp.add_variable(0.0, kInfinity, 1.0);
  const auto x2 = lp.add_variable(0.0, kInfinity, 1.5);
  lp.add_row({{x0, 1.0}}, 3.0, kInfinity);
  lp.add_row({{x1, 1.0}, {x2, 1.0}}, 2.0, kInfinity);
  lp.add_row({{x2, 1.0}}, 2.0, kInfinity);
  for (const Pricing pricing : {Pricing::Dantzig, Pricing::Bland}) {
    SimplexOptions opt;
    opt.pricing = pricing;
    const Solution sol = solve(lp, opt);
    ASSERT_TRUE(certified_optimum(lp, sol));
    EXPECT_EQ(sol.objective, 6.0);
    EXPECT_EQ(sol.iterations, 3u);
  }
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

// ---------------------------------------------------------------------
// Factor reuse across solves.  SimplexSolver keeps its sparse LU factor
// and eta file from one solve to the next: a warm start that differs
// from the current basis in at most m/8 positions is installed by column
// replacement, anything else (or a factor not known to be current) by
// one fresh factorisation.  The refactorisation counts below are read
// from factor_stats(); every answer is certified against its program
// and must match a cold one-shot solve.

// 24 rows over 36 bounded columns, a few nonzeros per row, maximised:
// big enough that m/8 = 3 positions may be replaced in place.
LinearProgram reuse_lp() {
  LinearProgram lp;
  for (int i = 0; i < 36; ++i)
    lp.add_variable(0.0, 4.0 + (i % 5), 1.0 + 0.05 * ((i * 7) % 11));
  lp.set_sense(Sense::Maximize);
  for (int r = 0; r < 24; ++r) {
    std::vector<Entry> row;
    for (int k = 0; k < 5; ++k) {
      const auto col = static_cast<std::size_t>((r * 5 + k * 7) % 36);
      row.push_back({col, 1.0 + ((r + k) % 3)});
    }
    lp.add_row(std::move(row), -kInfinity, 12.0 + (r % 4));
  }
  return lp;
}

std::size_t differing_positions(const Basis& a, const Basis& b) {
  std::size_t n = 0;
  for (std::size_t pos = 0; pos < a.basic.size(); ++pos)
    if (a.basic[pos] != b.basic[pos]) ++n;
  return n;
}

// A structural column basic in `b`, its position, and its upper bound
// pulled to the middle of its range; the optimum must move.
struct Tightening {
  std::size_t col;
  double hi;
};
Tightening tighten_a_basic_column(const LinearProgram& lp, const Basis& b,
                                  const Solution& sol) {
  for (std::size_t j : b.basic) {
    if (j >= lp.num_variables()) continue;
    if (sol.x[j] > 0.5) return {j, 0.5 * sol.x[j]};
  }
  ADD_FAILURE() << "no structural column basic above 0.5";
  return {0, lp.variable(0).hi};
}

/// Certifies `sol` against `lp` and compares it with a cold solve.
void expect_matches_cold(const LinearProgram& lp, const Solution& sol) {
  EXPECT_TRUE(certified_optimum(lp, sol));
  const Solution cold = solve(lp);
  ASSERT_EQ(cold.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, cold.objective, 1e-9);
}

TEST(SimplexFactorReuse, NearbyWarmStartIsInstalledWithoutRefactorising) {
  LinearProgram lp = reuse_lp();
  SimplexSolver solver(lp);
  const Solution first = solver.solve();
  ASSERT_TRUE(certified_optimum(lp, first));
  const Basis parent = solver.basis();

  // Move to a nearby basis: one tightened bound, a few dual pivots.
  const Tightening t = tighten_a_basic_column(lp, parent, first);
  const double hi = lp.variable(t.col).hi;
  solver.set_variable_bounds(t.col, 0.0, t.hi);
  lp.set_variable_bounds(t.col, 0.0, t.hi);
  expect_matches_cold(lp, solver.solve_from(parent));
  const Basis child = solver.basis();
  const std::size_t differ = differing_positions(parent, child);
  ASSERT_GE(differ, 1u);
  ASSERT_LE(differ, lp.num_rows() / 8);

  // Back to the parent: the start differs in `differ` positions, each
  // replaced in the current factor.
  solver.set_variable_bounds(t.col, 0.0, hi);
  lp.set_variable_bounds(t.col, 0.0, hi);
  const FactorizationStats before = solver.factor_stats();
  const Solution back = solver.solve_from(parent);
  EXPECT_TRUE(solver.last_solve_was_warm());
  EXPECT_EQ(solver.factor_stats().refactorizations, before.refactorizations);
  EXPECT_EQ(solver.factor_stats().eta_updates, before.eta_updates + differ);
  expect_matches_cold(lp, back);
}

TEST(SimplexFactorReuse, DistantWarmStartRefactorisesOnceAtInstall) {
  const LinearProgram lp = reuse_lp();
  SimplexSolver solver(lp);
  ASSERT_EQ(solver.solve().status, SolveStatus::Optimal);
  const Basis parent = solver.basis();

  // Every structural fixed at zero: the optimum is the slack basis, far
  // from the parent.
  for (std::size_t j = 0; j < lp.num_variables(); ++j)
    solver.set_variable_bounds(j, 0.0, 0.0);
  ASSERT_EQ(solver.solve_from(parent).status, SolveStatus::Optimal);
  ASSERT_GT(differing_positions(parent, solver.basis()), lp.num_rows() / 8);

  for (std::size_t j = 0; j < lp.num_variables(); ++j)
    solver.set_variable_bounds(j, lp.variable(j).lo, lp.variable(j).hi);
  const FactorizationStats before = solver.factor_stats();
  const Solution back = solver.solve_from(parent);
  EXPECT_TRUE(solver.last_solve_was_warm());
  EXPECT_EQ(back.iterations, 0u);  // the parent is optimal again
  EXPECT_EQ(solver.factor_stats().refactorizations,
            before.refactorizations + 1);
  expect_matches_cold(lp, back);
}

TEST(SimplexFactorReuse, SingularReplacementSequenceFallsBack) {
  // Two basic columns swapped between their positions: whichever
  // position is replaced first puts one column into the basis twice, a
  // singular intermediate basis with a zero replacement pivot.  The
  // install must fall back to one fresh factorisation of the
  // (nonsingular) start.
  const LinearProgram lp = reuse_lp();
  SimplexSolver solver(lp);
  ASSERT_EQ(solver.solve().status, SolveStatus::Optimal);
  Basis swapped = solver.basis();
  std::swap(swapped.basic[0], swapped.basic[1]);

  const FactorizationStats before = solver.factor_stats();
  const Solution sol = solver.solve_from(swapped);
  EXPECT_TRUE(solver.last_solve_was_warm());
  EXPECT_EQ(solver.factor_stats().refactorizations,
            before.refactorizations + 1);
  // The zero pivot is refused at install: no replacement eta is kept,
  // and no end-of-solve residual check has to catch it.
  EXPECT_EQ(solver.factor_stats().eta_updates, before.eta_updates);
  EXPECT_EQ(sol.iterations, 0u);
  expect_matches_cold(lp, sol);
  EXPECT_EQ(solver.basis().basic, swapped.basic);
}

TEST(SimplexFactorReuse, AppendedRowsReuseTheFactor) {
  // The root cut loop: rows appended after an Optimal solve border the
  // factor, so re-optimising from basis() (the new slacks basic) needs
  // no refactorisation, whether a row is slack or cuts off the optimum.
  LinearProgram lp = reuse_lp();
  SimplexSolver solver(lp);
  ASSERT_EQ(solver.solve().status, SolveStatus::Optimal);
  // A fresh factor with an empty eta file, so the fill cap stays out of
  // the count below.
  const Solution first = solver.refactored_solution();

  double activity = 0.0;
  std::vector<Entry> cut;
  for (std::size_t j = 0; j < lp.num_variables(); j += 4) {
    cut.push_back({j, 1.0});
    activity += first.x[j];
  }
  const std::vector<std::pair<double, double>> sides = {
      {-kInfinity, activity + 1.0},  // slack at the optimum
      {-kInfinity, 0.5 * activity},  // cuts the optimum off
  };
  for (const auto& [lo, hi] : sides) {
    lp.add_row(cut, lo, hi);
    solver.add_row(lp.row(lp.num_rows() - 1));
  }
  ASSERT_EQ(solver.num_rows(), lp.num_rows());

  const FactorizationStats before = solver.factor_stats();
  const Solution sol = solver.solve_from(solver.basis());
  EXPECT_TRUE(solver.last_solve_was_warm());
  EXPECT_GT(sol.iterations, 0u);
  EXPECT_EQ(solver.factor_stats().refactorizations, before.refactorizations);
  expect_matches_cold(lp, sol);
}

// B^-1 a_j for every column j of the simplex system [A  -I] at `basis`,
// by dense Gaussian elimination with partial pivoting (column-major:
// result[j][i] is the coefficient of basis position i).
std::vector<std::vector<double>> basis_representation(
    const LinearProgram& lp, const std::vector<std::size_t>& basis) {
  const std::size_t m = lp.num_rows();
  const std::size_t total = lp.num_variables() + m;
  std::vector<std::vector<double>> a(m, std::vector<double>(total, 0.0));
  for (std::size_t r = 0; r < m; ++r) {
    for (const Entry& e : lp.row(r).entries) a[r][e.col] += e.coeff;
    a[r][lp.num_variables() + r] = -1.0;
  }
  // Augmented [B | A]: eliminate on the first m columns.
  std::vector<std::vector<double>> aug(m);
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t pos = 0; pos < m; ++pos)
      aug[r].push_back(a[r][basis[pos]]);
    aug[r].insert(aug[r].end(), a[r].begin(), a[r].end());
  }
  for (std::size_t c = 0; c < m; ++c) {
    std::size_t piv = c;
    for (std::size_t r = c + 1; r < m; ++r)
      if (std::fabs(aug[r][c]) > std::fabs(aug[piv][c])) piv = r;
    std::swap(aug[c], aug[piv]);
    for (std::size_t r = 0; r < m; ++r) {
      if (r == c || aug[r][c] == 0.0) continue;
      const double f = aug[r][c] / aug[c][c];
      for (std::size_t k = c; k < aug[r].size(); ++k)
        aug[r][k] -= f * aug[c][k];
    }
  }
  std::vector<std::vector<double>> w(total, std::vector<double>(m, 0.0));
  for (std::size_t j = 0; j < total; ++j)
    for (std::size_t i = 0; i < m; ++i) w[j][i] = aug[i][m + j] / aug[i][i];
  return w;
}

TEST(SimplexFactorReuse, ReplacementBlockedAtFirstEntersAfterAnother) {
  // The start swaps two nonbasic columns z, y into positions p < q of
  // the current basis.  z has a zero coefficient on position p, so it
  // cannot enter there first; once y has replaced position q it can.
  // The install must order the two replacements instead of refactorising.
  const LinearProgram lp = reuse_lp();
  SimplexSolver solver(lp);
  ASSERT_EQ(solver.solve().status, SolveStatus::Optimal);
  const Basis current = solver.basis();
  const auto w = basis_representation(lp, current.basic);
  const std::size_t m = lp.num_rows();
  const auto big = [](double v) { return std::fabs(v) > 1e-3; };
  Basis start;
  for (std::size_t p = 0; p < m && start.empty(); ++p) {
    for (std::size_t q = p + 1; q < m && start.empty(); ++q) {
      for (std::size_t z = 0; z < w.size() && start.empty(); ++z) {
        if (current.status[z] == BasisStatus::Basic) continue;
        if (std::fabs(w[z][p]) > 1e-12 || !big(w[z][q])) continue;
        for (std::size_t y = 0; y < w.size(); ++y) {
          if (current.status[y] == BasisStatus::Basic || y == z) continue;
          if (!big(w[y][q]) || !big(w[y][p])) continue;
          start = current;
          start.status[start.basic[p]] = BasisStatus::AtLower;
          start.status[start.basic[q]] = BasisStatus::AtLower;
          start.basic[p] = z;
          start.basic[q] = y;
          start.status[z] = BasisStatus::Basic;
          start.status[y] = BasisStatus::Basic;
          break;
        }
      }
    }
  }
  ASSERT_FALSE(start.empty()) << "no blocked replacement pair in reuse_lp";

  // A copy of the solver stops at the first dual pivot's deadline poll,
  // right after the install, to show what the install alone did.
  SimplexSolver probe(lp);
  ASSERT_EQ(probe.solve().status, SolveStatus::Optimal);
  const FactorizationStats before = probe.factor_stats();
  rrp::common::FakeClock clock;
  clock.set_auto_advance(1.0);
  SimplexOptions opt;
  opt.deadline = rrp::common::Deadline::after(1.5, clock);
  ASSERT_EQ(probe.solve_from(start, opt).status, SolveStatus::TimeLimit);
  EXPECT_EQ(probe.factor_stats().refactorizations, before.refactorizations);
  EXPECT_EQ(probe.factor_stats().eta_updates, before.eta_updates + 2);

  // The same install, re-optimised to the end.
  const Solution sol = solver.solve_from(start);
  EXPECT_TRUE(solver.last_solve_was_warm());
  expect_matches_cold(lp, sol);
}

// Stops a warm solve after one pivot by `stop`, then re-solves from the
// start basis: the stopped solve's factor is consistent with its basis,
// which is one replacement away, but it was not certified by an Optimal
// finish, so the install must refactorise.
template <typename StoppedSolve>
void expect_stop_discards_factor(StoppedSolve&& stopped_solve,
                                 SolveStatus expected) {
  LinearProgram lp = reuse_lp();
  SimplexSolver solver(lp);
  const Solution first = solver.solve();
  ASSERT_EQ(first.status, SolveStatus::Optimal);
  const Basis parent = solver.basis();

  const FactorizationStats before_stop = solver.factor_stats();
  const Solution stopped = stopped_solve(solver, parent, first);
  ASSERT_EQ(stopped.status, expected);
  ASSERT_GT(solver.factor_stats().eta_updates, before_stop.eta_updates);
  EXPECT_TRUE(solver.basis().empty());

  const FactorizationStats before = solver.factor_stats();
  const Solution sol = solver.solve_from(parent);
  EXPECT_TRUE(solver.last_solve_was_warm());
  EXPECT_EQ(solver.factor_stats().refactorizations,
            before.refactorizations + 1);
  expect_matches_cold(lp, sol);
}

TEST(SimplexFactorReuse, TimeLimitStopLeavesNoReusableFactor) {
  expect_stop_discards_factor(
      [](SimplexSolver& solver, const Basis& parent, const Solution& first) {
        const LinearProgram lp = reuse_lp();
        const Tightening t = tighten_a_basic_column(lp, parent, first);
        solver.set_variable_bounds(t.col, 0.0, t.hi);
        // One fake second per poll: the entry poll and one pivot's poll
        // pass, the second pivot's poll expires.
        rrp::common::FakeClock clock;
        clock.set_auto_advance(1.0);
        SimplexOptions opt;
        opt.deadline = rrp::common::Deadline::after(2.5, clock);
        const Solution stopped = solver.solve_from(parent, opt);
        solver.set_variable_bounds(t.col, 0.0, lp.variable(t.col).hi);
        return stopped;
      },
      SolveStatus::TimeLimit);
}

TEST(SimplexFactorReuse, IterationLimitStopLeavesNoReusableFactor) {
  expect_stop_discards_factor(
      [](SimplexSolver& solver, const Basis& parent, const Solution&) {
        // A cost pulling hard on column 0 leaves the parent dual
        // infeasible: the primal loop pivots once and hits the limit.
        const double c0 = solver.objective_coefficient(0);
        solver.set_objective(0, 50.0);
        SimplexOptions opt;
        opt.max_iterations = 1;
        const Solution stopped = solver.solve_from(parent, opt);
        solver.set_objective(0, c0);
        return stopped;
      },
      SolveStatus::IterationLimit);
}

TEST(SimplexFactorReuse, InfeasibleWarmSolveKeepsTheFactor) {
  // A warm solve that ends Infeasible stops before its last pivot, so
  // its factor still matches its basis: the next nearby start is
  // installed by column replacement, with no refactorisation.
  LinearProgram lp = reuse_lp();
  SimplexSolver solver(lp);
  const Solution first = solver.solve();
  ASSERT_EQ(first.status, SolveStatus::Optimal);
  const Basis parent = solver.basis();
  // A fresh factor with an empty eta file, so no cap is near.
  ASSERT_EQ(solver.refactored_solution().status, SolveStatus::Optimal);

  // Pin one column of a row so high that the row's upper side cannot
  // hold; the first such pin proven within m/8 pivots keeps the start
  // nearby.
  std::size_t col = lp.num_variables();
  for (std::size_t r = 0; r < lp.num_rows() && col == lp.num_variables();
       ++r) {
    for (const Entry& e : lp.row(r).entries) {
      const double fix = 2.0 * (lp.row(r).hi + 1.0) / e.coeff;
      solver.set_variable_bounds(e.col, fix, fix);
      const FactorizationStats before = solver.factor_stats();
      const Solution infeasible = solver.solve_from(parent);
      solver.set_variable_bounds(e.col, lp.variable(e.col).lo,
                                 lp.variable(e.col).hi);
      ASSERT_EQ(infeasible.status, SolveStatus::Infeasible);
      EXPECT_TRUE(solver.last_solve_was_warm());
      EXPECT_TRUE(solver.basis().empty());
      if (solver.factor_stats().refactorizations == before.refactorizations &&
          infeasible.iterations >= 1 &&
          infeasible.iterations <= lp.num_rows() / 8) {
        col = e.col;
        break;
      }
      // Back to the parent's factor for the next candidate.
      ASSERT_EQ(solver.solve_from(parent).status, SolveStatus::Optimal);
      ASSERT_EQ(solver.refactored_solution().status, SolveStatus::Optimal);
    }
  }
  ASSERT_LT(col, lp.num_variables()) << "no nearby infeasible pin in reuse_lp";

  const FactorizationStats before = solver.factor_stats();
  const Solution sol = solver.solve_from(parent);
  EXPECT_TRUE(solver.last_solve_was_warm());
  EXPECT_EQ(solver.factor_stats().refactorizations, before.refactorizations);
  EXPECT_GT(solver.factor_stats().eta_updates, before.eta_updates);
  EXPECT_EQ(sol.iterations, 0u);  // the parent is optimal again
  expect_matches_cold(lp, sol);
}

TEST(SimplexFactorReuse, RefactorEveryOneRebuildsAfterEveryUpdate) {
  // Recovery rung 2 of the branch & bound ladder: refactor_every = 1
  // must still rebuild the factor after every eta update, on the cold
  // and on the warm path.
  LinearProgram lp = reuse_lp();
  SimplexSolver solver(lp);
  SimplexOptions opt;
  opt.refactor_every = 1;
  const Solution cold = solver.solve(opt);
  const FactorizationStats& stats = solver.factor_stats();
  EXPECT_GT(stats.eta_updates, 0u);
  EXPECT_EQ(stats.refactorizations, stats.eta_updates + 1);
  expect_matches_cold(lp, cold);

  const Basis parent = solver.basis();
  const Tightening t = tighten_a_basic_column(lp, parent, cold);
  solver.set_variable_bounds(t.col, 0.0, t.hi);
  lp.set_variable_bounds(t.col, 0.0, t.hi);
  const FactorizationStats before = stats;
  const Solution warm = solver.solve_from(parent, opt);
  EXPECT_TRUE(solver.last_solve_was_warm());
  const std::size_t updates = stats.eta_updates - before.eta_updates;
  EXPECT_GT(updates, 0u);
  EXPECT_EQ(stats.refactorizations - before.refactorizations, updates);
  expect_matches_cold(lp, warm);
}

}  // namespace
