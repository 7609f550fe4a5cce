// Warm-start unit tests for lp::SimplexSolver (ISSUE 5): basis
// export/reinstall, dual-simplex re-optimisation after bound and
// objective edits, and the cold-solve fallback on unusable bases.  The
// invariant throughout: solve_from() must return exactly the same
// answer a cold solve would, whichever path produced it.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "lp/simplex.hpp"

namespace {

using namespace rrp::lp;

// Multi-pivot LP so warm starts have real work to skip.
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

TEST(SimplexWarm, BasisRoundtripReproducesOptimum) {
  const LinearProgram lp = dense_lp();
  SimplexSolver solver(lp);
  const Solution cold = solver.solve();
  ASSERT_EQ(cold.status, SolveStatus::Optimal);
  EXPECT_FALSE(solver.last_solve_was_warm());

  const Basis basis = solver.basis();
  ASSERT_FALSE(basis.empty());
  EXPECT_EQ(basis.basic.size(), lp.num_rows());
  EXPECT_EQ(basis.status.size(), lp.num_variables() + lp.num_rows());

  // Re-optimising from the optimal basis with nothing changed must be
  // a no-op warm solve with the identical answer.
  const Solution warm = solver.solve_from(basis);
  ASSERT_EQ(warm.status, SolveStatus::Optimal);
  EXPECT_TRUE(solver.last_solve_was_warm());
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  for (std::size_t j = 0; j < lp.num_variables(); ++j)
    EXPECT_NEAR(warm.x[j], cold.x[j], 1e-9) << "x[" << j << "]";
}

TEST(SimplexWarm, WarmEqualsColdAfterBoundTightening) {
  // The branch & bound access pattern: solve, export the basis, tighten
  // one variable's bounds, re-optimise from the parent basis.  The
  // warm answer must match a from-scratch solve of the edited program.
  LinearProgram lp = dense_lp();
  SimplexSolver solver(lp);
  ASSERT_EQ(solver.solve().status, SolveStatus::Optimal);
  const Basis parent = solver.basis();
  ASSERT_FALSE(parent.empty());

  for (const auto& [lo, hi] :
       std::vector<std::pair<double, double>>{{0.0, 3.0}, {2.0, 10.0},
                                              {5.0, 5.0}}) {
    solver.set_variable_bounds(0, lo, hi);
    const Solution warm = solver.solve_from(parent);

    lp.set_variable_bounds(0, lo, hi);
    const Solution reference = solve(lp);

    ASSERT_EQ(warm.status, reference.status) << "[" << lo << ", " << hi << "]";
    ASSERT_EQ(warm.status, SolveStatus::Optimal);
    EXPECT_NEAR(warm.objective, reference.objective, 1e-7)
        << "[" << lo << ", " << hi << "]";
    EXPECT_TRUE(solver.last_solve_was_warm());
  }
}

TEST(SimplexWarm, WarmStartSkipsPivots) {
  // A small bound change near the optimum should need far fewer pivots
  // than the cold solve from the slack basis — the whole point of warm
  // starting.
  const LinearProgram lp = dense_lp();
  SimplexSolver solver(lp);
  const Solution cold = solver.solve();
  ASSERT_EQ(cold.status, SolveStatus::Optimal);
  const Basis parent = solver.basis();

  solver.set_variable_bounds(3, 0.0, 1.0);
  const Solution warm = solver.solve_from(parent);
  ASSERT_EQ(warm.status, SolveStatus::Optimal);
  EXPECT_TRUE(solver.last_solve_was_warm());
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(SimplexWarm, WarmDetectsInfeasibility) {
  // min x + y, x + y >= 6, x,y in [0, 10]; fixing both to 1 makes the
  // row unsatisfiable.  The dual simplex must certify infeasibility
  // without falling back to a cold solve.
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 10.0, 1.0);
  const auto y = lp.add_variable(0.0, 10.0, 1.0);
  lp.add_row({{x, 1.0}, {y, 1.0}}, 6.0, kInfinity);
  SimplexSolver solver(lp);
  ASSERT_EQ(solver.solve().status, SolveStatus::Optimal);
  const Basis parent = solver.basis();
  ASSERT_FALSE(parent.empty());

  solver.set_variable_bounds(x, 1.0, 1.0);
  solver.set_variable_bounds(y, 1.0, 1.0);
  const Solution sol = solver.solve_from(parent);
  EXPECT_EQ(sol.status, SolveStatus::Infeasible);

  // Relaxing the bounds again recovers the optimum.
  solver.set_variable_bounds(x, 0.0, 10.0);
  solver.set_variable_bounds(y, 0.0, 10.0);
  const Solution back = solver.solve_from(parent);
  ASSERT_EQ(back.status, SolveStatus::Optimal);
  EXPECT_NEAR(back.objective, 6.0, 1e-8);
}

TEST(SimplexWarm, ObjectiveEditsApplyToWarmSolves) {
  LinearProgram lp = dense_lp();
  SimplexSolver solver(lp);
  ASSERT_EQ(solver.solve().status, SolveStatus::Optimal);
  const Basis parent = solver.basis();

  solver.set_objective(0, 25.0);  // was 1.0; make x0 dominate
  EXPECT_EQ(solver.objective_coefficient(0), 25.0);
  const Solution warm = solver.solve_from(parent);

  lp.set_objective(0, 25.0);
  const Solution reference = solve(lp);
  ASSERT_EQ(warm.status, SolveStatus::Optimal);
  ASSERT_EQ(reference.status, SolveStatus::Optimal);
  EXPECT_NEAR(warm.objective, reference.objective, 1e-7);
}

TEST(SimplexWarm, EmptyBasisFallsBackToColdSolve) {
  SimplexSolver solver(dense_lp());
  const Solution sol = solver.solve_from(Basis{});
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_FALSE(solver.last_solve_was_warm());
}

TEST(SimplexWarm, GarbageBasisFallsBackToColdSolve) {
  const LinearProgram lp = dense_lp();
  SimplexSolver reference(lp);
  const Solution cold = reference.solve();
  ASSERT_EQ(cold.status, SolveStatus::Optimal);

  const std::size_t n = lp.num_variables();
  const std::size_t m = lp.num_rows();

  // Wrong shape: too few rows.
  Basis short_basis;
  short_basis.basic.assign(m - 1, 0);
  short_basis.status.assign(n + m, BasisStatus::AtLower);

  // Duplicate basic variable.
  Basis dup_basis;
  dup_basis.basic.assign(m, 0);
  dup_basis.status.assign(n + m, BasisStatus::AtLower);
  dup_basis.status[0] = BasisStatus::Basic;

  // Out-of-range basic indices.
  Basis oob_basis;
  oob_basis.basic.assign(m, n + 2 * m + 5);
  oob_basis.status.assign(n + m, BasisStatus::AtLower);

  for (const Basis* bad : {&short_basis, &dup_basis, &oob_basis}) {
    SimplexSolver solver(lp);
    const Solution sol = solver.solve_from(*bad);
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_FALSE(solver.last_solve_was_warm());
    EXPECT_NEAR(sol.objective, cold.objective, 1e-8);
  }
}

TEST(SimplexWarm, BasisUnavailableAfterNonOptimalSolve) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 1.0, 1.0);
  lp.add_row({{x, 1.0}}, 5.0, kInfinity);  // x >= 5 with x <= 1
  SimplexSolver solver(lp);
  EXPECT_EQ(solver.solve().status, SolveStatus::Infeasible);
  EXPECT_TRUE(solver.basis().empty());
}

TEST(SimplexWarm, FaultInjectorFiresOnWarmPathToo) {
  rrp::testing::FaultInjector inj;
  inj.arm_lp_failures(1);
  SimplexOptions opt;
  opt.fault_injector = &inj;

  SimplexSolver solver(dense_lp());
  ASSERT_EQ(solver.solve().status, SolveStatus::Optimal);
  const Basis parent = solver.basis();

  EXPECT_THROW(solver.solve_from(parent, opt), rrp::NumericalError);
  EXPECT_EQ(inj.armed_lp_failures(), 0u);
  // Consumed: the next warm solve goes through.
  const Solution sol = solver.solve_from(parent, opt);
  EXPECT_EQ(sol.status, SolveStatus::Optimal);
}

TEST(SimplexWarm, RowlessProgramUsesClosedForm) {
  LinearProgram lp;
  const auto x = lp.add_variable(-2.0, 5.0, 3.0);
  const auto y = lp.add_variable(0.0, 4.0, -1.0);
  SimplexSolver solver(lp);

  const Solution cold = solver.solve();
  ASSERT_EQ(cold.status, SolveStatus::Optimal);
  EXPECT_NEAR(cold.x[x], -2.0, 1e-12);
  EXPECT_NEAR(cold.x[y], 4.0, 1e-12);

  const Solution warm = solver.solve_from(solver.basis());
  ASSERT_EQ(warm.status, SolveStatus::Optimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-12);
}

TEST(SimplexWarm, RepeatedWarmSolvesStayConsistent) {
  // Drive the solver through a chain of bound edits, re-optimising from
  // the previous basis each time — the B&B dive pattern.  Every answer
  // is cross-checked against a one-shot solve.
  LinearProgram lp = dense_lp();
  SimplexSolver solver(lp);
  ASSERT_EQ(solver.solve().status, SolveStatus::Optimal);
  Basis basis = solver.basis();

  const std::vector<std::tuple<std::size_t, double, double>> edits = {
      {1, 0.0, 4.0}, {5, 2.0, 10.0}, {1, 0.0, 1.0},
      {9, 0.0, 0.0}, {5, 2.0, 3.0},  {2, 6.0, 10.0},
  };
  for (const auto& [j, lo, hi] : edits) {
    solver.set_variable_bounds(j, lo, hi);
    lp.set_variable_bounds(j, lo, hi);
    const Solution warm = solver.solve_from(basis);
    const Solution reference = solve(lp);
    ASSERT_EQ(warm.status, reference.status);
    ASSERT_EQ(warm.status, SolveStatus::Optimal);
    EXPECT_NEAR(warm.objective, reference.objective, 1e-7);
    basis = solver.basis();
    ASSERT_FALSE(basis.empty());
  }
}

}  // namespace
