#include "milp/branch_and_bound.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "obs/obs.hpp"

namespace {

using namespace rrp::milp;

// Knapsack large enough that the solve takes many nodes (for deadline
// tests) but still has a known structure.
Model big_knapsack(std::uint64_t seed, int items = 25) {
  rrp::Rng rng(seed);
  Model m;
  LinExpr value, weight;
  for (int i = 0; i < items; ++i) {
    const Var b = m.add_binary();
    value += rng.uniform(1.0, 30.0) * LinExpr(b);
    weight += rng.uniform(1.0, 12.0) * LinExpr(b);
  }
  m.set_objective(value, Objective::Maximize);
  m.add_constraint(std::move(weight) <= 40.0);
  return m;
}

TEST(BranchAndBound, SolvesPureLpModel) {
  Model m;
  const Var x = m.add_continuous(0.0, 4.0);
  const Var y = m.add_continuous(0.0, 4.0);
  m.set_objective(LinExpr(x) + LinExpr(y), Objective::Maximize);
  m.add_constraint(LinExpr(x) + 2.0 * LinExpr(y) <= 6.0);
  const MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-6);  // x=4, y=1
}

TEST(BranchAndBound, SolvesClassicKnapsack) {
  // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary -> a=c=1 obj 17? Check:
  // a+c weight 5 value 17; b+c weight 6 value 20. Optimum {b, c} = 20.
  Model m;
  const Var a = m.add_binary();
  const Var b = m.add_binary();
  const Var c = m.add_binary();
  m.set_objective(10.0 * LinExpr(a) + 13.0 * LinExpr(b) + 7.0 * LinExpr(c),
                  Objective::Maximize);
  m.add_constraint(3.0 * LinExpr(a) + 4.0 * LinExpr(b) + 2.0 * LinExpr(c) <=
                   6.0);
  const MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.objective, 20.0, 1e-6);
  EXPECT_NEAR(r.x[a.id], 0.0, 1e-6);
  EXPECT_NEAR(r.x[b.id], 1.0, 1e-6);
  EXPECT_NEAR(r.x[c.id], 1.0, 1e-6);
}

TEST(BranchAndBound, IntegerRoundingNotEnough) {
  // max x + y s.t. -2x + 2y >= 1, 3x + y <= 10, x,y integer.
  // LP relaxation is fractional; optimal integer solution differs from
  // naive rounding.
  Model m;
  const Var x = m.add_integer(0.0, 10.0);
  const Var y = m.add_integer(0.0, 10.0);
  m.set_objective(LinExpr(x) + LinExpr(y), Objective::Maximize);
  m.add_constraint(-2.0 * LinExpr(x) + 2.0 * LinExpr(y) >= 1.0);
  m.add_constraint(3.0 * LinExpr(x) + LinExpr(y) <= 10.0);
  const MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  // y >= x + 0.5 -> y >= x+1; 3x + y <= 10. x=2,y=4 -> 6. Check x=1,y=7:
  // -2+14 >= 1 ok, 3+7=10 ok -> 8. x=0,y=10: 20 >= 1, 10 <= 10 -> 10.
  EXPECT_NEAR(r.objective, 10.0, 1e-6);
}

TEST(BranchAndBound, InfeasibleIntegerModelDetected) {
  // 0.5 <= 2x <= 0.9 has no integer solution.
  Model m;
  const Var x = m.add_integer(0.0, 10.0);
  m.set_objective(LinExpr(x), Objective::Minimize);
  Constraint c{2.0 * LinExpr(x), 0.5, 0.9};
  m.add_constraint(std::move(c));
  const MipResult r = solve(m);
  EXPECT_EQ(r.status, MipStatus::Infeasible);
}

TEST(BranchAndBound, LpInfeasibleModelDetected) {
  Model m;
  const Var x = m.add_binary();
  m.set_objective(LinExpr(x), Objective::Minimize);
  m.add_constraint(LinExpr(x) >= 2.0);
  EXPECT_EQ(solve(m).status, MipStatus::Infeasible);
}

TEST(BranchAndBound, UnboundedModelDetected) {
  Model m;
  const Var x = m.add_continuous(0.0, rrp::lp::kInfinity);
  const Var b = m.add_binary();
  m.set_objective(LinExpr(x) + LinExpr(b), Objective::Maximize);
  m.add_constraint(LinExpr(x) - LinExpr(b) >= 0.0);
  EXPECT_EQ(solve(m).status, MipStatus::Unbounded);
}

TEST(BranchAndBound, ObjectiveConstantIncluded) {
  Model m;
  const Var x = m.add_binary();
  m.set_objective(LinExpr(x) + 100.0, Objective::Minimize);
  m.add_constraint(LinExpr(x) >= 1.0);
  const MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.objective, 101.0, 1e-6);
}

TEST(BranchAndBound, SolutionIsIntegral) {
  Model m;
  const Var x = m.add_integer(0.0, 100.0);
  const Var y = m.add_continuous(0.0, 100.0);
  m.set_objective(LinExpr(x) + LinExpr(y), Objective::Maximize);
  m.add_constraint(2.0 * LinExpr(x) + 3.0 * LinExpr(y) <= 12.7);
  const MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.x[x.id], std::round(r.x[x.id]), 1e-9);
}

TEST(BranchAndBound, NodeLimitReportsIncumbentState) {
  rrp::Rng rng(79);
  Model m;
  LinExpr value, weight;
  for (int i = 0; i < 25; ++i) {
    const Var b = m.add_binary();
    value += rng.uniform(1.0, 30.0) * LinExpr(b);
    weight += rng.uniform(1.0, 12.0) * LinExpr(b);
  }
  m.set_objective(value, Objective::Maximize);
  m.add_constraint(std::move(weight) <= 40.0);
  BnbOptions opt;
  opt.max_nodes = 3;
  const MipResult r = solve(m, opt);
  // With only 3 nodes we may or may not have an incumbent from the
  // heuristic, but the status must reflect it faithfully.
  if (r.status == MipStatus::NodeLimit) {
    EXPECT_FALSE(r.x.empty());
    EXPECT_GT(r.gap(), 0.0);
  } else if (r.status == MipStatus::NoIncumbent) {
    EXPECT_TRUE(r.x.empty());
  }
}

TEST(BranchAndBound, GapIsZeroAtProvenOptimum) {
  Model m;
  const Var x = m.add_binary();
  m.set_objective(LinExpr(x), Objective::Maximize);
  const MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.gap(), 0.0, 1e-9);
  EXPECT_NEAR(r.objective, 1.0, 1e-9);
}

TEST(BranchAndBound, StatusStrings) {
  EXPECT_STREQ(to_string(MipStatus::Optimal), "optimal");
  EXPECT_STREQ(to_string(MipStatus::NodeLimit), "node-limit");
  EXPECT_STREQ(to_string(MipStatus::TimeLimit), "time-limit");
  EXPECT_STREQ(to_string(MipStatus::NoIncumbent), "no-incumbent");
  EXPECT_STREQ(to_string(MipStatus::Infeasible), "infeasible");
  EXPECT_STREQ(to_string(MipStatus::Unbounded), "unbounded");
}

TEST(BranchAndBound, GapEdgeCases) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  MipResult r;
  // No incumbent (x empty) -> infinite gap regardless of the bound.
  r.best_bound = 12.0;
  EXPECT_EQ(r.gap(), kInf);
  // Incumbent but non-finite proven bound (e.g. deadline expired before
  // any node LP finished) -> still infinite, never NaN.
  r.x = {1.0};
  r.objective = 12.0;
  r.best_bound = -kInf;
  EXPECT_EQ(r.gap(), kInf);
  r.best_bound = std::nan("");
  EXPECT_EQ(r.gap(), kInf);
  // Matching bound -> zero.
  r.best_bound = 12.0;
  EXPECT_NEAR(r.gap(), 0.0, 1e-12);
}

TEST(BranchAndBound, ExpiredDeadlineOnEntryReturnsImmediately) {
  const Model m = big_knapsack(81);
  rrp::common::FakeClock clock(100.0);
  BnbOptions opt;
  opt.deadline = rrp::common::Deadline::after(0.0, clock);
  const std::uint64_t reads_before = clock.reads();
  const MipResult r = solve(m, opt);
  EXPECT_EQ(r.status, MipStatus::NoIncumbent);
  EXPECT_EQ(r.work.nodes_explored, 0u);
  EXPECT_TRUE(r.x.empty());
  // Bound must stay trivially valid for a maximisation: +infinity.
  EXPECT_EQ(r.best_bound, std::numeric_limits<double>::infinity());
  // O(1): one deadline poll, no node exploration, no LP work.
  EXPECT_EQ(clock.reads(), reads_before + 1);
  EXPECT_EQ(r.work.lp_iterations, 0u);
}

TEST(BranchAndBound, MidSolveDeadlineReturnsIncumbentWithValidBound) {
  // Minimisation variant so the bound inequality direction is explicit.
  rrp::Rng rng(83);
  Model m;
  LinExpr cost, cover;
  for (int i = 0; i < 20; ++i) {
    const Var b = m.add_binary();
    cost += rng.uniform(1.0, 30.0) * LinExpr(b);
    cover += rng.uniform(1.0, 12.0) * LinExpr(b);
  }
  m.set_objective(cost, Objective::Minimize);
  m.add_constraint(std::move(cover) >= 40.0);

  // Measure the full solve's deadline-poll count with a clock that
  // advances one fake second per read: the generous budget never
  // expires, and reads() tells us how many polls an optimal run takes.
  rrp::common::FakeClock probe;
  probe.set_auto_advance(1.0);
  BnbOptions probe_opt;
  probe_opt.deadline = rrp::common::Deadline::after(1e15, probe);
  const MipResult exact = solve(m, probe_opt);
  ASSERT_EQ(exact.status, MipStatus::Optimal);
  const double total_polls = static_cast<double>(probe.reads());
  ASSERT_GT(total_polls, 8.0) << "model solved too fast to interrupt";

  // Expire the deadline at increasing fractions of the full solve; the
  // pivot/node sequence is deterministic, so some cut-off interrupts
  // after an incumbent exists but before optimality is proven.
  bool interrupted_with_incumbent = false;
  for (const double frac : {0.5, 0.75, 0.9, 0.97}) {
    rrp::common::FakeClock clock;
    clock.set_auto_advance(1.0);
    BnbOptions opt;
    opt.deadline = rrp::common::Deadline::after(frac * total_polls, clock);
    const MipResult r = solve(m, opt);
    ASSERT_NE(r.status, MipStatus::Optimal) << "cut-off did not interrupt";
    if (r.status != MipStatus::TimeLimit) continue;
    EXPECT_GE(r.work.nodes_explored, 1u);
    ASSERT_FALSE(r.x.empty());
    // Anytime contract (minimisation): bound <= optimum <= incumbent.
    EXPECT_LE(r.best_bound, exact.objective + 1e-6);
    EXPECT_GE(r.objective, exact.objective - 1e-6);
    EXPECT_LE(r.best_bound, r.objective + 1e-6);
    interrupted_with_incumbent = true;
  }
  EXPECT_TRUE(interrupted_with_incumbent);
}

TEST(BranchAndBound, RecoveryLadderRetriesInjectedLpFailures) {
  const Model m = big_knapsack(85, 12);
  const MipResult exact = solve(m);
  ASSERT_EQ(exact.status, MipStatus::Optimal);

  // Failing the first 1..3 lp::solve attempts lands on successive rungs
  // of the ladder (Bland -> forced refactorisation -> perturbation); the
  // solve must still reach the same optimum and report the recovery.
  for (std::size_t failures : {1u, 2u, 3u}) {
    rrp::testing::FaultInjector inj;
    inj.arm_lp_failures(failures);
    BnbOptions opt;
    opt.lp.fault_injector = &inj;
    const MipResult r = solve(m, opt);
    ASSERT_EQ(r.status, MipStatus::Optimal) << failures << " failures";
    EXPECT_NEAR(r.objective, exact.objective, 1e-6);
    EXPECT_GE(r.work.lp_failures_recovered, 1u);
    EXPECT_EQ(inj.armed_lp_failures(), 0u);
  }
}

TEST(BranchAndBound, BlandRecoveryRungRunsTheDualPath) {
  // One node, no root cuts, and a slack start that is dual feasible but
  // violates the row: failing the first attempt puts the node on rung 1,
  // whose cold Bland solve is the dual simplex plus a single primal
  // pricing pass that confirms the optimum.
  Model m;
  const Var x = m.add_continuous(0.0, 4.0);
  const Var y = m.add_continuous(0.0, 4.0);
  m.set_objective(LinExpr(x) + LinExpr(y), Objective::Maximize);
  m.add_constraint(LinExpr(x) + 2.0 * LinExpr(y) <= 6.0);
  rrp::testing::FaultInjector inj;
  inj.arm_lp_failures(1);
  BnbOptions opt;
  opt.lp.fault_injector = &inj;
  auto& registry = rrp::obs::global_registry();
  const std::uint64_t primal0 = registry.counter("rrp.lp.pivots.primal").value();
  const std::uint64_t dual0 = registry.counter("rrp.lp.pivots.dual").value();
  const MipResult r = solve(m, opt);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-9);
  EXPECT_EQ(r.work.lp_failures_recovered, 1u);
  EXPECT_EQ(r.work.cold_solved_nodes, 1u);
  EXPECT_EQ(inj.armed_lp_failures(), 0u);
  EXPECT_GT(registry.counter("rrp.lp.pivots.dual").value(), dual0);
  EXPECT_EQ(registry.counter("rrp.lp.pivots.primal").value() - primal0, 1u);
}

TEST(BranchAndBound, MetricsScrapeAfterSolveHasUniqueNames) {
  // A text scrape prints one `name value` line per series; a gauge named
  // like a histogram's `_sum` line would print the same name twice (the
  // registry now rejects such a name when it is registered).
  ASSERT_EQ(solve(big_knapsack(85, 12)).status, MipStatus::Optimal);
  const std::string text = rrp::obs::global_registry().scrape().to_text();
  std::istringstream lines(text);
  std::set<std::string> names;
  for (std::string line; std::getline(lines, line);) {
    const std::string name = line.substr(0, line.rfind(' '));
    EXPECT_TRUE(names.insert(name).second) << "duplicate series " << name;
  }
  EXPECT_EQ(names.count("rrp.lp.fill_ratio_sum"), 1u);
  EXPECT_EQ(names.count("rrp.bnb.nodes"), 1u);
}

TEST(BranchAndBound, RecoveryLadderExhaustionEscalates) {
  const Model m = big_knapsack(85, 12);
  rrp::testing::FaultInjector inj;
  // Initial attempt + three retries all fail -> NumericalError escapes.
  inj.arm_lp_failures(4);
  BnbOptions opt;
  opt.lp.fault_injector = &inj;
  EXPECT_THROW(solve(m, opt), rrp::NumericalError);
}

}  // namespace
