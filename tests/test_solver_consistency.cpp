// Cross-layer consistency: the LP machinery applied
// to the *actual planner models* must agree with the exact dynamic
// programs — closing the loop between the generic solver stack and the
// domain solvers.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/demand.hpp"
#include "core/srrp_dp.hpp"
#include "core/wagner_whitin.hpp"
#include "lp/simplex.hpp"
#include "milp/branch_and_bound.hpp"

namespace {

using namespace rrp;

core::DrrpInstance random_drrp(std::uint64_t seed, std::size_t horizon) {
  Rng rng(seed);
  core::DrrpInstance inst;
  inst.demand = core::generate_demand(horizon, core::DemandConfig{}, rng);
  inst.compute_price.resize(horizon);
  for (auto& p : inst.compute_price) p = rng.uniform(0.05, 0.9);
  inst.initial_storage = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.6) : 0.0;
  return inst;
}

class LpRelaxationProperties : public ::testing::TestWithParam<int> {};

TEST_P(LpRelaxationProperties, FacilityLocationRelaxationIsIntegral) {
  // The Krarup-Bilde claim behind DESIGN.md decision 5: on the DRRP
  // facility-location model of a *pure* uncapacitated lot-sizing
  // instance (no initial storage: the epsilon budget row breaks the
  // interval structure) the LP relaxation already has an integral
  // optimal chi (what makes B&B finish at the root).
  auto inst = random_drrp(71000 + GetParam(), 10);
  inst.initial_storage = 0.0;
  core::DrrpFlVariables vars;
  const auto model = core::build_drrp_facility_location(inst, &vars);
  const auto& lp = model.lp();
  const auto sol = lp::solve(lp);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  for (const auto& chi : vars.chi) {
    const double v = sol.x[chi.id];
    EXPECT_NEAR(v, std::round(v), 1e-6);
  }
  // And the relaxation value already equals the Wagner-Whitin optimum.
  const auto ww = core::solve_drrp_wagner_whitin(inst);
  EXPECT_NEAR(lp.objective_value(sol.x) + model.objective_constant(),
              ww.cost.total(), 1e-5 * (1.0 + ww.cost.total()));
}

TEST_P(LpRelaxationProperties, AggregatedRelaxationLowerBoundsOptimum) {
  const auto inst = random_drrp(72000 + GetParam(), 10);
  core::DrrpVariables vars;
  const auto model = core::build_drrp(inst, &vars);
  const auto sol = lp::solve(model.lp());
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  const auto ww = core::solve_drrp_wagner_whitin(inst);
  const double relaxation =
      sol.objective + model.objective_constant();
  EXPECT_LE(relaxation, ww.cost.total() + 1e-6);
}

TEST_P(LpRelaxationProperties, FlRelaxationBoundsEpsilonInstances) {
  // With initial storage the FL relaxation may be fractional, but it
  // must stay a valid lower bound and dominate the aggregated one.
  auto inst = random_drrp(75000 + GetParam(), 10);
  inst.initial_storage = 0.4;
  const auto fl_model = core::build_drrp_facility_location(inst, nullptr);
  const auto agg_model = core::build_drrp(inst, nullptr);
  const auto fl = lp::solve(fl_model.lp());
  const auto agg = lp::solve(agg_model.lp());
  ASSERT_EQ(fl.status, lp::SolveStatus::Optimal);
  ASSERT_EQ(agg.status, lp::SolveStatus::Optimal);
  const auto ww = core::solve_drrp_wagner_whitin(inst);
  const double fl_bound = fl.objective + fl_model.objective_constant();
  const double agg_bound = agg.objective + agg_model.objective_constant();
  EXPECT_LE(fl_bound, ww.cost.total() + 1e-6);
  EXPECT_GE(fl_bound, agg_bound - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LpRelaxationProperties,
                         ::testing::Range(0, 12));

TEST(SolverConsistency, SrrpStrengthenedRelaxationBeatsAggregated) {
  // The path-arc block must never weaken the bound.
  Rng rng(74001);
  core::SrrpInstance inst;
  inst.demand = core::generate_demand(3, core::DemandConfig{}, rng);
  std::vector<std::vector<core::PricePoint>> supports;
  for (int s = 0; s < 3; ++s) {
    const double lo = rng.uniform(0.03, 0.08);
    supports.push_back({core::PricePoint{lo, 0.6, false},
                        core::PricePoint{lo + 0.3, 0.4, false}});
  }
  inst.tree = core::ScenarioTree::build(supports);

  const auto agg_model = core::build_srrp(inst, nullptr);
  const auto fl_model = core::build_srrp_facility_location(inst, nullptr);
  const auto agg_sol = lp::solve(agg_model.lp());
  const auto fl_sol = lp::solve(fl_model.lp());
  ASSERT_EQ(agg_sol.status, lp::SolveStatus::Optimal);
  ASSERT_EQ(fl_sol.status, lp::SolveStatus::Optimal);
  const double agg_bound = agg_sol.objective + agg_model.objective_constant();
  const double fl_bound = fl_sol.objective + fl_model.objective_constant();
  EXPECT_GE(fl_bound, agg_bound - 1e-7);
  // Both bound the exact optimum from below.
  const auto dp = core::solve_srrp_tree_dp(inst);
  EXPECT_LE(fl_bound, dp.expected_cost + 1e-6);
}

}  // namespace
