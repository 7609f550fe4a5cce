#include "core/drrp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/demand.hpp"
#include "core/wagner_whitin.hpp"
#include "lp/simplex.hpp"
#include "lp_certificate.hpp"
#include "obs/obs.hpp"

namespace {

using namespace rrp::core;
using rrp::market::CostModel;
using rrp::market::VmClass;

DrrpInstance make_instance(std::vector<double> demand, double cp) {
  DrrpInstance inst;
  inst.demand = std::move(demand);
  inst.compute_price.assign(inst.demand.size(), cp);
  return inst;
}

TEST(Drrp, ValidationCatchesBadInputs) {
  DrrpInstance inst;
  EXPECT_THROW(inst.validate(), rrp::ContractViolation);  // empty demand
  inst = make_instance({0.4, 0.4}, 0.2);
  inst.compute_price.pop_back();
  EXPECT_THROW(inst.validate(), rrp::ContractViolation);
  inst = make_instance({0.4, -0.1}, 0.2);
  EXPECT_THROW(inst.validate(), rrp::ContractViolation);
  inst = make_instance({0.4, 0.4}, 0.0);  // price must be positive
  EXPECT_THROW(inst.validate(), rrp::ContractViolation);
}

TEST(Drrp, PlanServesAllDemand) {
  rrp::Rng rng(131);
  auto inst = make_instance(generate_demand(24, DemandConfig{}, rng), 0.4);
  const RentalPlan plan = solve_drrp(inst);
  ASSERT_EQ(plan.status, rrp::milp::MipStatus::Optimal);
  // Inventory balance holds with beta >= 0 everywhere.
  double store = inst.initial_storage;
  for (std::size_t t = 0; t < 24; ++t) {
    store += plan.alpha[t] - inst.demand[t];
    EXPECT_GT(store, -1e-6) << "slot " << t;
    EXPECT_NEAR(store, plan.beta[t], 1e-6);
  }
}

TEST(Drrp, ForcingConstraintRespected) {
  rrp::Rng rng(132);
  auto inst = make_instance(generate_demand(24, DemandConfig{}, rng), 0.8);
  const RentalPlan plan = solve_drrp(inst);
  ASSERT_TRUE(plan.feasible());
  for (std::size_t t = 0; t < 24; ++t) {
    if (!plan.chi[t]) {
      EXPECT_NEAR(plan.alpha[t], 0.0, 1e-7);
    }
  }
}

TEST(Drrp, NeverCostsMoreThanNoPlan) {
  rrp::Rng rng(133);
  for (double cp : {0.2, 0.4, 0.8}) {
    auto inst = make_instance(generate_demand(24, DemandConfig{}, rng), cp);
    const RentalPlan optimal = solve_drrp(inst);
    const RentalPlan naive = no_plan_schedule(inst);
    ASSERT_TRUE(optimal.feasible());
    EXPECT_LE(optimal.cost.total(), naive.cost.total() + 1e-6);
  }
}

TEST(Drrp, SavingsGrowWithInstancePrice) {
  // Paper Figure 10/11: cost reduction is more salient for expensive
  // compute (the base of the lot-sizing tradeoff).
  rrp::Rng rng(134);
  const auto demand = generate_demand(24, DemandConfig{}, rng);
  double prev_ratio = 1.1;
  for (double cp : {0.2, 0.4, 0.8}) {
    auto inst = make_instance(demand, cp);
    const double opt = solve_drrp(inst).cost.total();
    const double naive = no_plan_schedule(inst).cost.total();
    const double ratio = opt / naive;
    EXPECT_LT(ratio, prev_ratio) << "cp=" << cp;
    prev_ratio = ratio;
  }
}

TEST(Drrp, CheapComputeMeansRentEverySlot) {
  // When holding is expensive relative to compute, batching is useless:
  // the optimal plan degenerates to just-in-time generation.
  auto inst = make_instance(constant_demand(12, 0.4), 0.001);
  const RentalPlan plan = solve_drrp(inst);
  ASSERT_TRUE(plan.feasible());
  for (std::size_t t = 0; t < 12; ++t) {
    EXPECT_EQ(plan.chi[t], 1);
    EXPECT_NEAR(plan.beta[t], 0.0, 1e-6);
  }
}

TEST(Drrp, ExpensiveComputeBatchesGeneration) {
  // Expensive compute + cheap holding: the planner should skip rental
  // slots and serve later demand from inventory.
  auto inst = make_instance(constant_demand(12, 0.4), 2.0);
  const RentalPlan plan = solve_drrp(inst);
  ASSERT_TRUE(plan.feasible());
  const int rentals =
      std::accumulate(plan.chi.begin(), plan.chi.end(), 0,
                      [](int acc, char c) { return acc + (c ? 1 : 0); });
  EXPECT_LT(rentals, 12);
  double max_inventory = 0.0;
  for (double b : plan.beta) max_inventory = std::max(max_inventory, b);
  EXPECT_GT(max_inventory, 0.1);
}

TEST(Drrp, InitialStorageServesEarlyDemand) {
  auto inst = make_instance(constant_demand(4, 0.5), 0.4);
  inst.initial_storage = 1.0;  // covers the first two slots entirely
  const RentalPlan plan = solve_drrp(inst);
  ASSERT_TRUE(plan.feasible());
  EXPECT_NEAR(plan.alpha[0], 0.0, 1e-7);
  EXPECT_NEAR(plan.alpha[1], 0.0, 1e-7);
  EXPECT_EQ(plan.chi[0], 0);
  EXPECT_EQ(plan.chi[1], 0);
}

TEST(Drrp, ZeroDemandSlotsNeedNoRental) {
  auto inst = make_instance({0.0, 0.0, 0.5, 0.0}, 0.4);
  const RentalPlan plan = solve_drrp(inst);
  ASSERT_TRUE(plan.feasible());
  EXPECT_EQ(plan.chi[0], 0);
  EXPECT_EQ(plan.chi[1], 0);
  EXPECT_EQ(plan.chi[3], 0);
  EXPECT_EQ(plan.chi[2], 1);
}

TEST(Drrp, BottleneckConstraintCapsGeneration) {
  auto inst = make_instance(constant_demand(6, 0.4), 2.0);
  inst.bottleneck_rate = 1.0;
  inst.bottleneck_capacity.assign(6, 0.5);  // alpha_t <= 0.5
  const RentalPlan plan = solve_drrp(inst);
  ASSERT_TRUE(plan.feasible());
  for (double a : plan.alpha) EXPECT_LE(a, 0.5 + 1e-7);
  // Total generation of 2.4 GB at <= 0.5 GB/slot needs >= 5 rentals;
  // without the cap this expensive instance would batch into 1-2.
  const int rentals =
      std::accumulate(plan.chi.begin(), plan.chi.end(), 0,
                      [](int acc, char c) { return acc + (c ? 1 : 0); });
  EXPECT_GE(rentals, 5);
}

TEST(Drrp, InfeasibleWhenBottleneckBelowDemand) {
  auto inst = make_instance(constant_demand(4, 0.6), 0.4);
  inst.bottleneck_rate = 1.0;
  inst.bottleneck_capacity.assign(4, 0.5);  // can never cover 0.6/slot
  const RentalPlan plan = solve_drrp(inst);
  EXPECT_EQ(plan.status, rrp::milp::MipStatus::Infeasible);
}

TEST(Drrp, TightAndLooseForcingBoundsAgreeOnOptimum) {
  rrp::Rng rng(135);
  const auto demand = generate_demand(16, DemandConfig{}, rng);
  auto tight = make_instance(demand, 0.8);
  auto loose = make_instance(demand, 0.8);
  loose.tighten_forcing_bound = false;
  const RentalPlan pt = solve_drrp(tight);
  const RentalPlan pl = solve_drrp(loose);
  ASSERT_TRUE(pt.feasible());
  ASSERT_TRUE(pl.feasible());
  EXPECT_NEAR(pt.cost.total(), pl.cost.total(), 1e-5);
}

TEST(Drrp, CostBreakdownSumsToTotalAndMatchesObjective) {
  rrp::Rng rng(136);
  // A short horizon keeps the weak aggregated relaxation solvable fast.
  auto inst = make_instance(generate_demand(10, DemandConfig{}, rng), 0.4);
  DrrpVariables vars;
  const auto model = build_drrp(inst, &vars);
  const auto result = rrp::milp::solve(model);
  ASSERT_EQ(result.status, rrp::milp::MipStatus::Optimal);
  const RentalPlan plan = solve_drrp(inst);
  EXPECT_NEAR(plan.cost.total(), result.objective, 1e-6);
  EXPECT_NEAR(plan.cost.compute + plan.cost.holding +
                  plan.cost.transfer_in + plan.cost.transfer_out,
              plan.cost.total(), 1e-12);
}

TEST(Drrp, TransferOutIsScheduleIndependent) {
  rrp::Rng rng(137);
  auto inst = make_instance(generate_demand(24, DemandConfig{}, rng), 0.8);
  const RentalPlan opt = solve_drrp(inst);
  const RentalPlan naive = no_plan_schedule(inst);
  EXPECT_NEAR(opt.cost.transfer_out, naive.cost.transfer_out, 1e-9);
}

TEST(Drrp, NoPlanScheduleUsesInitialStorageFirst) {
  auto inst = make_instance(constant_demand(3, 0.5), 0.4);
  inst.initial_storage = 0.6;
  const RentalPlan plan = no_plan_schedule(inst);
  EXPECT_NEAR(plan.alpha[0], 0.0, 1e-12);   // 0.5 from storage
  EXPECT_NEAR(plan.alpha[1], 0.4, 1e-12);   // 0.1 left + 0.4 generated
  EXPECT_NEAR(plan.alpha[2], 0.5, 1e-12);
  EXPECT_EQ(plan.chi[0], 0);
}

TEST(Drrp, EvaluateScheduleMatchesSolverAccounting) {
  rrp::Rng rng(138);
  auto inst = make_instance(generate_demand(12, DemandConfig{}, rng), 0.4);
  const RentalPlan plan = solve_drrp(inst);
  const CostBreakdown recomputed =
      evaluate_schedule(inst, plan.alpha, plan.chi);
  EXPECT_NEAR(recomputed.total(), plan.cost.total(), 1e-6);
}

TEST(Drrp, EvaluateScheduleRejectsUnderService) {
  auto inst = make_instance(constant_demand(3, 0.5), 0.4);
  std::vector<double> alpha = {0.5, 0.0, 0.5};  // slot 1 starves
  std::vector<char> chi = {1, 0, 1};
  EXPECT_THROW(evaluate_schedule(inst, alpha, chi), rrp::InvalidArgument);
}

TEST(Drrp, EvaluateScheduleRejectsForcingViolation) {
  auto inst = make_instance(constant_demand(2, 0.5), 0.4);
  std::vector<double> alpha = {1.0, 0.1};
  std::vector<char> chi = {1, 0};  // generates without renting
  EXPECT_THROW(evaluate_schedule(inst, alpha, chi), rrp::ContractViolation);
}

TEST(DrrpColdPath, FacilityLocationRelaxationIsOneDualSolve) {
  // The Fig. 10 shape at 16 slots.  Nonnegative costs make the slack
  // start dual feasible, so the cold solve is the dual simplex alone
  // plus one primal pricing pass that confirms the optimum; a return to
  // a primal first phase would show up here as extra primal passes.
  rrp::Rng rng(16);
  const std::size_t T = 16;
  DrrpInstance inst;
  inst.demand = generate_demand(T, DemandConfig{}, rng);
  inst.compute_price.assign(T, 0.4);
  DrrpFlVariables vars;
  const rrp::milp::Model model = build_drrp_facility_location(inst, &vars);
  const rrp::lp::LinearProgram& lp = model.lp();

  auto& registry = rrp::obs::global_registry();
  const std::uint64_t primal0 = registry.counter("rrp.lp.pivots.primal").value();
  const std::uint64_t cold0 = registry.counter("rrp.bnb.cold_nodes").value();
  rrp::lp::SimplexSolver solver(lp);
  const rrp::lp::Solution sol = solver.solve();
  EXPECT_FALSE(solver.last_solve_was_warm());
  EXPECT_TRUE(rrp::lp_test::certified_optimum(lp, sol));
  EXPECT_EQ(registry.counter("rrp.lp.pivots.primal").value() - primal0, 1u);

  // The MILP on top: the relaxation is integral, so one cold node.
  const RentalPlan plan = solve_drrp(inst);
  ASSERT_EQ(plan.status, rrp::milp::MipStatus::Optimal);
  EXPECT_EQ(plan.work.nodes_explored, 1u);
  EXPECT_EQ(plan.work.cold_solved_nodes, 1u);
  EXPECT_EQ(registry.counter("rrp.bnb.cold_nodes").value() - cold0, 1u);
  EXPECT_NEAR(plan.cost.total(), solve_drrp_wagner_whitin(inst).cost.total(),
              1e-6 * plan.cost.total());
}

}  // namespace
