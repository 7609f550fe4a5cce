// Determinism and robustness of the parallel, warm-started branch &
// bound.  The contract under test:
//
//   * With zero gap tolerances, the final optimal objective and proven
//     bound are *bit-identical* across any jobs count — parallel exploration may visit a different set of
//     nodes, but every pruned subtree is dominated by the incumbent, so
//     the returned optimum cannot depend on scheduling.
//   * An incumbent found at the root is bit-identical across jobs
//     counts, point included: worker 0 processes the root node before
//     any other worker starts.
//   * Warm starts change the pivot paths (hence the tree), never the
//     answer: warm-on vs warm-off agree to LP tolerance.
//   * Injected LP failures and fake-clock deadlines are absorbed under
//     parallelism exactly as in the serial solver (this file is part of
//     the TSan suite — see tests/CMakeLists.txt and the CI matrix).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/deadline.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "core/demand.hpp"
#include "core/drrp.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/cuts.hpp"

namespace {

using namespace rrp::milp;

// Same random lot-sizing family as test_anytime_property.cpp: binary
// setup y_t, continuous order alpha_t <= M*y_t, non-negative carried
// inventory.  Always feasible.
struct LotSizing {
  std::vector<double> demand, price;
  double setup_cost = 0.0, storage_cost = 0.0, big_m = 0.0;
  std::vector<Var> y, alpha, beta;
  Model model;

  explicit LotSizing(rrp::Rng& rng, int min_horizon = 3, int extra = 5) {
    const int horizon =
        min_horizon + static_cast<int>(rng.uniform(0.0, 1.0 * extra));
    setup_cost = rng.uniform(1.0, 8.0);
    storage_cost = rng.uniform(0.05, 0.5);
    double total_demand = 0.0;
    for (int t = 0; t < horizon; ++t) {
      demand.push_back(std::floor(rng.uniform(0.0, 6.0)));
      price.push_back(rng.uniform(0.5, 4.0));
      total_demand += demand.back();
    }
    big_m = total_demand + 1.0;
    LinExpr cost;
    for (int t = 0; t < horizon; ++t) {
      y.push_back(model.add_binary());
      alpha.push_back(model.add_continuous(0.0, big_m));
      beta.push_back(model.add_continuous(0.0, big_m));
      cost += setup_cost * LinExpr(y[t]) + price[t] * LinExpr(alpha[t]) +
              storage_cost * LinExpr(beta[t]);
      model.add_constraint(LinExpr(alpha[t]) - big_m * LinExpr(y[t]) <= 0.0);
      LinExpr balance = LinExpr(alpha[t]) - LinExpr(beta[t]);
      if (t > 0) balance += LinExpr(beta[t - 1]);
      model.add_constraint(std::move(balance) == demand[t]);
    }
    model.set_objective(std::move(cost), Objective::Minimize);
  }

  void expect_feasible(const std::vector<double>& x) const {
    const double tol = 1e-5;
    double inventory = 0.0;
    for (std::size_t t = 0; t < demand.size(); ++t) {
      const double yt = x[y[t].id];
      const double at = x[alpha[t].id];
      EXPECT_NEAR(yt, std::round(yt), tol) << "y[" << t << "] not integral";
      EXPECT_GE(at, -tol);
      EXPECT_LE(at, big_m * yt + tol) << "order without setup at " << t;
      inventory += at - demand[t];
      EXPECT_GE(inventory, -tol) << "negative inventory at " << t;
      EXPECT_NEAR(x[beta[t].id], inventory, tol);
    }
  }
};

// Zero gap margins: the setting under which the final objective is
// exploration-order independent.
BnbOptions exact_options() {
  BnbOptions opt;
  opt.absolute_gap = 0.0;
  opt.relative_gap = 0.0;
  return opt;
}

TEST(ParallelBnb, BitIdenticalObjectiveAcrossJobCounts) {
  rrp::Rng rng(42);
  std::size_t parallel_multinode = 0;
  for (int trial = 0; trial < 30; ++trial) {
    LotSizing inst(rng);

    BnbOptions opt = exact_options();
    opt.jobs = 1;
    const MipResult serial = solve(inst.model, opt);
    ASSERT_EQ(serial.status, MipStatus::Optimal) << "trial " << trial;
    inst.expect_feasible(serial.x);

    for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
      opt.jobs = jobs;
      const MipResult parallel = solve(inst.model, opt);
      ASSERT_EQ(parallel.status, MipStatus::Optimal)
          << "trial " << trial << " jobs " << jobs;
      // Bit-identical, not approximately equal: parallel scheduling
      // must not leak into the answer.
      EXPECT_EQ(parallel.objective, serial.objective)
          << "trial " << trial << " jobs " << jobs;
      EXPECT_EQ(parallel.best_bound, serial.best_bound)
          << "trial " << trial << " jobs " << jobs;
      inst.expect_feasible(parallel.x);
      if (parallel.work.nodes_explored > 1) ++parallel_multinode;
    }
  }
  // The suite must actually exercise multi-node parallel trees, not
  // just root solves.
  EXPECT_GT(parallel_multinode, 10u);
}

/// Solves `model` 50 times at each of jobs 1, 2, 4 and 8 and expects
/// every answer to be `serial`'s bit for bit, point included, with
/// `serial`'s refactorisation count: the extra workers solve nothing,
/// and the root ran on worker 0.
void expect_root_answer_repeats(const Model& model, BnbOptions opt,
                                const MipResult& serial) {
  for (int repeat = 0; repeat < 50; ++repeat) {
    for (const std::size_t jobs : {1u, 2u, 4u, 8u}) {
      opt.jobs = jobs;
      const MipResult r = solve(model, opt);
      ASSERT_EQ(r.status, MipStatus::Optimal) << "jobs " << jobs;
      EXPECT_EQ(r.objective, serial.objective) << "jobs " << jobs;
      ASSERT_EQ(r.x.size(), serial.x.size());
      for (std::size_t j = 0; j < r.x.size(); ++j)
        ASSERT_EQ(r.x[j], serial.x[j]) << "jobs " << jobs << " x[" << j << "]";
      ASSERT_EQ(r.work.factor.refactorizations,
                serial.work.factor.refactorizations)
          << "jobs " << jobs;
    }
  }
}

TEST(ParallelBnb, RootIncumbentIsBitIdenticalAcrossJobCounts) {
  // Root incumbents are offered as solved (not re-derived from a fresh
  // factorisation), which is deterministic only because the root runs
  // on worker 0 with the same factor history at every jobs count.
  rrp::Rng rng(27);
  // Facility-location DRRP: its root relaxation is integral, so the
  // incumbent is the root LP point.
  for (int instance = 0; instance < 4; ++instance) {
    SCOPED_TRACE("facility location " + std::to_string(instance));
    rrp::core::DrrpInstance inst;
    inst.demand =
        rrp::core::generate_demand(16, rrp::core::DemandConfig{}, rng);
    for (std::size_t t = 0; t < 16; ++t)
      inst.compute_price.push_back(rng.uniform(0.2, 0.6));
    rrp::core::DrrpFlVariables vars;
    const Model model = rrp::core::build_drrp_facility_location(inst, &vars);
    BnbOptions opt;
    const MipResult serial = solve(model, opt);
    ASSERT_EQ(serial.status, MipStatus::Optimal);
    ASSERT_EQ(serial.work.nodes_explored, 1u);
    expect_root_answer_repeats(model, opt, serial);
  }
  // Lot sizing closed at the root by (l,S) cuts: worker 0 enters the
  // root node with the cut loop's factor, which a fresh worker lacks.
  std::size_t closed = 0;
  for (int instance = 0; instance < 12; ++instance) {
    LotSizing inst(rng, 6, 6);
    rrp::milp::LotSizingCutGenerator cuts;
    std::vector<rrp::milp::LotSlot> slots;
    for (std::size_t t = 0; t < inst.demand.size(); ++t)
      slots.push_back({inst.alpha[t].id, inst.y[t].id, inst.demand[t]});
    cuts.add_chain(std::move(slots));
    BnbOptions opt = exact_options();
    opt.cut_generator = &cuts;
    const MipResult serial = solve(inst.model, opt);
    ASSERT_EQ(serial.status, MipStatus::Optimal);
    if (serial.work.nodes_explored != 1 || serial.work.cuts_added == 0)
      continue;
    ++closed;
    SCOPED_TRACE("lot sizing " + std::to_string(instance));
    expect_root_answer_repeats(inst.model, opt, serial);
  }
  EXPECT_GE(closed, 3u);
}

TEST(ParallelBnb, WarmStartsMatchColdSolvesAndAreCounted) {
  rrp::Rng rng(2025);
  std::size_t warm_total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    LotSizing inst(rng);

    BnbOptions opt = exact_options();
    opt.warm_start = false;
    const MipResult cold = solve(inst.model, opt);
    ASSERT_EQ(cold.status, MipStatus::Optimal) << "trial " << trial;
    EXPECT_EQ(cold.work.warm_started_nodes, 0u);
    EXPECT_GT(cold.work.cold_solved_nodes, 0u);

    opt.warm_start = true;
    const MipResult warm = solve(inst.model, opt);
    ASSERT_EQ(warm.status, MipStatus::Optimal) << "trial " << trial;
    // Warm vs cold may explore different trees (different alternative
    // optima at a node), so the comparison is numeric, not bitwise.
    EXPECT_NEAR(warm.objective, cold.objective, 1e-6) << "trial " << trial;
    inst.expect_feasible(warm.x);
    warm_total += warm.work.warm_started_nodes;
    // Every counted LP is attached to a popped node (pruned nodes solve
    // no LP, so the sum is at most nodes_explored and at least 1: the
    // root always solves).
    EXPECT_GE(warm.work.warm_started_nodes + warm.work.cold_solved_nodes, 1u);
    EXPECT_LE(warm.work.warm_started_nodes + warm.work.cold_solved_nodes,
              warm.work.nodes_explored);
  }
  // The point of the feature: most node LPs should actually warm start.
  EXPECT_GT(warm_total, 20u);
}

TEST(ParallelBnb, JobsZeroMeansHardwareConcurrency) {
  rrp::Rng rng(11);
  LotSizing inst(rng);
  BnbOptions opt = exact_options();
  opt.jobs = 0;
  const MipResult r = solve(inst.model, opt);
  ASSERT_EQ(r.status, MipStatus::Optimal);
  inst.expect_feasible(r.x);
}

TEST(ParallelBnb, AnytimeContractHoldsUnderParallelism) {
  // Node and fake-clock time limits with 8 workers: every result must
  // still be a well-formed anytime answer (feasible incumbent + sound
  // bound, or an honest NoIncumbent).
  rrp::Rng rng(321);
  int limit_path = 0, optimal = 0;
  for (int trial = 0; trial < 25; ++trial) {
    LotSizing inst(rng, 4, 5);
    const MipResult exact = solve(inst.model, exact_options());
    ASSERT_EQ(exact.status, MipStatus::Optimal);

    BnbOptions opt;
    opt.jobs = 8;
    opt.max_nodes = 1 + static_cast<std::size_t>(rng.uniform(0.0, 10.0));
    rrp::common::FakeClock clock;
    clock.set_auto_advance(1.0);
    opt.deadline =
        rrp::common::Deadline::after(rng.uniform(2.0, 120.0), clock);

    const MipResult r = solve(inst.model, opt);
    switch (r.status) {
      case MipStatus::Optimal:
        ++optimal;
        EXPECT_NEAR(r.objective, exact.objective, 1e-5) << "trial " << trial;
        break;
      case MipStatus::TimeLimit:
      case MipStatus::NodeLimit:
        ++limit_path;
        ASSERT_FALSE(r.x.empty()) << "trial " << trial;
        inst.expect_feasible(r.x);
        EXPECT_GE(r.objective, exact.objective - 1e-5);
        EXPECT_LE(r.best_bound, r.objective + 1e-6);
        EXPECT_LE(r.best_bound, exact.objective + 1e-6);
        break;
      case MipStatus::NoIncumbent:
        ++limit_path;
        EXPECT_TRUE(r.x.empty());
        EXPECT_LE(r.best_bound, exact.objective + 1e-6);
        break;
      default:
        FAIL() << "feasible model reported " << to_string(r.status)
               << " in trial " << trial;
    }
  }
  // The randomisation must hit both outcomes, not degenerate into one.
  EXPECT_GT(limit_path, 8);
  EXPECT_GT(optimal, 2);
}

TEST(ParallelBnbChaos, InjectedLpFailuresAreRecoveredInParallel) {
  // FaultInjector-armed LP failures under 8 workers: the recovery
  // ladder retries on the worker that hit the fault; the solve must
  // still land on the exact optimum.  Run under TSan in CI.
  rrp::Rng rng(99);
  std::size_t recovered_total = 0;
  for (int trial = 0; trial < 15; ++trial) {
    LotSizing inst(rng);
    const MipResult exact = solve(inst.model, exact_options());
    ASSERT_EQ(exact.status, MipStatus::Optimal);

    rrp::testing::FaultInjector inj;
    // Each recovery rung's LP solve consumes one armed failure at entry,
    // so <= 3 armed faults are always absorbed by the 4-attempt ladder
    // even when they all land on the same node.
    inj.arm_lp_failures(1 + static_cast<std::size_t>(rng.uniform(0.0, 3.0)));
    BnbOptions opt = exact_options();
    opt.jobs = 8;
    opt.lp.fault_injector = &inj;

    const MipResult r = solve(inst.model, opt);
    ASSERT_EQ(r.status, MipStatus::Optimal) << "trial " << trial;
    EXPECT_NEAR(r.objective, exact.objective, 1e-6) << "trial " << trial;
    inst.expect_feasible(r.x);
    recovered_total += r.work.lp_failures_recovered;
  }
  EXPECT_GT(recovered_total, 0u);
}

TEST(ParallelBnbChaos, FaultsAndDeadlinesTogetherStayWellFormed) {
  // The full storm: armed LP failures *and* an expiring fake-clock
  // deadline, 8 workers.  Whatever bites first, the result is either a
  // feasible incumbent with a sound bound or an honest empty-handed
  // status — never a crash, hang, or malformed point.
  rrp::Rng rng(555);
  for (int trial = 0; trial < 15; ++trial) {
    LotSizing inst(rng, 4, 5);
    rrp::testing::FaultInjector inj;
    inj.arm_lp_failures(static_cast<std::size_t>(rng.uniform(0.0, 4.0)));
    rrp::common::FakeClock clock;
    clock.set_auto_advance(1.0);

    BnbOptions opt;
    opt.jobs = 8;
    opt.lp.fault_injector = &inj;
    opt.deadline =
        rrp::common::Deadline::after(rng.uniform(2.0, 60.0), clock);

    const MipResult r = solve(inst.model, opt);
    if (!r.x.empty()) {
      inst.expect_feasible(r.x);
      EXPECT_LE(r.best_bound, r.objective + 1e-6) << "trial " << trial;
    } else {
      EXPECT_TRUE(r.status == MipStatus::NoIncumbent ||
                  r.status == MipStatus::Infeasible)
          << to_string(r.status) << " in trial " << trial;
    }
  }
}

}  // namespace
