// Per-run telemetry under concurrency: every MipResult and
// SimulationResult counter counts the work of its own solve or
// simulation, so runs overlapping on the global pool (as
// evaluate_policies' parallel trials do) report exactly what each run
// reports alone.  Doubles as a TSan target (the CI tsan-concurrency job
// runs -R "...|TelemetryConcurrent").
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/demand.hpp"
#include "core/drrp.hpp"
#include "core/policies.hpp"
#include "core/rolling_horizon.hpp"
#include "market/trace_generator.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/cuts.hpp"

namespace {

using namespace rrp;
using rrp::testing::FaultInjector;

/// Rounds of concurrent runs compared against the serial answers; more
/// rounds give more overlap between runs.
constexpr int kRounds = 3;

using Fields = std::vector<std::pair<std::string, double>>;

void expect_same_fields(const Fields& got, const Fields& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i].second, want[i].second) << label << ": " << got[i].first;
}

// ---------------------------------------------------------------------------
// MILP solves.
// ---------------------------------------------------------------------------

milp::Model knapsack(std::uint64_t seed) {
  Rng rng(seed);
  milp::Model m;
  milp::LinExpr value, weight;
  for (int i = 0; i < 25; ++i) {
    const milp::Var b = m.add_binary();
    value += rng.uniform(1.0, 30.0) * milp::LinExpr(b);
    weight += rng.uniform(1.0, 12.0) * milp::LinExpr(b);
  }
  m.set_objective(value, milp::Objective::Maximize);
  m.add_constraint(std::move(weight) <= 40.0);
  return m;
}

core::DrrpInstance drrp_instance(std::uint64_t seed, std::size_t horizon,
                                 double initial_storage) {
  Rng rng(seed);
  core::DrrpInstance inst;
  inst.demand = core::generate_demand(horizon, core::DemandConfig{}, rng);
  inst.compute_price.resize(horizon);
  for (auto& p : inst.compute_price) p = rng.uniform(0.05, 0.9);
  inst.initial_storage = initial_storage;
  return inst;
}

/// One MILP solve: the model, its options and what the options borrow.
struct MilpCase {
  std::string label;
  milp::Model model;
  milp::BnbOptions options;
  std::unique_ptr<milp::LotSizingCutGenerator> cuts;
  std::unique_ptr<FaultInjector> injector;
};

/// Fresh cases (re-armed injectors) for every run.  Every jobs=1 solve
/// is deterministic.  The jobs=2 case is a facility-location DRRP whose
/// relaxation is integral, so its tree is the root alone, solved cold
/// from the slack basis by whichever worker takes it: its counts do not
/// depend on the schedule either.
std::vector<MilpCase> milp_cases() {
  std::vector<MilpCase> cases;
  for (std::uint64_t seed = 80; seed < 84; ++seed) {
    MilpCase c;
    c.label = "knapsack " + std::to_string(seed);
    c.model = knapsack(seed);
    cases.push_back(std::move(c));
  }
  {
    MilpCase c;
    c.label = "knapsack 84, one LP failure recovered";
    c.model = knapsack(84);
    c.injector = std::make_unique<FaultInjector>();
    c.injector->arm_lp_failures(1);
    c.options.lp.fault_injector = c.injector.get();
    cases.push_back(std::move(c));
  }
  for (std::uint64_t seed = 90; seed < 92; ++seed) {
    // The aggregated DRRP with root (l,S) cuts, as solve_drrp runs it.
    const core::DrrpInstance inst = drrp_instance(seed, 16, 0.3);
    core::DrrpVariables vars;
    MilpCase c;
    c.label = "drrp with cuts " + std::to_string(seed);
    c.model = core::build_drrp(inst, &vars);
    std::vector<milp::LotSlot> slots(inst.horizon());
    for (std::size_t t = 0; t < inst.horizon(); ++t)
      slots[t] = milp::LotSlot{vars.alpha[t].id, vars.chi[t].id,
                               inst.demand[t]};
    c.cuts = std::make_unique<milp::LotSizingCutGenerator>();
    c.cuts->add_chain(std::move(slots), inst.initial_storage);
    c.options.cut_generator = c.cuts.get();
    cases.push_back(std::move(c));
  }
  {
    MilpCase c;
    c.label = "facility-location drrp, jobs=2";
    c.model = core::build_drrp_facility_location(drrp_instance(71000, 10, 0.0),
                                                 nullptr);
    c.options.jobs = 2;
    cases.push_back(std::move(c));
  }
  return cases;
}

/// Appends every field of `w`, named, to `fields`.
void add_work_fields(Fields& fields, const milp::SolveWork& w) {
  const auto n = [](std::size_t v) { return static_cast<double>(v); };
  fields.insert(fields.end(),
                {{"nodes_explored", n(w.nodes_explored)},
                 {"lp_iterations", n(w.lp_iterations)},
                 {"lp_failures_recovered", n(w.lp_failures_recovered)},
                 {"warm_started_nodes", n(w.warm_started_nodes)},
                 {"cold_solved_nodes", n(w.cold_solved_nodes)},
                 {"cuts_added", n(w.cuts_added)},
                 {"refactorizations", n(w.factor.refactorizations)},
                 {"eta_updates", n(w.factor.eta_updates)},
                 {"fill_ratio_sum", w.factor.fill_ratio_sum}});
}

Fields mip_fields(const milp::MipResult& r) {
  Fields fields = {{"status", static_cast<double>(r.status)},
                   {"objective", r.objective}};
  add_work_fields(fields, r.work);
  return fields;
}

TEST(TelemetryConcurrent, OverlappingMilpSolvesCountOnlyTheirOwnWork) {
  std::vector<milp::MipResult> serial;
  for (MilpCase& c : milp_cases())
    serial.push_back(milp::solve(c.model, c.options));
  // The cases exercise every counter, and the jobs=2 tree is one node.
  ASSERT_EQ(serial.size(), 8u);
  EXPECT_EQ(serial[4].work.lp_failures_recovered, 1u);
  EXPECT_GT(serial[5].work.cuts_added + serial[6].work.cuts_added, 0u);
  EXPECT_EQ(serial[7].work.nodes_explored, 1u);
  for (const milp::MipResult& r : serial) {
    ASSERT_EQ(r.status, milp::MipStatus::Optimal);
    EXPECT_GT(r.work.factor.refactorizations, 0u);
  }

  for (int round = 0; round < kRounds; ++round) {
    std::vector<MilpCase> cases = milp_cases();
    std::vector<milp::MipResult> pooled(cases.size());
    global_pool().parallel_for(cases.size(), [&](std::size_t i) {
      pooled[i] = milp::solve(cases[i].model, cases[i].options);
    });
    for (std::size_t i = 0; i < cases.size(); ++i)
      expect_same_fields(mip_fields(pooled[i]), mip_fields(serial[i]),
                         cases[i].label + ", round " + std::to_string(round));
  }
}

// ---------------------------------------------------------------------------
// Rolling-horizon simulations.
// ---------------------------------------------------------------------------

constexpr std::size_t kHorizon = 24;

core::SimulationInputs sim_inputs(std::uint64_t seed) {
  const auto trace = market::generate_trace(market::VmClass::C1Medium, seed);
  const auto hourly = trace.hourly();
  const std::size_t history_hours = 240;
  core::SimulationInputs in;
  in.vm = market::VmClass::C1Medium;
  in.history.assign(hourly.begin(),
                    hourly.begin() + static_cast<long>(history_hours));
  in.actual_spot.assign(
      hourly.begin() + static_cast<long>(history_hours),
      hourly.begin() + static_cast<long>(history_hours + kHorizon));
  Rng rng(seed ^ 0xabcdefULL);
  in.demand = core::generate_demand(kHorizon, core::DemandConfig{}, rng);
  return in;
}

struct SimCase {
  std::string label;
  core::SimulationInputs inputs;
  core::PolicyConfig policy;
  std::unique_ptr<FaultInjector> injector;
};

std::vector<SimCase> sim_cases() {
  std::vector<SimCase> cases;
  const auto add = [&](std::string label, std::uint64_t seed,
                       core::PolicyConfig policy) -> SimCase& {
    SimCase c;
    c.label = std::move(label);
    c.inputs = sim_inputs(seed);
    c.policy = std::move(policy);
    cases.push_back(std::move(c));
    return cases.back();
  };
  {
    // Timeouts at even slots, numerical failures at odd ones: every
    // re-plan degrades, to a fresh heuristic plan or the last one's tail.
    SimCase& c = add("sto-exp-mean, fault every slot", 11,
                     core::sto_exp_mean_policy());
    c.injector = std::make_unique<FaultInjector>(7);
    for (std::size_t t = 0; t < kHorizon; ++t) {
      if (t % 2 == 0)
        c.injector->inject_solver_timeout(t);
      else
        c.injector->inject_solver_numerical_failure(t);
    }
  }
  {
    SimCase& c = add("det-exp-mean, faults and revocations", 12,
                     core::det_exp_mean_policy());
    c.injector = std::make_unique<FaultInjector>(9);
    for (std::size_t t = 1; t < kHorizon; t += 3)
      c.injector->inject_solver_timeout(t);
    c.injector->schedule_revocations(kHorizon, 0.3, 0.1);
  }
  {
    core::PolicyConfig milp = core::det_exp_mean_policy();
    milp.backend = core::PlannerBackend::Milp;
    SimCase& c = add("det-exp-mean on MILP, timeouts", 13, milp);
    c.injector = std::make_unique<FaultInjector>(5);
    for (std::size_t t = 0; t < kHorizon; t += 5)
      c.injector->inject_solver_timeout(t);
  }
  {
    core::PolicyConfig milp = core::det_exp_mean_policy();
    milp.backend = core::PlannerBackend::Milp;
    add("det-exp-mean on MILP", 14, milp);
  }
  add("sto-exp-mean", 15, core::sto_exp_mean_policy());
  {
    SimCase& c = add("sto-exp-mean, numerical failures", 16,
                     core::sto_exp_mean_policy());
    c.injector = std::make_unique<FaultInjector>(3);
    for (std::size_t t = 0; t < kHorizon; t += 2)
      c.injector->inject_solver_numerical_failure(t);
  }
  return cases;
}

Fields sim_fields(const core::SimulationResult& r) {
  using core::FallbackAction;
  using core::FallbackReason;
  using core::RevocationRecovery;
  using market::RevocationKind;
  const auto n = [](std::size_t v) { return static_cast<double>(v); };
  Fields fields = {
      {"total_cost", r.total_cost()},
      {"out_of_bid_events", n(r.out_of_bid_events())},
      {"rentals", n(r.rentals())},
      {"fallbacks", n(r.fallbacks.size())},
      {"price_faults", n(r.price_faults.size())},
      {"replan_timeouts", n(r.count(FallbackReason::SolverTimeout))},
      {"replan_numerical_failures",
       n(r.count(FallbackReason::NumericalFailure))},
      {"replans_rejected", n(r.count(FallbackReason::PlanRejected))},
      {"fallback_reused_tail", n(r.count(FallbackAction::ReusedPlanTail))},
      {"fallback_heuristic", n(r.count(FallbackAction::HeuristicPlan))},
      {"fallback_on_demand", n(r.count(FallbackAction::OnDemand))},
      {"replans", n(r.replan_seconds.size())},
      {"model_refreshes", n(r.model_refreshes)},
      {"sarima_refits_kept", n(r.sarima_refits_kept)},
      {"sarima_warm_refits", n(r.sarima_warm_refits)},
      {"sarima_scratch_refits", n(r.sarima_scratch_refits)},
      {"tree_repairs", n(r.tree_repairs)},
      {"tree_rebuilds", n(r.tree_rebuilds)},
      {"revocations", n(r.revocations.size())},
      {"migrations", n(r.migrations.size())},
      {"revoked_bid_cross", n(r.count(RevocationKind::BidCross))},
      {"revoked_hazard", n(r.count(RevocationKind::Hazard))},
      {"revoked_storm", n(r.count(RevocationKind::Storm))},
      {"recovered_spot", n(r.count(RevocationRecovery::ReacquiredSpot))},
      {"recovered_migration", n(r.count(RevocationRecovery::MigratedType))},
      {"recovered_on_demand",
       n(r.count(RevocationRecovery::OnDemandBackstop))}};
  add_work_fields(fields, r.solver);
  return fields;
}

TEST(TelemetryConcurrent, OverlappingSimulationsCountOnlyTheirOwnWork) {
  std::vector<core::SimulationResult> serial;
  for (SimCase& c : sim_cases())
    serial.push_back(
        core::simulate_policy(c.inputs, c.policy, c.injector.get()));
  // The faulted runs degrade, and the MILP runs count solver work.
  ASSERT_EQ(serial.size(), 6u);
  using core::FallbackAction;
  using core::FallbackReason;
  EXPECT_EQ(serial[0].count(FallbackReason::SolverTimeout), kHorizon / 2);
  EXPECT_EQ(serial[0].count(FallbackReason::NumericalFailure), kHorizon / 2);
  EXPECT_GT(serial[1].count(FallbackReason::SolverTimeout), 0u);
  EXPECT_GT(serial[2].count(FallbackAction::HeuristicPlan) +
                serial[2].count(FallbackAction::ReusedPlanTail),
            0u);
  EXPECT_GT(serial[3].solver.nodes_explored, 0u);
  EXPECT_EQ(serial[3].degraded_replans(), 0u);

  for (int round = 0; round < kRounds; ++round) {
    std::vector<SimCase> cases = sim_cases();
    std::vector<core::SimulationResult> pooled(cases.size());
    global_pool().parallel_for(cases.size(), [&](std::size_t i) {
      pooled[i] = core::simulate_policy(cases[i].inputs, cases[i].policy,
                                        cases[i].injector.get());
    });
    for (std::size_t i = 0; i < cases.size(); ++i)
      expect_same_fields(sim_fields(pooled[i]), sim_fields(serial[i]),
                         cases[i].label + ", round " + std::to_string(round));
  }
}

}  // namespace
