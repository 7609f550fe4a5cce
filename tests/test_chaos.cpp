// Chaos suite (ISSUE 2): inject solver and price-feed faults at every
// slot of a 24-slot horizon, across every policy variant, and prove the
// rolling-horizon simulation always finishes with inventory-balanced
// plans and degradation telemetry that matches the injection schedule
// exactly.  `ctest -R Chaos` runs just this suite (the CI chaos job).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/deadline.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "core/demand.hpp"
#include "core/policies.hpp"
#include "core/rolling_horizon.hpp"
#include "market/revocation.hpp"
#include "market/trace_generator.hpp"
#include "obs/registry.hpp"

namespace {

using namespace rrp::core;
using rrp::market::VmClass;
using rrp::testing::FaultInjector;
using rrp::testing::PriceFaultKind;

constexpr std::size_t kHorizon = 24;

SimulationInputs chaos_inputs(std::uint64_t seed = 11) {
  const auto trace = rrp::market::generate_trace(VmClass::C1Medium, seed);
  const auto hourly = trace.hourly();
  const std::size_t history_hours = 240;  // short fit, fast chaos runs
  SimulationInputs in;
  in.vm = VmClass::C1Medium;
  in.history.assign(hourly.begin(),
                    hourly.begin() + static_cast<long>(history_hours));
  in.actual_spot.assign(
      hourly.begin() + static_cast<long>(history_hours),
      hourly.begin() + static_cast<long>(history_hours + kHorizon));
  rrp::Rng rng(seed ^ 0xabcdefULL);
  in.demand = generate_demand(kHorizon, DemandConfig{}, rng);
  return in;
}

std::vector<PolicyConfig> all_policies() {
  std::vector<PolicyConfig> policies = figure12a_policies();
  policies.push_back(no_plan_policy());
  policies.push_back(oracle_policy());
  policies.push_back(sto_markov_policy());
  return policies;
}

// Replays the executed slots against the inputs: inventory must balance
// (never negative, matches the per-slot record) and the realised compute
// cost must equal the sum of settled prices.
void expect_inventory_balanced(const SimulationInputs& in,
                               const SimulationResult& r) {
  ASSERT_EQ(r.slots.size(), in.horizon());
  double store = in.initial_storage;
  double compute = 0.0;
  std::size_t rentals = 0;
  for (std::size_t t = 0; t < r.slots.size(); ++t) {
    const SlotRecord& rec = r.slots[t];
    EXPECT_GE(rec.alpha, 0.0) << "slot " << t;
    store += rec.alpha - in.demand[t];
    EXPECT_GT(store, -1e-6) << "unserved demand at slot " << t;
    store = std::max(store, 0.0);
    EXPECT_NEAR(rec.inventory, store, 1e-9) << "slot " << t;
    if (rec.rented) {
      EXPECT_GT(rec.price_paid, 0.0) << "slot " << t;
      compute += rec.price_paid;
      ++rentals;
    } else {
      EXPECT_EQ(rec.price_paid, 0.0) << "slot " << t;
    }
  }
  EXPECT_NEAR(r.cost.compute, compute, 1e-9);
  EXPECT_EQ(r.rentals(), rentals);
  EXPECT_TRUE(std::isfinite(r.total_cost()));
}

TEST(Chaos, SolverFaultAtEverySlotEveryPolicyCompletes) {
  const SimulationInputs in = chaos_inputs();
  // Timeouts at even slots, synthetic numerical failures at odd ones.
  FaultInjector inj(7);
  for (std::size_t t = 0; t < kHorizon; ++t) {
    if (t % 2 == 0)
      inj.inject_solver_timeout(t);
    else
      inj.inject_solver_numerical_failure(t);
  }

  for (const PolicyConfig& policy : all_policies()) {
    SCOPED_TRACE(policy.name);
    const SimulationResult r = simulate_policy(in, policy, &inj);
    expect_inventory_balanced(in, r);
    EXPECT_TRUE(r.price_faults.empty());

    if (policy.planner == PlannerKind::NoPlan) {
      // Never re-plans, so the schedule is never consulted.
      EXPECT_EQ(r.fallbacks.size(), 0u);
      continue;
    }

    // Every slot attempts a re-plan (replan_every == 1) and every
    // attempt hits an injected fault: exactly one FallbackEvent per
    // slot, reasons matching the parity of the schedule.
    ASSERT_EQ(r.fallbacks.size(), kHorizon);
    EXPECT_EQ(r.count(FallbackReason::SolverTimeout), kHorizon / 2);
    EXPECT_EQ(r.count(FallbackReason::NumericalFailure), kHorizon / 2);
    EXPECT_EQ(r.count(FallbackReason::PlanRejected), 0u);
    for (std::size_t t = 0; t < kHorizon; ++t) {
      const FallbackEvent& ev = r.fallbacks[t];
      EXPECT_EQ(ev.slot, t);
      EXPECT_EQ(ev.reason, t % 2 == 0 ? FallbackReason::SolverTimeout
                                      : FallbackReason::NumericalFailure);
    }

    // The ladder: a fresh Wagner-Whitin plan whenever the previous one
    // is exhausted (every `lookahead` slots), its tail reused otherwise;
    // the on-demand rung is never needed.
    const std::size_t heuristic_plans = kHorizon / policy.lookahead;
    EXPECT_EQ(r.count(FallbackAction::HeuristicPlan), heuristic_plans);
    EXPECT_EQ(r.count(FallbackAction::ReusedPlanTail),
              kHorizon - heuristic_plans);
    EXPECT_EQ(r.count(FallbackAction::OnDemand), 0u);
    for (const FallbackEvent& ev : r.fallbacks) {
      const bool exhausted = ev.slot % policy.lookahead == 0;
      EXPECT_EQ(ev.action, exhausted ? FallbackAction::HeuristicPlan
                                     : FallbackAction::ReusedPlanTail)
          << "slot " << ev.slot;
    }
  }
}

TEST(Chaos, PriceFeedFaultAtEverySlotIsSanitized) {
  const SimulationInputs in = chaos_inputs();
  const double lambda =
      rrp::market::info(in.vm).on_demand_hourly;
  FaultInjector inj(13);
  for (std::size_t t = 0; t < kHorizon; ++t) {
    switch (t % 4) {
      case 0: inj.inject_price_gap(t); break;
      case 1: inj.inject_price_nan(t); break;
      case 2: inj.inject_price_spike(t, 1000.0); break;
      default: inj.inject_price_delay(t); break;
    }
  }

  for (const PolicyConfig& policy : all_policies()) {
    SCOPED_TRACE(policy.name);
    const SimulationResult r = simulate_policy(in, policy, &inj);
    expect_inventory_balanced(in, r);
    // Feed faults alone never degrade planning.
    EXPECT_EQ(r.fallbacks.size(), 0u);

    // One telemetry record per faulted tick, in slot order.
    ASSERT_EQ(r.price_faults.size(), kHorizon);
    for (std::size_t t = 0; t < kHorizon; ++t) {
      const PriceFeedEvent& ev = r.price_faults[t];
      EXPECT_EQ(ev.slot, t);
      switch (t % 4) {
        case 0:
          EXPECT_EQ(ev.kind, PriceFaultKind::Gap);
          EXPECT_TRUE(std::isnan(ev.raw));
          break;
        case 1:
          EXPECT_EQ(ev.kind, PriceFaultKind::Nan);
          EXPECT_TRUE(std::isnan(ev.raw));
          break;
        case 2:
          EXPECT_EQ(ev.kind, PriceFaultKind::Spike);
          EXPECT_NEAR(ev.raw, in.actual_spot[t] * 1000.0, 1e-9);
          break;
        default:
          EXPECT_EQ(ev.kind, PriceFaultKind::Delayed);
          EXPECT_TRUE(std::isfinite(ev.raw));
          break;
      }
      // Whatever arrived, the models only ever see a plausible price.
      EXPECT_TRUE(std::isfinite(ev.used));
      EXPECT_GT(ev.used, 0.0);
      EXPECT_LE(ev.used, 10.0 * lambda);
    }
  }
}

TEST(Chaos, CombinedSolverAndPriceFaultsEverySlot) {
  const SimulationInputs in = chaos_inputs();
  FaultInjector inj(17);
  for (std::size_t t = 0; t < kHorizon; ++t) {
    if (t % 3 == 0)
      inj.inject_solver_numerical_failure(t);
    else
      inj.inject_solver_timeout(t);
    inj.inject_price_spike(t);  // seeded outlier factor in [20, 100]
  }

  for (const PolicyConfig& policy : all_policies()) {
    SCOPED_TRACE(policy.name);
    const SimulationResult r = simulate_policy(in, policy, &inj);
    expect_inventory_balanced(in, r);
    ASSERT_EQ(r.price_faults.size(), kHorizon);
    if (policy.planner == PlannerKind::NoPlan) continue;
    ASSERT_EQ(r.fallbacks.size(), kHorizon);
    EXPECT_EQ(r.count(FallbackReason::NumericalFailure), (kHorizon + 2) / 3);
    EXPECT_EQ(r.count(FallbackReason::SolverTimeout),
              kHorizon - (kHorizon + 2) / 3);
  }
}

TEST(Chaos, RealDeadlinePathDegradesOnMilpBackend) {
  // Exercises the production deadline plumbing (not the injector): a
  // fake clock advancing one second per poll expires the tiny re-plan
  // budget at every solve entry, so every re-plan times out and the
  // ladder serves all 24 slots.
  const SimulationInputs in = chaos_inputs();
  rrp::common::FakeClock clock;
  clock.set_auto_advance(1.0);
  PolicyConfig policy = det_exp_mean_policy();
  policy.backend = PlannerBackend::Milp;
  policy.replan_time_limit = 0.5;
  policy.clock = &clock;

  const SimulationResult r = simulate_policy(in, policy);
  expect_inventory_balanced(in, r);
  ASSERT_EQ(r.fallbacks.size(), kHorizon);
  EXPECT_EQ(r.count(FallbackReason::SolverTimeout), kHorizon);
  EXPECT_EQ(r.count(FallbackAction::HeuristicPlan), 1u);  // slot 0 fresh
  EXPECT_EQ(r.count(FallbackAction::ReusedPlanTail), kHorizon - 1);
  for (const FallbackEvent& ev : r.fallbacks)
    EXPECT_EQ(ev.reason, FallbackReason::SolverTimeout);
  EXPECT_GT(clock.reads(), 0u);
}

TEST(Chaos, GenerousDeadlineMatchesUnlimitedRun) {
  const SimulationInputs in = chaos_inputs();
  PolicyConfig limited = det_exp_mean_policy();
  limited.replan_time_limit = 3600.0;
  const SimulationResult a = simulate_policy(in, limited);
  const SimulationResult b = simulate_policy(in, det_exp_mean_policy());
  EXPECT_DOUBLE_EQ(a.total_cost(), b.total_cost());
  EXPECT_EQ(a.fallbacks.size(), 0u);
}

TEST(Chaos, FaultedRunsAreDeterministic) {
  const SimulationInputs in = chaos_inputs();
  for (int pass = 0; pass < 2; ++pass) {
    FaultInjector a(23), b(23);
    for (std::size_t t = 0; t < kHorizon; t += 2) {
      a.inject_solver_timeout(t);
      b.inject_solver_timeout(t);
      a.inject_price_spike(t + 1);
      b.inject_price_spike(t + 1);
    }
    const PolicyConfig policy = sto_exp_mean_policy();
    const SimulationResult ra = simulate_policy(in, policy, &a);
    const SimulationResult rb = simulate_policy(in, policy, &b);
    EXPECT_DOUBLE_EQ(ra.total_cost(), rb.total_cost());
    ASSERT_EQ(ra.fallbacks.size(), rb.fallbacks.size());
    ASSERT_EQ(ra.price_faults.size(), rb.price_faults.size());
    for (std::size_t i = 0; i < ra.price_faults.size(); ++i)
      EXPECT_DOUBLE_EQ(ra.price_faults[i].used, rb.price_faults[i].used);
  }
}

TEST(Chaos, SingleSlotFaultOnlyDegradesThatSlot) {
  const SimulationInputs in = chaos_inputs();
  FaultInjector inj;
  inj.inject_solver_timeout(5);
  const PolicyConfig policy = det_exp_mean_policy();
  const SimulationResult r = simulate_policy(in, policy, &inj);
  expect_inventory_balanced(in, r);
  ASSERT_EQ(r.fallbacks.size(), 1u);
  EXPECT_EQ(r.fallbacks[0].slot, 5u);
  EXPECT_EQ(r.fallbacks[0].reason, FallbackReason::SolverTimeout);
  // Slot 4's fresh plan still covers slot 5.
  EXPECT_EQ(r.fallbacks[0].action, FallbackAction::ReusedPlanTail);
  EXPECT_EQ(r.count(FallbackReason::SolverTimeout), 1u);
}

// The process-wide scrape and the result count the same events: each
// rrp.rh.* counter moves by the result's count over its event log, and
// each rrp.bnb.* counter by the result's summed solver work.  One MILP
// simulation carries every fault kind, so no counter is trivially zero.
TEST(Chaos, RegistryCountersMatchTheResult) {
  SimulationInputs in = chaos_inputs();
  in.revocation = rrp::market::RevocationConfig::storm();
  in.revocation.seed = 4;
  FaultInjector inj(29);
  for (std::size_t t = 1; t < kHorizon; t += 6) {
    inj.inject_solver_timeout(t);
    inj.inject_solver_numerical_failure(t + 2);
  }
  for (std::size_t t = 0; t < kHorizon; t += 5) inj.inject_price_gap(t);
  inj.arm_lp_failures(1);  // one node LP recovered by the ladder
  PolicyConfig policy = sto_exp_mean_policy();
  policy.backend = PlannerBackend::Milp;
  policy.solver.lp.fault_injector = &inj;

  const auto& registry = rrp::obs::global_registry();
  const rrp::obs::MetricsSnapshot before = registry.scrape();
  const SimulationResult r = simulate_policy(in, policy, &inj);
  const rrp::obs::MetricsSnapshot after = registry.scrape();
  const auto delta = [&](const char* name) {
    return static_cast<std::size_t>(after.counter(name) -
                                    before.counter(name));
  };

  ASSERT_GT(r.count(FallbackReason::SolverTimeout), 0u);
  ASSERT_GT(r.count(FallbackReason::NumericalFailure), 0u);
  ASSERT_GT(r.revocations.size(), 0u);
  ASSERT_GT(r.price_faults.size(), 0u);
  ASSERT_GT(r.solver.nodes_explored, 0u);
  ASSERT_GT(r.solver.lp_failures_recovered, 0u);

  EXPECT_EQ(delta("rrp.rh.replans"), r.replan_seconds.size());
  EXPECT_EQ(delta("rrp.rh.replan_timeouts"),
            r.count(FallbackReason::SolverTimeout));
  EXPECT_EQ(delta("rrp.rh.replan_numerical_failures"),
            r.count(FallbackReason::NumericalFailure));
  EXPECT_EQ(delta("rrp.rh.replans_rejected"),
            r.count(FallbackReason::PlanRejected));
  EXPECT_EQ(delta("rrp.rh.fallback_reused_tail"),
            r.count(FallbackAction::ReusedPlanTail));
  EXPECT_EQ(delta("rrp.rh.fallback_heuristic"),
            r.count(FallbackAction::HeuristicPlan));
  EXPECT_EQ(delta("rrp.rh.fallback_on_demand"),
            r.count(FallbackAction::OnDemand));
  EXPECT_EQ(delta("rrp.rh.revocations"), r.revocations.size());
  EXPECT_EQ(delta("rrp.rh.price_faults"), r.price_faults.size());

  EXPECT_EQ(delta("rrp.bnb.nodes"), r.solver.nodes_explored);
  EXPECT_EQ(delta("rrp.bnb.lp_iterations"), r.solver.lp_iterations);
  EXPECT_EQ(delta("rrp.bnb.lp_recoveries"), r.solver.lp_failures_recovered);
  EXPECT_EQ(delta("rrp.bnb.warm_nodes"), r.solver.warm_started_nodes);
  EXPECT_EQ(delta("rrp.bnb.cold_nodes"), r.solver.cold_solved_nodes);
  EXPECT_EQ(delta("rrp.bnb.cuts_added"), r.solver.cuts_added);
}

}  // namespace
