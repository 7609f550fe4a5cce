// Revocation-storm chaos suite (ISSUE 7): arm revocations and storms on
// every policy variant — injector-scheduled, model-drawn, and both at
// once on top of solver faults — and prove the simulation always
// completes with balanced inventory, finite costs, and revocation
// telemetry that matches the events exactly.  Runs under the CI chaos
// job (`ctest -R "Chaos|...|Revocation|Storm"`); the nightly long-chaos
// workflow widens the seed sweep via RRP_LONG_CHAOS_SEEDS.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "core/demand.hpp"
#include "core/policies.hpp"
#include "core/rolling_horizon.hpp"
#include "market/revocation.hpp"
#include "market/trace_generator.hpp"

namespace {

using namespace rrp::core;
using rrp::market::RevocationConfig;
using rrp::market::RevocationKind;
using rrp::market::VmClass;
using rrp::testing::FaultInjector;

constexpr std::size_t kHorizon = 24;

std::size_t sweep_seeds() {
  // Default small for developer runs; the nightly long-chaos workflow
  // exports RRP_LONG_CHAOS_SEEDS=32.
  if (const char* env = std::getenv("RRP_LONG_CHAOS_SEEDS")) {
    const long n = std::atol(env);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 4;
}

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
  in.intra_slot_max = trace.hourly_max(
      static_cast<long>(history_hours),
      static_cast<long>(history_hours + kHorizon));
  return in;
}

/// SARIMA-free policies: the sweep multiplies seeds x policies, so keep
/// each run in the milliseconds.
std::vector<PolicyConfig> sweep_policies() {
  return interruption_policies();
}

void expect_inventory_balanced(const SimulationInputs& in,
                               const SimulationResult& r) {
  ASSERT_EQ(r.slots.size(), in.horizon());
  double store = in.initial_storage;
  double compute = 0.0;
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
    } else {
      EXPECT_EQ(rec.price_paid, 0.0) << "slot " << t;
    }
  }
  EXPECT_NEAR(r.cost.compute, compute, 1e-9);
  EXPECT_TRUE(std::isfinite(r.total_cost()));
  EXPECT_FALSE(std::isnan(r.cost.interruption));
}

void expect_revocation_telemetry_consistent(const SimulationResult& r) {
  EXPECT_EQ(r.count(RevocationRecovery::MigratedType), r.migrations.size());
  for (const RevocationEvent& ev : r.revocations) {
    ASSERT_LT(ev.slot, r.slots.size());
    EXPECT_TRUE(r.slots[ev.slot].revoked) << "slot " << ev.slot;
    EXPECT_TRUE(r.slots[ev.slot].rented) << "slot " << ev.slot;
    EXPECT_TRUE(r.slots[ev.slot].spot) << "slot " << ev.slot;
    EXPECT_GT(ev.fraction, 0.0);
    EXPECT_LT(ev.fraction, 1.0);
    EXPECT_GE(ev.lost_work, 0.0);
    EXPECT_LE(ev.lost_work, ev.fraction + 1e-12);
  }
  EXPECT_GE(r.cost.interruption, 0.0);
  EXPECT_GE(r.checkpoint_overhead_cost, 0.0);
  // Slots never revoke without a held spot instance.
  std::size_t revoked_slots = 0;
  for (const SlotRecord& rec : r.slots)
    if (rec.revoked) ++revoked_slots;
  EXPECT_EQ(revoked_slots, r.revocations.size());
}

TEST(RevocationStormChaos, InjectorStormSchedulesNeverBreakInvariants) {
  const std::size_t seeds = sweep_seeds();
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    const SimulationInputs in = chaos_inputs(100 + seed);
    FaultInjector inj(seed);
    // Hostile far beyond any plausible market: half of all slots armed,
    // a third of those correlated storms.
    inj.schedule_revocations(kHorizon, 0.5, 0.3);
    for (const PolicyConfig& policy : sweep_policies()) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + policy.name);
      const SimulationResult r = simulate_policy(in, policy, &inj);
      expect_inventory_balanced(in, r);
      expect_revocation_telemetry_consistent(r);
    }
  }
}

TEST(RevocationStormChaos, ModelStormRegimesNeverBreakInvariants) {
  const std::size_t seeds = sweep_seeds();
  for (std::size_t seed = 0; seed < seeds; ++seed) {
    SimulationInputs in = chaos_inputs(200 + seed);
    in.revocation = RevocationConfig::storm();
    in.revocation.hazard_per_slot = 0.3;  // crank well past the regime
    in.revocation.storm_rate = 0.3;
    in.revocation.seed = seed;
    for (const PolicyConfig& policy : sweep_policies()) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " " + policy.name);
      const SimulationResult r = simulate_policy(in, policy);
      expect_inventory_balanced(in, r);
      expect_revocation_telemetry_consistent(r);
    }
  }
}

TEST(RevocationStormChaos, SolverFaultsPlusStormsCompose) {
  SimulationInputs in = chaos_inputs(31);
  in.revocation = RevocationConfig::storm();
  in.revocation.seed = 5;
  FaultInjector inj(9);
  for (std::size_t t = 0; t < kHorizon; t += 2) inj.inject_solver_timeout(t);
  inj.schedule_revocations(kHorizon, 0.4, 0.5);
  for (const PolicyConfig& policy : sweep_policies()) {
    SCOPED_TRACE(policy.name);
    const SimulationResult r = simulate_policy(in, policy, &inj);
    expect_inventory_balanced(in, r);
    expect_revocation_telemetry_consistent(r);
  }
}

// Regression (ISSUE 7 satellite): a solver timeout and a revocation at
// the SAME slot must emit exactly one FallbackEvent for the failed
// re-plan and exactly one RevocationEvent for the interruption — the
// coinciding faults never double-count either stream.
TEST(RevocationChaos, CoincidentTimeoutAndRevocationCountOnce) {
  const SimulationInputs in = chaos_inputs(42);
  // Oracle bids always win, so slot 0 certainly holds a spot instance
  // (zero initial storage forces chi[0] = 1) and the armed revocation
  // certainly fires.
  const PolicyConfig policy = oracle_policy();

  FaultInjector inj(3);
  inj.inject_solver_timeout(0);
  inj.inject_revocation(0, 0.6);

  const SimulationResult r = simulate_policy(in, policy, &inj);
  expect_inventory_balanced(in, r);
  expect_revocation_telemetry_consistent(r);

  std::size_t fallbacks_at_0 = 0;
  for (const FallbackEvent& ev : r.fallbacks)
    if (ev.slot == 0) ++fallbacks_at_0;
  EXPECT_EQ(fallbacks_at_0, 1u);
  EXPECT_EQ(r.count(FallbackReason::SolverTimeout), 1u);

  ASSERT_EQ(r.revocations.size(), 1u);
  EXPECT_EQ(r.revocations[0].slot, 0u);
  EXPECT_EQ(r.revocations[0].kind, RevocationKind::Hazard);
  EXPECT_DOUBLE_EQ(r.revocations[0].fraction, 0.6);
}

// Same seed => identical revocation timeline, run after run.
TEST(RevocationChaos, ModelTimelineDeterministicAcrossRuns) {
  SimulationInputs in = chaos_inputs(77);
  in.revocation = RevocationConfig::storm();
  in.revocation.hazard_per_slot = 0.8;  // enough held-slot hits to compare
  in.revocation.storm_rate = 0.3;
  in.revocation.seed = 13;
  // Oracle always wins its auctions, so spot instances are certainly
  // held (an expected-mean bid can lose every auction in a hot window,
  // leaving nothing to revoke).
  const PolicyConfig policy = oracle_policy();
  const SimulationResult a = simulate_policy(in, policy);
  const SimulationResult b = simulate_policy(in, policy);
  ASSERT_EQ(a.revocations.size(), b.revocations.size());
  EXPECT_GT(a.revocations.size(), 0u);
  for (std::size_t i = 0; i < a.revocations.size(); ++i) {
    EXPECT_EQ(a.revocations[i].slot, b.revocations[i].slot);
    EXPECT_EQ(a.revocations[i].kind, b.revocations[i].kind);
    EXPECT_DOUBLE_EQ(a.revocations[i].fraction, b.revocations[i].fraction);
    EXPECT_EQ(a.revocations[i].recovery, b.revocations[i].recovery);
  }
  EXPECT_DOUBLE_EQ(a.total_cost(), b.total_cost());
}

// Same injector schedule => identical revocation timeline regardless of
// the branch & bound worker count (the --jobs knob must not leak into
// fault consumption).
TEST(RevocationChaos, InjectorTimelineIdenticalAcrossJobCounts) {
  const SimulationInputs in = chaos_inputs(55);
  FaultInjector inj(21);
  inj.schedule_revocations(kHorizon, 0.5, 0.4);

  std::vector<SimulationResult> results;
  for (std::size_t jobs : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    PolicyConfig policy = det_exp_mean_policy();
    policy.backend = PlannerBackend::Milp;
    policy.solver.jobs = jobs;
    results.push_back(simulate_policy(in, policy, &inj));
  }
  for (std::size_t j = 1; j < results.size(); ++j) {
    ASSERT_EQ(results[0].revocations.size(), results[j].revocations.size());
    for (std::size_t i = 0; i < results[0].revocations.size(); ++i) {
      EXPECT_EQ(results[0].revocations[i].slot,
                results[j].revocations[i].slot);
      EXPECT_EQ(results[0].revocations[i].kind,
                results[j].revocations[i].kind);
      EXPECT_DOUBLE_EQ(results[0].revocations[i].fraction,
                       results[j].revocations[i].fraction);
    }
    EXPECT_NEAR(results[0].total_cost(), results[j].total_cost(), 1e-9);
  }
  EXPECT_GT(results[0].revocations.size(), 0u);
}

// The ladder's rungs respond to the config: hazards re-acquire spot
// when allowed, storms migrate, and with both rungs off everything
// lands on the on-demand backstop.
TEST(RevocationChaos, RecoveryLadderRespectsConfig) {
  SimulationInputs in = chaos_inputs(88);
  in.revocation = RevocationConfig::bid_crossing();
  in.revocation.hazard_per_slot = 1.0;  // revoke every held slot
  in.revocation.seed = 2;

  const PolicyConfig policy = det_exp_mean_policy();

  const SimulationResult spot = simulate_policy(in, policy);
  EXPECT_GT(spot.revocations.size(), 0u);
  EXPECT_EQ(spot.count(RevocationRecovery::MigratedType) +
                spot.count(RevocationRecovery::OnDemandBackstop),
            spot.count(RevocationKind::BidCross) +
                spot.count(RevocationKind::Storm))
      << "hazards must re-acquire spot while allowed";

  in.revocation.allow_spot_reacquire = false;
  const SimulationResult migrate = simulate_policy(in, policy);
  EXPECT_EQ(migrate.count(RevocationRecovery::ReacquiredSpot), 0u);
  EXPECT_EQ(migrate.migrations.size(),
            migrate.count(RevocationRecovery::MigratedType));
  EXPECT_GT(migrate.count(RevocationRecovery::MigratedType), 0u);

  in.revocation.allow_migration = false;
  const SimulationResult backstop = simulate_policy(in, policy);
  EXPECT_EQ(backstop.count(RevocationRecovery::ReacquiredSpot), 0u);
  EXPECT_EQ(backstop.count(RevocationRecovery::MigratedType), 0u);
  EXPECT_EQ(backstop.count(RevocationRecovery::OnDemandBackstop),
            backstop.revocations.size());
  for (const auto& r : {spot, migrate, backstop}) {
    expect_inventory_balanced(in, r);
    expect_revocation_telemetry_consistent(r);
  }
}

// With the layer disabled and no injector, results are bit-identical to
// the pre-revocation simulator: zero events, zero interruption cost.
TEST(RevocationChaos, DisabledLayerIsInert) {
  const SimulationInputs in = chaos_inputs(66);
  for (const PolicyConfig& policy : sweep_policies()) {
    SCOPED_TRACE(policy.name);
    const SimulationResult r = simulate_policy(in, policy);
    EXPECT_TRUE(r.revocations.empty());
    EXPECT_TRUE(r.migrations.empty());
    EXPECT_EQ(r.work_lost(), 0.0);
    EXPECT_EQ(r.cost.interruption, 0.0);
    EXPECT_EQ(r.checkpoint_overhead_cost, 0.0);
  }
}

}  // namespace
