// Equivalence property suite (ISSUE 10): ReplanMode::Incremental must
// be indistinguishable from ReplanMode::Rebuild.  The incremental path
// maintains its models (sliding distribution, Markov chain, scenario
// tree) with arithmetic bit-identical to the from-scratch path, so for
// policies whose models carry no fitted-optimizer state (ExpectedMean
// bids on the empirical distribution), every plan, slot decision and
// cost must match EXACTLY — not within a tolerance.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/deadline.hpp"
#include "common/fault_injection.hpp"
#include "common/rng.hpp"
#include "core/demand.hpp"
#include "core/policies.hpp"
#include "core/rolling_horizon.hpp"

namespace {

using namespace rrp;
using namespace rrp::core;

/// A random positive price stream: geometric random walk clamped to the
/// paper's plausible spot band, different shape per seed.
SimulationInputs random_inputs(std::uint64_t seed,
                               std::size_t history_hours = 168,
                               std::size_t eval_hours = 24) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  SimulationInputs in;
  double p = rng.uniform(0.2, 0.5);
  auto step = [&]() {
    p *= std::exp(0.08 * rng.normal());
    if (p < 0.05) p = 0.05;
    if (p > 2.0) p = 2.0;
    return p;
  };
  in.history.reserve(history_hours);
  for (std::size_t i = 0; i < history_hours; ++i) in.history.push_back(step());
  in.actual_spot.reserve(eval_hours);
  for (std::size_t i = 0; i < eval_hours; ++i)
    in.actual_spot.push_back(step());
  in.demand = generate_demand(eval_hours, DemandConfig{}, rng);
  return in;
}

void expect_identical(const SimulationResult& a, const SimulationResult& b,
                      const char* label) {
  SCOPED_TRACE(label);
  // Exact equality throughout: the incremental path is bit-identical
  // by construction, so any ulp of drift is a bug.
  EXPECT_EQ(a.total_cost(), b.total_cost());
  EXPECT_EQ(a.rentals(), b.rentals());
  EXPECT_EQ(a.out_of_bid_events(), b.out_of_bid_events());
  // Identical trees give identical MILPs, so the solver work matches too.
  EXPECT_TRUE(a.solver == b.solver)
      << a.solver.nodes_explored << " vs " << b.solver.nodes_explored
      << " nodes, " << a.solver.lp_iterations << " vs "
      << b.solver.lp_iterations << " LP iterations";
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a.slots[i].rented, b.slots[i].rented);
    EXPECT_EQ(a.slots[i].won, b.slots[i].won);
    EXPECT_EQ(a.slots[i].spot, b.slots[i].spot);
    EXPECT_EQ(a.slots[i].bid, b.slots[i].bid);
    EXPECT_EQ(a.slots[i].price_paid, b.slots[i].price_paid);
    EXPECT_EQ(a.slots[i].alpha, b.slots[i].alpha);
    EXPECT_EQ(a.slots[i].inventory, b.slots[i].inventory);
  }
}

SimulationResult run_mode(const SimulationInputs& in, PolicyConfig policy,
                          ReplanMode mode, std::size_t update_every,
                          const rrp::testing::FaultInjector* injector =
                              nullptr) {
  policy.replan_mode = mode;
  policy.model_update_every = update_every;
  return simulate_policy(in, policy, injector);
}

TEST(ReplanEquivalence, PropertyThirtyRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    // Rotate the configuration with the seed so the 30 streams also
    // sweep policy (DRRP / SRRP) and refresh cadence (1 / 4).
    const bool stochastic = seed % 3 == 0;
    const std::size_t update_every = seed % 2 == 0 ? 4 : 1;
    const SimulationInputs in = random_inputs(seed);
    const PolicyConfig policy =
        stochastic ? sto_exp_mean_policy() : det_exp_mean_policy();

    const auto rebuild =
        run_mode(in, policy, ReplanMode::Rebuild, update_every);
    const auto incremental =
        run_mode(in, policy, ReplanMode::Incremental, update_every);

    SCOPED_TRACE(seed);
    expect_identical(rebuild, incremental, policy.name.c_str());
    EXPECT_GT(incremental.model_refreshes, 0u);
    EXPECT_EQ(incremental.model_refreshes, rebuild.model_refreshes);
    if (stochastic) {
      // The incremental runner repaired trees the rebuild runner built
      // from scratch — and still matched exactly.
      EXPECT_GT(incremental.tree_repairs, 0u);
      EXPECT_EQ(rebuild.tree_repairs, 0u);
    }
  }
}

TEST(ReplanEquivalence, IncrementalIsTheDefaultAndClassicPathUnchanged) {
  // model_update_every = 0 (the default) means fit-once-at-start: both
  // modes must then reproduce the exact classic behaviour.
  const SimulationInputs in = random_inputs(77);
  const auto classic = simulate_policy(in, det_exp_mean_policy());
  const auto rebuild = run_mode(in, det_exp_mean_policy(),
                                ReplanMode::Rebuild, 0);
  const auto incremental = run_mode(in, det_exp_mean_policy(),
                                    ReplanMode::Incremental, 0);
  expect_identical(classic, rebuild, "classic-vs-rebuild");
  expect_identical(classic, incremental, "classic-vs-incremental");
  EXPECT_EQ(incremental.model_refreshes, 0u);
}

TEST(ReplanEquivalence, SlidingWindowShorterThanHistory) {
  // fit_window below the history length: the sliding window must track
  // exactly the tail the rebuild path re-extracts every refresh.
  SimulationInputs in = random_inputs(13, /*history_hours=*/240);
  PolicyConfig policy = det_exp_mean_policy();
  policy.fit_window = 96;
  const auto rebuild = run_mode(in, policy, ReplanMode::Rebuild, 1);
  const auto incremental = run_mode(in, policy, ReplanMode::Incremental, 1);
  expect_identical(rebuild, incremental, "short-window");
}

TEST(ReplanEquivalenceChaos, FaultyPriceFeedStaysEquivalent) {
  // A broken telemetry feed (gaps, NaN ticks, spikes, delays) degrades
  // the observed stream identically in both modes: the sanitised `used`
  // value is what feeds the models, so incremental maintenance over the
  // faulted stream must still match the full rebuild over it.
  const SimulationInputs in = random_inputs(4242);
  rrp::testing::FaultInjector faults(2012);
  faults.inject_price_gap(3);
  faults.inject_price_nan(7);
  faults.inject_price_spike(11);
  faults.inject_price_delay(15);
  faults.inject_price_gap(19);
  faults.inject_price_nan(21);

  for (const PolicyConfig& policy :
       {det_exp_mean_policy(), sto_exp_mean_policy()}) {
    const auto rebuild =
        run_mode(in, policy, ReplanMode::Rebuild, 1, &faults);
    const auto incremental =
        run_mode(in, policy, ReplanMode::Incremental, 1, &faults);
    expect_identical(rebuild, incremental, policy.name.c_str());
    EXPECT_EQ(incremental.price_faults.size(), rebuild.price_faults.size());
    EXPECT_GT(incremental.price_faults.size(), 0u);
  }
}

/// Stands still for its first `still_reads` reads, then jumps an hour
/// per read: every re-plan deadline set after the jump expires at the
/// solve's first poll, while the plans made before it stay cached.
class StallingClock final : public rrp::common::Clock {
 public:
  explicit StallingClock(std::uint64_t still_reads) : still_(still_reads) {}
  double now_seconds() const override {
    const std::uint64_t n = reads_++;
    return n < still_ ? 0.0 : 3600.0 * static_cast<double>(n - still_ + 1);
  }
  std::uint64_t reads() const { return reads_; }

 private:
  std::uint64_t still_;
  mutable std::uint64_t reads_ = 0;
};

TEST(ReplanEquivalenceChaos, SolveFailingAfterRepairLeavesTheCacheIntact) {
  // Once the clock jumps, each incremental re-plan repairs a copy of the
  // cached tree and then times out inside the MILP solve.  Rung 1
  // (ReusedPlanTail) then executes the cached tree with the cached
  // policy, which must still be the pair the last good solve produced:
  // the run must match Rebuild mode, which never repairs, exactly.
  const SimulationInputs in = random_inputs(7);
  PolicyConfig policy = sto_exp_mean_policy();
  policy.backend = PlannerBackend::Milp;
  policy.stage_widths = {3, 3};  // a 49-vertex tree keeps the MILP quick
  policy.replan_time_limit = 60.0;
  // Count the deadline reads of a run whose clock never moves...
  StallingClock probe(std::numeric_limits<std::uint64_t>::max());
  policy.clock = &probe;
  const auto unlimited = run_mode(in, policy, ReplanMode::Rebuild, 1);
  ASSERT_EQ(unlimited.fallbacks.size(), 0u);
  // ...and make it jump in the run's last sixth, where the horizon
  // shrinks and each failed re-plan's repair also retires a stage.
  const std::uint64_t still = probe.reads() * 85 / 100;
  StallingClock rebuild_clock(still);
  StallingClock incremental_clock(still);
  policy.clock = &rebuild_clock;
  const auto rebuild = run_mode(in, policy, ReplanMode::Rebuild, 1);
  policy.clock = &incremental_clock;
  const auto incremental = run_mode(in, policy, ReplanMode::Incremental, 1);

  expect_identical(rebuild, incremental, "solve fails after repair");
  EXPECT_GT(incremental.tree_repairs, 0u);
  const auto reused = FallbackAction::ReusedPlanTail;
  const auto timeout = FallbackReason::SolverTimeout;
  EXPECT_GT(incremental.count(reused), 0u);
  EXPECT_EQ(incremental.count(reused), rebuild.count(reused));
  EXPECT_EQ(incremental.count(timeout), rebuild.count(timeout));
  bool reused_after_retire = false;
  for (const FallbackEvent& ev : incremental.fallbacks)
    if (ev.action == FallbackAction::ReusedPlanTail &&
        ev.slot + policy.lookahead > in.horizon())
      reused_after_retire = true;
  EXPECT_TRUE(reused_after_retire);
}

}  // namespace
