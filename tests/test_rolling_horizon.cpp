#include "core/rolling_horizon.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/demand.hpp"
#include "market/trace_generator.hpp"
#include "obs/trace.hpp"

namespace {

using namespace rrp::core;
using rrp::market::VmClass;

SimulationInputs make_inputs(VmClass vm, std::size_t eval_hours,
                             std::uint64_t seed) {
  const auto trace = rrp::market::generate_trace(vm, seed);
  const auto hourly = trace.hourly();
  const std::size_t history_hours = 24 * 60;
  SimulationInputs in;
  in.vm = vm;
  in.history.assign(hourly.begin(),
                    hourly.begin() + static_cast<long>(history_hours));
  in.actual_spot.assign(
      hourly.begin() + static_cast<long>(history_hours),
      hourly.begin() + static_cast<long>(history_hours + eval_hours));
  rrp::Rng rng(seed ^ 0xdeadbeefULL);
  in.demand = generate_demand(eval_hours, DemandConfig{}, rng);
  return in;
}

// Expects a specific substring in the InvalidArgument message, so the
// error actually names the offending field/slot.
template <typename Fn>
void expect_invalid(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected InvalidArgument mentioning \"" << needle << "\"";
  } catch (const rrp::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(RollingHorizon, InputValidation) {
  SimulationInputs in;
  expect_invalid([&] { in.validate(); }, "demand is empty");
  in = make_inputs(VmClass::C1Medium, 12, 1);
  in.actual_spot.pop_back();
  expect_invalid([&] { in.validate(); }, "actual_spot has 11 slots");
}

TEST(RollingHorizon, InputValidationRejectsNaNAndNegatives) {
  const auto good = make_inputs(VmClass::C1Medium, 12, 1);
  EXPECT_NO_THROW(good.validate());

  auto in = good;
  in.demand[3] = std::nan("");
  expect_invalid([&] { in.validate(); }, "demand[3] is NaN");

  in = good;
  in.demand[5] = -0.1;
  expect_invalid([&] { in.validate(); }, "demand[5]");

  in = good;
  in.demand[0] = std::numeric_limits<double>::infinity();
  expect_invalid([&] { in.validate(); }, "demand[0]");

  in = good;
  in.actual_spot[7] = std::nan("");
  expect_invalid([&] { in.validate(); }, "actual_spot[7] is NaN");

  in = good;
  in.actual_spot[2] = 0.0;
  expect_invalid([&] { in.validate(); }, "actual_spot[2]");

  in = good;
  in.history[4] = -1.0;
  expect_invalid([&] { in.validate(); }, "history[4]");

  in = good;
  in.history.clear();
  expect_invalid([&] { in.validate(); }, "history is empty");

  in = good;
  in.initial_storage = std::nan("");
  expect_invalid([&] { in.validate(); }, "initial_storage is NaN");

  in = good;
  in.initial_storage = -1.0;
  expect_invalid([&] { in.validate(); }, "initial_storage");
}

TEST(RollingHorizon, NoPlanRentsEverySlotWithDemand) {
  const auto in = make_inputs(VmClass::C1Medium, 24, 2);
  const auto result = simulate_policy(in, no_plan_policy());
  ASSERT_EQ(result.slots.size(), 24u);
  for (std::size_t t = 0; t < 24; ++t) {
    EXPECT_TRUE(result.slots[t].rented) << "slot " << t;
    EXPECT_NEAR(result.slots[t].alpha, in.demand[t], 1e-9);
    EXPECT_NEAR(result.slots[t].inventory, 0.0, 1e-9);
  }
  EXPECT_EQ(result.rentals(), 24u);
  // On-demand semantics: every slot pays lambda.
  EXPECT_NEAR(result.cost.compute, 24 * 0.2, 1e-9);
}

TEST(RollingHorizon, OracleNeverLosesAndPaysSpot) {
  const auto in = make_inputs(VmClass::M1Large, 24, 3);
  const auto result = simulate_policy(in, oracle_policy());
  EXPECT_EQ(result.out_of_bid_events(), 0u);
  for (const auto& slot : result.slots) {
    if (slot.rented) {
      EXPECT_TRUE(slot.won);
      EXPECT_LT(slot.price_paid, rrp::market::info(VmClass::M1Large)
                                     .on_demand_hourly);
    }
  }
}

TEST(RollingHorizon, OnDemandPolicyAlwaysPaysLambda) {
  const auto in = make_inputs(VmClass::C1Medium, 24, 4);
  const auto result = simulate_policy(in, on_demand_policy());
  for (const auto& slot : result.slots) {
    if (slot.rented) {
      EXPECT_DOUBLE_EQ(slot.price_paid, 0.2);
    }
  }
  EXPECT_EQ(result.out_of_bid_events(), 0u);
}

TEST(RollingHorizon, DemandAlwaysServed) {
  const auto in = make_inputs(VmClass::M1Large, 24, 5);
  for (const auto& policy :
       {no_plan_policy(), on_demand_policy(), det_exp_mean_policy(),
        sto_exp_mean_policy(), oracle_policy()}) {
    const auto result = simulate_policy(in, policy);
    double store = in.initial_storage;
    for (std::size_t t = 0; t < in.horizon(); ++t) {
      store += result.slots[t].alpha - in.demand[t];
      EXPECT_GT(store, -1e-6) << policy.name << " slot " << t;
      store = std::max(store, 0.0);
      EXPECT_NEAR(store, result.slots[t].inventory, 1e-6);
    }
  }
}

TEST(RollingHorizon, IdealCaseLowerBoundsEveryPolicy) {
  const auto in = make_inputs(VmClass::M1Large, 30, 6);
  const double ideal = ideal_case_cost(in);
  for (const auto& policy :
       {no_plan_policy(), on_demand_policy(), det_exp_mean_policy(),
        sto_exp_mean_policy(), oracle_policy()}) {
    const double cost = simulate_policy(in, policy).total_cost();
    EXPECT_GE(cost, ideal - 1e-6) << policy.name;
  }
}

TEST(RollingHorizon, RollingOracleNearlyMatchesIdealCase) {
  // The rolling oracle re-plans hourly with a 24h window of perfect
  // information; it should land within a few percent of the single
  // full-horizon clairvoyant solve.
  const auto in = make_inputs(VmClass::M1Large, 30, 6);
  const double ideal = ideal_case_cost(in);
  const double rolling = simulate_policy(in, oracle_policy()).total_cost();
  EXPECT_GE(rolling, ideal - 1e-6);
  EXPECT_LT(rolling, ideal * 1.15);
}

TEST(RollingHorizon, OnDemandOverpaysMost) {
  // Figure 12(a): the on-demand scheme yields the largest overpay.
  const auto in = make_inputs(VmClass::C1Medium, 36, 7);
  const double ideal = ideal_case_cost(in);
  const double on_demand =
      simulate_policy(in, on_demand_policy()).total_cost();
  const double det = simulate_policy(in, det_exp_mean_policy()).total_cost();
  const double sto = simulate_policy(in, sto_exp_mean_policy()).total_cost();
  EXPECT_GT(overpay_fraction(on_demand, ideal),
            overpay_fraction(det, ideal));
  EXPECT_GT(overpay_fraction(on_demand, ideal),
            overpay_fraction(sto, ideal));
}

TEST(RollingHorizon, PoliciesAreDeterministic) {
  const auto in = make_inputs(VmClass::C1Medium, 24, 8);
  const auto a = simulate_policy(in, det_exp_mean_policy());
  const auto b = simulate_policy(in, det_exp_mean_policy());
  EXPECT_DOUBLE_EQ(a.total_cost(), b.total_cost());
  EXPECT_EQ(a.rentals(), b.rentals());
}

TEST(RollingHorizon, TransferOutConstantAcrossPolicies) {
  const auto in = make_inputs(VmClass::C1Medium, 24, 9);
  const auto a = simulate_policy(in, no_plan_policy());
  const auto b = simulate_policy(in, det_exp_mean_policy());
  EXPECT_NEAR(a.cost.transfer_out, b.cost.transfer_out, 1e-9);
}

TEST(RollingHorizon, OverpayFraction) {
  EXPECT_NEAR(overpay_fraction(12.0, 10.0), 0.2, 1e-12);
  EXPECT_NEAR(overpay_fraction(10.0, 10.0), 0.0, 1e-12);
  EXPECT_THROW(overpay_fraction(1.0, 0.0), rrp::ContractViolation);
}

TEST(RollingHorizon, LowFixedBidForcesOutOfBidEvents) {
  auto in = make_inputs(VmClass::C1Medium, 24, 10);
  PolicyConfig policy = det_exp_mean_policy();
  policy.name = "det-lowball";
  policy.bids = BidStrategy::FixedValue;
  policy.fixed_bid = 1e-3;  // below every realistic spot price
  const auto result = simulate_policy(in, policy);
  // Whenever the planner rents, the lowball bid loses and pays lambda.
  EXPECT_EQ(result.out_of_bid_events(), result.rentals());
  for (const auto& slot : result.slots) {
    if (slot.rented) {
      EXPECT_DOUBLE_EQ(slot.price_paid, 0.2);
    }
  }
}

}  // namespace

// -- Re-plan cadence (paper Section V-D) --------------------------------

namespace {

TEST(ReplanCadence, CadenceOneMatchesOriginalBehaviour) {
  const auto in = make_inputs(VmClass::C1Medium, 24, 20);
  PolicyConfig every_slot = det_exp_mean_policy();
  every_slot.replan_every = 1;
  const auto a = simulate_policy(in, every_slot);
  const auto b = simulate_policy(in, det_exp_mean_policy());
  EXPECT_DOUBLE_EQ(a.total_cost(), b.total_cost());
}

class ReplanCadenceSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReplanCadenceSweep, DemandServedAtEveryCadence) {
  const auto in = make_inputs(VmClass::M1Large, 30, 21);
  for (auto base : {det_exp_mean_policy(), sto_exp_mean_policy()}) {
    PolicyConfig policy = base;
    policy.replan_every = std::min<std::size_t>(GetParam(),
                                                policy.lookahead);
    const auto result = simulate_policy(in, policy);
    double store = in.initial_storage;
    for (std::size_t t = 0; t < in.horizon(); ++t) {
      store += result.slots[t].alpha - in.demand[t];
      EXPECT_GT(store, -1e-6) << policy.name << " cadence "
                              << policy.replan_every << " slot " << t;
      store = std::max(store, 0.0);
    }
    EXPECT_GE(result.total_cost(), ideal_case_cost(in) - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReplanCadenceSweep,
                         ::testing::Values(1, 2, 3, 6));

TEST(ReplanCadence, InfrequentReplanningStillReasonable) {
  // Re-planning every 6 slots must not blow costs up versus hourly:
  // stale plans lose some adaptivity but stay demand-feasible.
  const auto in = make_inputs(VmClass::C1Medium, 36, 22);
  PolicyConfig hourly = det_exp_mean_policy();
  PolicyConfig stale = det_exp_mean_policy();
  stale.replan_every = 6;
  const double c_hourly = simulate_policy(in, hourly).total_cost();
  const double c_stale = simulate_policy(in, stale).total_cost();
  EXPECT_LT(c_stale, 2.0 * c_hourly);
  EXPECT_GT(c_stale, 0.5 * c_hourly);
}

TEST(ReplanCadence, SrrpFollowsScenarioPathBetweenReplans) {
  // With cadence = lookahead the SRRP policy must execute one full tree
  // descent: every executed slot corresponds to one stage.
  const auto in = make_inputs(VmClass::M1Large, 12, 23);
  PolicyConfig policy = sto_exp_mean_policy();
  policy.replan_every = policy.lookahead;  // 6
  const auto result = simulate_policy(in, policy);
  ASSERT_EQ(result.slots.size(), 12u);
  // Costs are finite and demand was served (checked via inventory).
  for (const auto& slot : result.slots) EXPECT_GE(slot.inventory, -1e-9);
}

TEST(ReplanCadence, ValidationRejectsBadCadence) {
  PolicyConfig policy = det_exp_mean_policy();
  policy.replan_every = 0;
  EXPECT_THROW(policy.validate(), rrp::ContractViolation);
  policy.replan_every = policy.lookahead + 1;
  EXPECT_THROW(policy.validate(), rrp::ContractViolation);
}

TEST(ReplanSpans, ForecastTreeBuildAndDpSolvesNestUnderReplan) {
  // A re-plan's own work is split into spans: the SARIMA forecast, the
  // scenario-tree build and both DP planners each open inside rh.replan.
  auto& recorder = rrp::obs::TraceRecorder::instance();
  recorder.clear();
  recorder.enable();
  const auto in = make_inputs(VmClass::M1Large, 4, 31);
  (void)simulate_policy(in, sto_predict_policy());  // SRRP, tree DP
  (void)simulate_policy(in, det_predict_policy());  // DRRP, Wagner-Whitin
  recorder.disable();
  const auto spans = recorder.collect();
  recorder.clear();

  const auto inside = [](const rrp::obs::SpanRecord& child,
                         const rrp::obs::SpanRecord& parent) {
    return child.tid == parent.tid && child.depth > parent.depth &&
           child.start_seconds >= parent.start_seconds &&
           child.start_seconds + child.dur_seconds <=
               parent.start_seconds + parent.dur_seconds;
  };
  for (const std::string name :
       {"ts.forecast", "tree.build", "dp.tree", "dp.wagner_whitin"}) {
    std::size_t nested = 0;
    for (const auto& span : spans) {
      if (span.name != name) continue;
      for (const auto& replan : spans) {
        if (std::string(replan.name) == "rh.replan" && inside(span, replan)) {
          ++nested;
          break;
        }
      }
    }
    EXPECT_GT(nested, 0u) << name << " never opened inside rh.replan";
  }
}

}  // namespace
