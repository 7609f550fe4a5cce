// End-to-end integration: the full pipeline a user of the library
// walks — generate a market, regularise it, summarise the price
// distribution, fit a predictor, plan deterministically and
// stochastically, and execute policies in the rolling simulator —
// asserting the cross-module invariants the paper's evaluation relies
// on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/demand.hpp"
#include "core/rolling_horizon.hpp"
#include "core/srrp_dp.hpp"
#include "core/wagner_whitin.hpp"
#include "market/trace_generator.hpp"
#include "timeseries/arima.hpp"
#include "timeseries/diagnostics.hpp"

namespace {

using namespace rrp;

class EndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_ = new market::SpotTrace(
        market::generate_trace(market::VmClass::M1Large, 404));
  }
  static void TearDownTestSuite() {
    delete trace_;
    trace_ = nullptr;
  }
  static market::SpotTrace* trace_;
};

market::SpotTrace* EndToEnd::trace_ = nullptr;

TEST_F(EndToEnd, MarketToTimeSeriesPipeline) {
  const auto hourly = trace_->hourly(0, 24 * 61);
  ASSERT_EQ(hourly.size(), 24u * 61u);
  // The regularised series passes the paper's preconditions for SARIMA:
  // stationary, non-normal, weakly autocorrelated.
  EXPECT_TRUE(ts::is_level_stationary(hourly));
  const auto sw = ts::shapiro_wilk(
      std::span(hourly).subspan(0, std::min<std::size_t>(hourly.size(),
                                                         5000)));
  EXPECT_LT(sw.p_value, 0.05);
  // A SARIMA fit on it forecasts finite positive prices.
  ts::SarimaOrder order;
  order.p = 2;
  order.q = 1;
  order.P = 1;
  order.s = 24;
  ts::SarimaFitOptions fit;
  fit.optimizer.max_evaluations = 1500;
  const auto model = ts::fit_sarima(hourly, order, fit);
  const auto f = ts::forecast(model, hourly, 24);
  for (double v : f) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 0.0);
  }
}

TEST_F(EndToEnd, DistributionToPlannersPipeline) {
  const auto hourly = trace_->hourly(0, 24 * 60);
  const auto dist = core::EmpiricalPriceDistribution::from_history(hourly,
                                                                   12);
  const double lambda = market::info(trace_->vm_class()).on_demand_hourly;
  const double bid = dist.mean();

  Rng rng(11);
  const auto demand = core::generate_demand(6, core::DemandConfig{}, rng);

  // SRRP over the bid-truncated tree; DRRP on the expected price.
  std::vector<double> bids(6, bid);
  std::vector<std::size_t> widths = {4, 3, 2, 1, 1, 1};
  core::SrrpInstance srrp;
  srrp.vm = trace_->vm_class();
  srrp.demand = demand;
  srrp.tree = core::ScenarioTree::build(
      core::make_stage_supports(dist, bids, lambda, widths));
  const auto policy = core::solve_srrp_tree_dp(srrp);

  core::DrrpInstance drrp;
  drrp.vm = trace_->vm_class();
  drrp.demand = demand;
  // Expected compute price under the truncated distribution.
  const auto pts = dist.truncate_at_bid(bid, lambda);
  drrp.compute_price.assign(6, core::mean_of(pts));
  const auto plan = core::solve_drrp_wagner_whitin(drrp);

  // The stochastic plan can exploit cheap states: its expected cost is
  // no worse than the deterministic plan priced at the expectation
  // (Jensen direction on this recourse structure).
  EXPECT_LE(policy.expected_cost, plan.cost.total() + 1e-6);
  EXPECT_GT(policy.expected_cost, 0.0);
}

TEST_F(EndToEnd, SimulatorConsistencyAcrossBackends) {
  // The DP and MILP backends must produce identical realised costs.
  const auto hourly = trace_->hourly();
  core::SimulationInputs in;
  in.vm = trace_->vm_class();
  in.history.assign(hourly.begin(), hourly.begin() + 24 * 60);
  in.actual_spot.assign(hourly.begin() + 24 * 60,
                        hourly.begin() + 24 * 60 + 8);
  Rng rng(12);
  in.demand = core::generate_demand(8, core::DemandConfig{}, rng);

  for (auto base : {core::det_exp_mean_policy(),
                    core::sto_exp_mean_policy()}) {
    core::PolicyConfig dp = base;
    dp.backend = core::PlannerBackend::DynamicProgramming;
    core::PolicyConfig milp = base;
    milp.backend = core::PlannerBackend::Milp;
    // Narrow trees keep the MILP B&B tractable; a 1e-6 gap is far
    // inside the comparison tolerance below.
    milp.stage_widths = {2, 2, 1, 1, 1, 1};
    dp.stage_widths = milp.stage_widths;
    milp.solver.relative_gap = 1e-6;
    const auto a = core::simulate_policy(in, dp);
    const auto b = core::simulate_policy(in, milp);
    EXPECT_NEAR(a.total_cost(), b.total_cost(),
                1e-4 * (1.0 + a.total_cost()))
        << base.name;
    EXPECT_EQ(a.rentals(), b.rentals()) << base.name;
  }
}

TEST_F(EndToEnd, FullEvaluationOrdering) {
  // The paper's headline ordering on a fresh window: ideal <= every
  // policy, and planned policies beat no-plan.
  const auto hourly = trace_->hourly();
  core::SimulationInputs in;
  in.vm = trace_->vm_class();
  in.history.assign(hourly.begin(), hourly.begin() + 24 * 55);
  in.actual_spot.assign(hourly.begin() + 24 * 55,
                        hourly.begin() + 24 * 55 + 48);
  Rng rng(13);
  in.demand = core::generate_demand(48, core::DemandConfig{}, rng);

  const double ideal = core::ideal_case_cost(in);
  const double no_plan =
      core::simulate_policy(in, core::no_plan_policy()).total_cost();
  const double det =
      core::simulate_policy(in, core::det_exp_mean_policy()).total_cost();
  const double sto =
      core::simulate_policy(in, core::sto_exp_mean_policy()).total_cost();
  EXPECT_GE(det, ideal - 1e-6);
  EXPECT_GE(sto, ideal - 1e-6);
  EXPECT_LT(det, no_plan);
  EXPECT_LT(sto, no_plan);
}

}  // namespace
