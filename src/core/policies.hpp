// Rental policies for the spot-market experiments (paper Section V-C).
//
// A policy describes (a) which planner runs at each decision point
// (none / DRRP / SRRP), (b) how bids are formed (SARIMA prediction,
// the historical expected mean, always-on-demand, or oracle foresight)
// and (c) the planning lookahead.  Figure 12(a)'s five curves map to:
//
//   on-demand     : DRRP planner, on-demand prices, no auction
//   det-predict   : DRRP with SARIMA-predicted prices as bids
//   sto-predict   : SRRP with SARIMA-predicted bids
//   det-exp-mean  : DRRP bidding the historical mean price
//   sto-exp-mean  : SRRP bidding the historical mean price
//
// plus the oracle (DRRP on the realised prices) as the ideal-case
// denominator.
#pragma once

#include <string>
#include <vector>

#include "common/deadline.hpp"
#include "milp/branch_and_bound.hpp"
#include "timeseries/arima.hpp"

namespace rrp::core {

enum class PlannerKind { NoPlan, Drrp, Srrp };

/// How a re-plan refreshes its models (ISSUE 10).  Incremental is the
/// default: sliding-window distributions, warm SARIMA refits and
/// scenario-tree repair make the per-replan cost a function of new
/// data since the last refresh.  Rebuild recomputes everything from the
/// full window each time and serves as the equivalence oracle: for
/// expected-mean policies both modes produce bit-identical plans
/// (property-tested in test_replan_equivalence.cpp).
enum class ReplanMode { Rebuild, Incremental };

const char* to_string(ReplanMode mode);

/// The SARIMA refit defaults used by every policy: a 4000-evaluation
/// cap for cold fits, the stock drift thresholds for warm maintenance.
ts::SarimaRefitOptions default_policy_sarima_refit();

enum class BidStrategy {
  Predicted,       ///< SARIMA day-ahead forecasts (Section IV-A)
  ExpectedMean,    ///< fixed bid at the historical mean price
  FixedValue,      ///< fixed bid at PolicyConfig::fixed_bid
  OnDemandAlways,  ///< no auction: rent on-demand at lambda
  Oracle,          ///< perfect foresight of realised prices
  /// Realised prices deviated by PolicyConfig::bid_deviation — the
  /// artificial +/-2%..10% bids of Figure 12(b)'s precision study.
  OracleDeviated,
};

/// Which exact solver executes the per-slot plans.
enum class PlannerBackend {
  /// Wagner-Whitin (DRRP) / tree DP (SRRP): exact and near-instant for
  /// the uncapacitated instances the rolling simulator produces.
  DynamicProgramming,
  /// The MILP deterministic equivalents; identical optima, orders of
  /// magnitude slower.  Kept selectable for cross-validation.
  Milp,
};

struct PolicyConfig {
  std::string name;
  PlannerKind planner = PlannerKind::Drrp;
  PlannerBackend backend = PlannerBackend::DynamicProgramming;
  BidStrategy bids = BidStrategy::ExpectedMean;
  double fixed_bid = 0.0;        ///< used by BidStrategy::FixedValue
  double bid_deviation = 0.0;    ///< used by BidStrategy::OracleDeviated
  std::size_t lookahead = 24;    ///< DRRP horizon (paper: 24h)
  /// Re-plan cadence (paper Section V-D: "a revised plan is issued
  /// periodically (after a few slots of the whole planning horizon)").
  /// 1 = re-plan every slot.  Between re-plans a DRRP policy executes
  /// its cached schedule; an SRRP policy follows the scenario-tree path
  /// matching the realised prices (true multistage recourse).
  std::size_t replan_every = 1;
  /// SRRP scenario-tree branching per stage, bushy-early lean-late;
  /// resized to the lookahead (padded with 1s) when shorter.
  std::vector<std::size_t> stage_widths = {4, 3, 2, 1, 1, 1};
  std::size_t distribution_support = 12;  ///< base distribution clusters
  /// SRRP only: build the scenario tree from a fitted Markov price
  /// chain (stage distributions conditional on the parent state)
  /// instead of the paper's unconditional base distribution.
  bool markov_tree = false;
  /// Hours of history used for the base distribution / SARIMA fit.
  std::size_t fit_window = 24 * 60;
  /// Hours of trailing history fed to the SARIMA forecaster at each
  /// re-plan (bounded so forecast cost does not grow with total
  /// history); clamped to the observations available.
  std::size_t forecast_window = 24 * 14;
  /// Refresh the price models every this many re-plans; 0 (default)
  /// keeps the classic fit-once behaviour where models are estimated at
  /// construction and never touched again.
  std::size_t model_update_every = 0;
  /// Model-refresh strategy when model_update_every > 0; see ReplanMode.
  ReplanMode replan_mode = ReplanMode::Incremental;
  /// Drift thresholds and warm-start budget for incremental SARIMA
  /// maintenance; `sarima_refit.scratch` is also the option set for the
  /// construction-time fit and every Rebuild-mode fit.
  ts::SarimaRefitOptions sarima_refit = default_policy_sarima_refit();
  milp::BnbOptions solver;
  /// Wall-clock budget (seconds) for each re-plan solve; 0 disables.
  /// On expiry the MILP backend returns its best incumbent (anytime
  /// contract); when no plan is usable the rolling-horizon recovery
  /// ladder degrades the slot instead of aborting the simulation.
  double replan_time_limit = 0.0;
  /// Clock behind the per-re-plan deadlines; tests inject a FakeClock
  /// here for deterministic expiry.  nullptr = process monotonic clock.
  const common::Clock* clock = nullptr;

  void validate() const;
};

/// Figure 10's baseline: rent every slot with positive demand.
PolicyConfig no_plan_policy();

/// Figure 12(a) policies (paper names).
PolicyConfig on_demand_policy();
PolicyConfig det_predict_policy();
PolicyConfig sto_predict_policy();
PolicyConfig det_exp_mean_policy();
PolicyConfig sto_exp_mean_policy();

/// The ideal-case planner: DRRP fed the realised spot prices.
PolicyConfig oracle_policy();

/// Extension: SRRP over a Markov-conditional scenario tree (stage
/// distributions conditioned on the parent price state) with
/// expected-mean bids.
PolicyConfig sto_markov_policy();

/// All five evaluated policies of Figure 12(a), in plot order.
std::vector<PolicyConfig> figure12a_policies();

/// The hostile-market comparison set (revocation-aware evaluation):
/// no-plan, on-demand, DRRP and SRRP with expected-mean bids, plus a
/// "wagner-whitin" cadence variant that commits its DRRP schedule for 6
/// slots — maximally exposed to mid-plan revocations, which is exactly
/// what the interruption table is meant to surface.
std::vector<PolicyConfig> interruption_policies();

}  // namespace rrp::core
