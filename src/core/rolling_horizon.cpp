#include "core/rolling_horizon.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <string>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "core/markov_prices.hpp"
#include "core/srrp.hpp"
#include "core/srrp_dp.hpp"
#include "core/wagner_whitin.hpp"
#include "market/auction.hpp"
#include "obs/obs.hpp"
#include "timeseries/arima.hpp"

namespace rrp::core {

namespace {

void reject(const std::string& what) { throw InvalidArgument(what); }

void check_prices(const std::vector<double>& prices, const char* field) {
  for (std::size_t t = 0; t < prices.size(); ++t) {
    const double p = prices[t];
    const std::string at =
        std::string("SimulationInputs: ") + field + "[" + std::to_string(t) +
        "]";
    if (std::isnan(p)) reject(at + " is NaN");
    if (p <= 0.0 || !std::isfinite(p))
      reject(at + " must be a positive finite price, got " +
             std::to_string(p));
  }
}

}  // namespace

void SimulationInputs::validate() const {
  if (demand.empty()) reject("SimulationInputs: demand is empty");
  if (actual_spot.size() != demand.size())
    reject("SimulationInputs: actual_spot has " +
           std::to_string(actual_spot.size()) + " slots but demand has " +
           std::to_string(demand.size()));
  if (history.empty()) reject("SimulationInputs: price history is empty");
  for (std::size_t t = 0; t < demand.size(); ++t) {
    const double d = demand[t];
    const std::string at =
        "SimulationInputs: demand[" + std::to_string(t) + "]";
    if (std::isnan(d)) reject(at + " is NaN");
    if (d < 0.0 || !std::isfinite(d))
      reject(at + " must be non-negative and finite, got " +
             std::to_string(d));
  }
  check_prices(actual_spot, "actual_spot");
  check_prices(history, "history");
  if (!intra_slot_max.empty() && intra_slot_max.size() != demand.size())
    reject("SimulationInputs: intra_slot_max has " +
           std::to_string(intra_slot_max.size()) +
           " slots but demand has " + std::to_string(demand.size()));
  check_prices(intra_slot_max, "intra_slot_max");
  if (!trace_revocations.empty() &&
      trace_revocations.size() != demand.size())
    reject("SimulationInputs: trace_revocations has " +
           std::to_string(trace_revocations.size()) +
           " slots but demand has " + std::to_string(demand.size()));
  revocation.validate();
  if (std::isnan(initial_storage))
    reject("SimulationInputs: initial_storage is NaN");
  if (initial_storage < 0.0 || !std::isfinite(initial_storage))
    reject("SimulationInputs: initial_storage must be non-negative and "
           "finite, got " +
           std::to_string(initial_storage));
}

const char* to_string(FallbackReason reason) {
  switch (reason) {
    case FallbackReason::SolverTimeout: return "solver-timeout";
    case FallbackReason::NumericalFailure: return "numerical-failure";
    case FallbackReason::PlanRejected: return "plan-rejected";
  }
  return "unknown";
}

const char* to_string(FallbackAction action) {
  switch (action) {
    case FallbackAction::ReusedPlanTail: return "reused-plan-tail";
    case FallbackAction::HeuristicPlan: return "heuristic-plan";
    case FallbackAction::OnDemand: return "on-demand";
  }
  return "unknown";
}

const char* to_string(RevocationRecovery recovery) {
  switch (recovery) {
    case RevocationRecovery::ReacquiredSpot: return "reacquired-spot";
    case RevocationRecovery::MigratedType: return "migrated-type";
    case RevocationRecovery::OnDemandBackstop: return "on-demand-backstop";
  }
  return "unknown";
}

std::size_t SimulationResult::rentals() const {
  return static_cast<std::size_t>(std::ranges::count_if(
      slots, [](const SlotRecord& s) { return s.rented; }));
}

std::size_t SimulationResult::out_of_bid_events() const {
  return static_cast<std::size_t>(std::ranges::count_if(
      slots, [](const SlotRecord& s) { return s.rented && !s.won; }));
}

std::size_t SimulationResult::count(FallbackReason reason) const {
  return static_cast<std::size_t>(
      std::ranges::count(fallbacks, reason, &FallbackEvent::reason));
}

std::size_t SimulationResult::count(FallbackAction action) const {
  return static_cast<std::size_t>(
      std::ranges::count(fallbacks, action, &FallbackEvent::action));
}

std::size_t SimulationResult::count(market::RevocationKind kind) const {
  return static_cast<std::size_t>(
      std::ranges::count(revocations, kind, &RevocationEvent::kind));
}

std::size_t SimulationResult::count(RevocationRecovery recovery) const {
  return static_cast<std::size_t>(
      std::ranges::count(revocations, recovery, &RevocationEvent::recovery));
}

double SimulationResult::work_lost() const {
  double lost = 0.0;
  for (const RevocationEvent& ev : revocations) lost += ev.lost_work;
  return lost;
}

namespace {

constexpr double kPriceFloor = 1e-4;

/// Execution engine for one (inputs, policy) pair.
class PolicyRunner {
 public:
  PolicyRunner(const SimulationInputs& inputs, const PolicyConfig& policy,
               const testing::FaultInjector* injector)
      : in_(inputs),
        cfg_(policy),
        injector_(injector),
        lambda_(market::info(inputs.vm).on_demand_hourly) {
    in_.validate();
    cfg_.validate();

    // Constructed even when the model is disabled: injector-armed
    // revocations still need the per-slot interruption fractions and the
    // checkpoint arithmetic, and an unconditional member keeps the
    // decision stream a pure function of (revocation config, horizon).
    revocation_.emplace(in_.revocation, in_.horizon());

    // Fit window: the tail of the pre-evaluation history.
    const std::size_t window = std::min(cfg_.fit_window, in_.history.size());
    fit_series_.assign(in_.history.end() - static_cast<long>(window),
                       in_.history.end());
    history_mean_ = rrp::stats::mean(fit_series_);
    base_dist_ = EmpiricalPriceDistribution::from_history(
        fit_series_, cfg_.distribution_support);

    if (cfg_.planner == PlannerKind::Srrp && cfg_.markov_tree) {
      markov_ = MarkovPriceModel::fit(fit_series_,
                                      cfg_.distribution_support);
    }
    if (cfg_.bids == BidStrategy::Predicted) {
      // The paper's selected order for hourly spot prices:
      // SARIMA(2,0,1)(2,0,0)_24 (Section IV-A2).
      sarima_order_.p = 2;
      sarima_order_.q = 1;
      sarima_order_.P = 2;
      sarima_order_.s = 24;
      sarima_ = ts::fit_sarima(fit_series_, sarima_order_,
                               cfg_.sarima_refit.scratch);
    }

    observed_ = fit_series_;  // grows as spot prices realise

    // Incremental maintenance keeps the fit window as a sliding
    // distribution, fed in lockstep with observed_, so a refresh reads
    // the window off the index instead of re-scanning history.
    if (cfg_.model_update_every > 0 &&
        cfg_.replan_mode == ReplanMode::Incremental) {
      sliding_.emplace(cfg_.fit_window);
      for (double p : fit_series_) sliding_->push(p);
    }
  }

  SimulationResult run();

 private:
  /// What kind of plan currently drives execution.  None both before the
  /// first plan and after a full degradation to on-demand.
  enum class PlanMode { None, Schedule, Tree };

  /// Per-slot bid/price estimates for the next `w` slots.
  std::vector<double> price_estimates(std::size_t t, std::size_t w);

  DrrpInstance drrp_instance(std::size_t t, std::size_t w, double store,
                             const std::vector<double>& estimates) const;

  /// Attempts a fresh plan for slot t.  Solver faults from the injector
  /// fire here; on any failure (injected or real) control moves to
  /// degrade() and the slot is still served.
  void replan(std::size_t t, std::size_t w, double store);

  /// Model refresh at the re-plan cadence (model_update_every > 0):
  /// either from scratch over the full window (Rebuild, the oracle) or
  /// via the incremental layer (sliding distribution, warm SARIMA
  /// refit).  Timed into model_maintenance_seconds.
  void refresh_models();
  void refresh_rebuild();
  void refresh_incremental();

  /// The recovery ladder: reuse the cached plan's tail, else plan with
  /// the Wagner-Whitin heuristic, else serve the slot on demand.
  void degrade(std::size_t t, std::size_t w, double store,
               const std::vector<double>& estimates, FallbackReason reason);

  void commit_schedule(std::size_t t, RentalPlan plan,
                       const std::vector<double>& estimates);
  void commit_tree(std::size_t t, SrrpPolicy policy, ScenarioTree tree,
                   const std::vector<double>& bids);

  SlotRecord execute_schedule(std::size_t t);
  SlotRecord execute_tree(std::size_t t);
  SlotRecord execute_no_plan(std::size_t t, double store);

  /// True when the cached plan has a decision for slot t.
  bool plan_covers(std::size_t t) const;

  /// True when slot t should trigger a fresh plan (no plan yet, cadence
  /// reached, or the cached plan exhausted).
  bool needs_replan(std::size_t t) const;

  /// Settles acquisition of one instance-slot given the decision to
  /// rent; fills rented/won/spot/bid/price_paid.
  void settle_rental(SlotRecord& rec, std::size_t t, double bid);

  /// Revocation consequences for slot t's acquisition: charges the
  /// checkpoint insurance on held spot instances, asks the model (or an
  /// injector-armed fault) whether the instance dies mid-slot, and if so
  /// reprices the slot through the interruption-recovery ladder
  /// (re-acquire spot -> migrate type -> on-demand backstop).
  void apply_revocation(std::size_t t, SlotRecord& rec);

  /// Cross-type migration target: the first evaluation class that is
  /// not the instance's own (Shastri & Irwin style diversification).
  market::VmClass migration_target() const;

  /// Appends slot t's price tick to the observed series, routing it
  /// through the injector (feed faults) and the sanitiser.  Settlement
  /// is unaffected: only the policy's observations degrade.
  void observe_tick(std::size_t t);

  /// Replaces unusable ticks (non-finite, non-positive, or implausibly
  /// far above on-demand) with the last good observation.
  double sanitize_tick(double tick, double last) const;

  SimulationInputs in_;
  PolicyConfig cfg_;
  const testing::FaultInjector* injector_;
  double lambda_;
  std::vector<double> fit_series_;
  std::vector<double> observed_;
  double history_mean_ = 0.0;
  EmpiricalPriceDistribution base_dist_{{1.0}, {1.0}};
  std::optional<SlidingEmpiricalDistribution> sliding_;
  ts::SarimaOrder sarima_order_;
  std::optional<ts::SarimaModel> sarima_;
  std::optional<MarkovPriceModel> markov_;
  std::optional<market::RevocationModel> revocation_;
  SimulationResult result_;
  std::size_t replans_done_ = 0;  ///< replan() calls so far

  // --- Cached plan state (replan_every > 1, paper Section V-D). ---
  PlanMode mode_ = PlanMode::None;
  std::size_t plan_origin_ = 0;      ///< slot the cached plan was made at
  RentalPlan cached_plan_;           ///< DRRP schedule from plan_origin_
  std::vector<double> cached_bids_;  ///< plan-time price estimates
  SrrpPolicy cached_policy_;         ///< SRRP recourse policy
  ScenarioTree cached_tree_;
  std::size_t tree_cursor_ = 0;      ///< vertex executed at the previous
                                     ///< slot (root before stage 1)
};

std::vector<double> PolicyRunner::price_estimates(std::size_t t,
                                                  std::size_t w) {
  switch (cfg_.bids) {
    case BidStrategy::OnDemandAlways:
      return std::vector<double>(w, lambda_);
    case BidStrategy::Oracle:
      return {in_.actual_spot.begin() + static_cast<long>(t),
              in_.actual_spot.begin() + static_cast<long>(t + w)};
    case BidStrategy::OracleDeviated: {
      std::vector<double> bids(
          in_.actual_spot.begin() + static_cast<long>(t),
          in_.actual_spot.begin() + static_cast<long>(t + w));
      for (double& b : bids)
        b = std::max(b * (1.0 + cfg_.bid_deviation), kPriceFloor);
      return bids;
    }
    case BidStrategy::ExpectedMean:
      return std::vector<double>(w, history_mean_);
    case BidStrategy::FixedValue:
      return std::vector<double>(w, cfg_.fixed_bid);
    case BidStrategy::Predicted: {
      // Forecast from the observed series; a bounded tail suffices
      // because the expanded SARIMA lags reach back ~2 seasons.
      const std::size_t tail =
          std::min<std::size_t>(observed_.size(), cfg_.forecast_window);
      std::vector<double> recent(observed_.end() - static_cast<long>(tail),
                                 observed_.end());
      auto f = ts::forecast(*sarima_, recent, w);
      for (double& v : f) v = std::max(v, kPriceFloor);
      return f;
    }
  }
  throw InvalidArgument("unknown bid strategy");
}

DrrpInstance PolicyRunner::drrp_instance(
    std::size_t t, std::size_t w, double store,
    const std::vector<double>& estimates) const {
  DrrpInstance inst;
  inst.vm = in_.vm;
  inst.demand.assign(in_.demand.begin() + static_cast<long>(t),
                     in_.demand.begin() + static_cast<long>(t + w));
  inst.compute_price = estimates;
  inst.costs = in_.costs;
  inst.initial_storage = store;
  return inst;
}

void PolicyRunner::settle_rental(SlotRecord& rec, std::size_t t,
                                 double bid) {
  rec.rented = true;
  if (cfg_.bids == BidStrategy::OnDemandAlways) {
    rec.won = true;  // no auction: a guaranteed on-demand rental
    rec.spot = false;
    rec.bid = lambda_;
    rec.price_paid = lambda_;
    return;
  }
  if (cfg_.bids == BidStrategy::Oracle) {
    rec.won = true;  // perfect foresight never loses
    rec.spot = true;
    rec.bid = in_.actual_spot[t];
    rec.price_paid = in_.actual_spot[t];
    return;
  }
  const auto outcome =
      market::settle(bid, in_.actual_spot[t], lambda_);
  rec.won = outcome.won;
  rec.spot = outcome.won;  // a lost auction rents on demand instead
  rec.bid = bid;
  rec.price_paid = outcome.price_paid;
}

SlotRecord PolicyRunner::execute_no_plan(std::size_t t, double store) {
  SlotRecord rec;
  rec.alpha = std::max(in_.demand[t] - store, 0.0);
  if (rec.alpha > 0.0) settle_rental(rec, t, lambda_);
  return rec;
}

bool PolicyRunner::plan_covers(std::size_t t) const {
  if (mode_ == PlanMode::None) return false;
  const std::size_t age = t - plan_origin_;
  if (mode_ == PlanMode::Schedule) return age < cached_plan_.alpha.size();
  return age < cached_tree_.num_stages();
}

bool PolicyRunner::needs_replan(std::size_t t) const {
  if (mode_ == PlanMode::None) return true;
  if (t - plan_origin_ >= cfg_.replan_every) return true;
  // The cached plan must still cover this slot.
  return !plan_covers(t);
}

void PolicyRunner::commit_schedule(std::size_t t, RentalPlan plan,
                                   const std::vector<double>& estimates) {
  cached_plan_ = std::move(plan);
  cached_bids_ = estimates;
  plan_origin_ = t;
  mode_ = PlanMode::Schedule;
}

void PolicyRunner::commit_tree(std::size_t t, SrrpPolicy policy,
                               ScenarioTree tree,
                               const std::vector<double>& bids) {
  cached_policy_ = std::move(policy);
  cached_tree_ = std::move(tree);
  cached_bids_ = bids;
  tree_cursor_ = cached_tree_.root();
  plan_origin_ = t;
  mode_ = PlanMode::Tree;
}

void PolicyRunner::refresh_rebuild() {
  // The oracle path: recompute every model from the full fit window,
  // exactly as construction does.  O(window) + a cold SARIMA fit.
  const std::size_t window = std::min(cfg_.fit_window, observed_.size());
  const std::vector<double> tail(observed_.end() - static_cast<long>(window),
                                 observed_.end());
  history_mean_ = rrp::stats::mean(tail);
  base_dist_ = EmpiricalPriceDistribution::from_history(
      tail, cfg_.distribution_support);
  if (markov_.has_value())
    markov_ = MarkovPriceModel::fit(tail, cfg_.distribution_support);
  if (sarima_.has_value()) {
    sarima_ =
        ts::fit_sarima(tail, sarima_order_, cfg_.sarima_refit.scratch);
    ++result_.sarima_scratch_refits;
  }
}

void PolicyRunner::refresh_incremental() {
  RRP_TRACE_SPAN("rh.replan_incremental");
  RRP_COUNTER_ADD("rrp.rh.replan_incremental", 1);
  // mean() and snapshot() are bit-identical to the rebuild path over
  // the same window (shared clustering kernel, same summation order).
  history_mean_ = sliding_->mean();
  base_dist_ = sliding_->snapshot(cfg_.distribution_support);
  if (markov_.has_value()) {
    const std::vector<double> tail = sliding_->window();
    markov_ = MarkovPriceModel::fit(tail, cfg_.distribution_support);
  }
  if (sarima_.has_value()) {
    const std::size_t window = std::min(cfg_.fit_window, observed_.size());
    auto refit = ts::refit_sarima(
        *sarima_, std::span<const double>(observed_).last(window),
        cfg_.sarima_refit);
    switch (refit.action) {
      case ts::SarimaRefitAction::Kept:
        ++result_.sarima_refits_kept;
        break;
      case ts::SarimaRefitAction::WarmRefit:
        ++result_.sarima_warm_refits;
        break;
      case ts::SarimaRefitAction::ScratchRefit:
        ++result_.sarima_scratch_refits;
        break;
    }
    sarima_ = std::move(refit.model);
  }
}

void PolicyRunner::refresh_models() {
  const common::Clock& wall = common::real_clock();
  const double t0 = wall.now_seconds();
  ++result_.model_refreshes;
  if (cfg_.replan_mode == ReplanMode::Rebuild) {
    refresh_rebuild();
  } else {
    refresh_incremental();
  }
  result_.model_maintenance_seconds += wall.now_seconds() - t0;
}

void PolicyRunner::replan(std::size_t t, std::size_t w, double store) {
  RRP_TRACE_SPAN("rh.replan");
  RRP_TRACE_ARG("slot", t);
  RRP_TRACE_ARG("window", w);
  RRP_COUNTER_ADD("rrp.rh.replans", 1);
  // Refresh models at the configured cadence; the construction-time fit
  // covers the first plan.
  if (cfg_.model_update_every > 0 && replans_done_ > 0 &&
      replans_done_ % cfg_.model_update_every == 0)
    refresh_models();
  ++replans_done_;
  milp::BnbOptions solver = cfg_.solver;
  if (cfg_.replan_time_limit > 0.0) {
    const common::Clock& clock =
        cfg_.clock != nullptr ? *cfg_.clock : common::real_clock();
    solver.deadline = common::Deadline::after(cfg_.replan_time_limit, clock);
  }

  std::vector<double> estimates;
  std::optional<FallbackReason> failure;
  std::optional<testing::SolverFaultKind> injected;
  if (injector_ != nullptr) injected = injector_->solver_fault(t);
  if (injected.has_value() &&
      *injected == testing::SolverFaultKind::Timeout) {
    // Modelled as the budget burning down before the solve gets
    // anywhere; injecting above the solver keeps the fault uniform
    // across the DP backend (which has no internal clock) and the MILP.
    failure = FallbackReason::SolverTimeout;
  } else {
    try {
      estimates = price_estimates(t, w);
      if (injected.has_value() &&
          *injected == testing::SolverFaultKind::NumericalFailure)
        throw NumericalError("injected numerical failure at slot " +
                             std::to_string(t));
      if (cfg_.planner == PlannerKind::Drrp) {
        DrrpInstance inst = drrp_instance(t, w, store, estimates);
        RentalPlan plan =
            cfg_.backend == PlannerBackend::DynamicProgramming
                ? solve_drrp_wagner_whitin(inst)
                : solve_drrp(inst, solver);
        result_.solver += plan.work;
        if (plan.feasible()) {
          commit_schedule(t, std::move(plan), estimates);
          return;
        }
        failure = solver.deadline.expired() ? FallbackReason::SolverTimeout
                                            : FallbackReason::PlanRejected;
      } else {
        std::vector<std::size_t> widths(w, 1);
        for (std::size_t i = 0; i < w && i < cfg_.stage_widths.size(); ++i)
          widths[i] = cfg_.stage_widths[i];

        SrrpInstance inst;
        inst.vm = in_.vm;
        inst.demand.assign(in_.demand.begin() + static_cast<long>(t),
                           in_.demand.begin() + static_cast<long>(t + w));
        if (markov_.has_value()) {
          // Conditional tree rooted at the price currently in force.
          // Per-parent widths make conditional trees unrepairable, so
          // this path always rebuilds.
          inst.tree = markov_->build_tree(observed_.back(), estimates,
                                          lambda_, widths);
          ++result_.tree_rebuilds;
        } else {
          const auto supports =
              make_stage_supports(base_dist_, estimates, lambda_, widths);
          bool repaired = false;
          if (cfg_.replan_mode == ReplanMode::Incremental &&
              mode_ == PlanMode::Tree) {
            // Repair a copy, arithmetically identical to a rebuild.  The
            // cache itself stays as it is: if the solve below fails,
            // rung 1 of the degrade ladder (ReusedPlanTail) executes
            // cached_tree_ with cached_policy_, which a repaired cache
            // would pair with a reweighted tree.
            inst.tree = cached_tree_;
            repaired = inst.tree.repair(supports);
          }
          if (repaired) {
            ++result_.tree_repairs;
          } else {
            inst.tree = ScenarioTree::build(supports);
            ++result_.tree_rebuilds;
          }
        }
        inst.costs = in_.costs;
        inst.initial_storage = store;
        SrrpPolicy policy =
            cfg_.backend == PlannerBackend::DynamicProgramming
                ? solve_srrp_tree_dp(inst)
                : solve_srrp(inst, solver);
        result_.solver += policy.work;
        if (policy.feasible()) {
          commit_tree(t, std::move(policy), std::move(inst.tree), estimates);
          return;
        }
        failure = solver.deadline.expired() ? FallbackReason::SolverTimeout
                                            : FallbackReason::PlanRejected;
      }
    } catch (const NumericalError&) {
      failure = FallbackReason::NumericalFailure;
    }
  }
  // The heuristic rung needs estimates even when the failure happened
  // before/inside price estimation; the historical mean is always
  // available and always valid.
  if (estimates.size() != w)
    estimates.assign(w, std::max(history_mean_, kPriceFloor));
  degrade(t, w, store, estimates, *failure);
}

void PolicyRunner::degrade(std::size_t t, std::size_t w, double store,
                           const std::vector<double>& estimates,
                           FallbackReason reason) {
  switch (reason) {
    case FallbackReason::SolverTimeout:
      RRP_COUNTER_ADD("rrp.rh.replan_timeouts", 1);
      break;
    case FallbackReason::NumericalFailure:
      RRP_COUNTER_ADD("rrp.rh.replan_numerical_failures", 1);
      break;
    case FallbackReason::PlanRejected:
      RRP_COUNTER_ADD("rrp.rh.replans_rejected", 1);
      break;
  }
  FallbackEvent ev;
  ev.slot = t;
  ev.reason = reason;
  bool handled = false;

  // Rung 1: the previous plan's tail still serves this slot (exactly the
  // cadence > 1 execution path, so the inventory trajectory stays
  // plan-consistent).
  if (plan_covers(t)) {
    ev.action = FallbackAction::ReusedPlanTail;
    RRP_COUNTER_ADD("rrp.rh.fallback_reused_tail", 1);
    handled = true;
  }

  // Rung 2: Wagner-Whitin on the current estimates — exact for the
  // uncapacitated lot-sizing shape and runs in microseconds, so it
  // cannot itself time out.
  if (!handled) {
    try {
      RentalPlan plan =
          solve_drrp_wagner_whitin(drrp_instance(t, w, store, estimates));
      if (plan.feasible()) {
        commit_schedule(t, std::move(plan), estimates);
        ev.action = FallbackAction::HeuristicPlan;
        RRP_COUNTER_ADD("rrp.rh.fallback_heuristic", 1);
        handled = true;
      }
    } catch (const Error&) {
      // Fall through to the last rung.
    }
  }

  // Rung 3: serve this slot's net demand on demand; planning is retried
  // at the next slot.
  if (!handled) {
    mode_ = PlanMode::None;
    ev.action = FallbackAction::OnDemand;
    RRP_COUNTER_ADD("rrp.rh.fallback_on_demand", 1);
  }

  // Single exit: exactly one FallbackEvent per degraded re-plan, no
  // matter how many faults (say a timeout and a revocation) coincide at
  // the same slot.
  RRP_OBS_EVENT("rh", "fallback",
                {{"slot", static_cast<std::uint64_t>(t)},
                 {"reason", to_string(reason)},
                 {"action", to_string(ev.action)}});
  result_.fallbacks.push_back(ev);
}

SlotRecord PolicyRunner::execute_schedule(std::size_t t) {
  // Execute the cached schedule at this slot's offset.  The schedule's
  // inventory path is followed exactly (alpha is generated even when
  // the auction is lost, on the fallback on-demand instance), so the
  // plan stays consistent until the next re-plan.
  const std::size_t offset = t - plan_origin_;
  SlotRecord rec;
  rec.alpha = cached_plan_.alpha[offset];
  if (cached_plan_.chi[offset])
    settle_rental(rec, t, cached_bids_[offset]);
  return rec;
}

SlotRecord PolicyRunner::execute_tree(std::size_t t) {
  // Multistage recourse execution: descend one tree stage per slot,
  // picking the child state that matches the realised acquisition.
  const std::size_t offset = t - plan_origin_;
  const auto children = cached_tree_.children(tree_cursor_);
  RRP_ENSURES(!children.empty());

  bool any_rents = false;
  for (std::size_t u : children)
    if (cached_policy_.chi[u]) any_rents = true;

  SlotRecord rec;
  const double spot = in_.actual_spot[t];
  auto pick_child = [&](bool won) {
    std::size_t best = children.front();
    double best_dist = std::numeric_limits<double>::infinity();
    bool found = false;
    for (std::size_t u : children) {
      if (cached_tree_.vertex(u).out_of_bid != !won) continue;
      const double dist = std::fabs(cached_tree_.vertex(u).price - spot);
      if (dist < best_dist) {
        best_dist = dist;
        best = u;
        found = true;
      }
    }
    if (!found) {
      for (std::size_t u : children) {
        const double dist = std::fabs(cached_tree_.vertex(u).price - spot);
        if (dist < best_dist) {
          best_dist = dist;
          best = u;
        }
      }
    }
    return best;
  };

  std::size_t u;
  if (!any_rents) {
    // Recourse: no state at this stage rents, so no bid is placed.
    u = pick_child(/*won=*/true);
    rec.alpha = cached_policy_.alpha[u];
  } else {
    const double bid = cached_bids_[offset];
    const bool won = bid >= spot;
    u = pick_child(won);
    rec.alpha = cached_policy_.alpha[u];
    if (cached_policy_.chi[u]) {
      rec.rented = true;
      rec.won = won;
      rec.spot = won;  // a lost auction rents on demand instead
      rec.bid = bid;
      rec.price_paid = won ? spot : lambda_;
    }
  }
  tree_cursor_ = u;
  return rec;
}

market::VmClass PolicyRunner::migration_target() const {
  for (market::VmClass vm : market::evaluation_classes())
    if (vm != in_.vm) return vm;
  return in_.vm;  // unreachable: evaluation_classes() has three entries
}

void PolicyRunner::apply_revocation(std::size_t t, SlotRecord& rec) {
  if (!rec.rented || !rec.spot) return;
  const market::RevocationConfig& rcfg = in_.revocation;

  // Checkpoint insurance accrues on every held spot slot while the
  // layer is on, struck or not — that is the cost of being revocable.
  if (rcfg.enabled && rcfg.checkpoint_overhead > 0.0) {
    const double overhead = rcfg.checkpoint_overhead * rec.price_paid;
    result_.cost.interruption += overhead;
    result_.checkpoint_overhead_cost += overhead;
  }

  // Decide whether (and why) the instance dies mid-slot.  An
  // injector-armed fault is authoritative — chaos schedules must fire
  // regardless of the model's own draws — then trace-carried storms,
  // then the seeded model, then trace-carried single reclaims.
  std::optional<market::RevocationKind> kind;
  double fraction = 0.0;
  std::optional<testing::RevocationFault> armed;
  if (injector_ != nullptr) armed = injector_->revocation_fault(t);
  if (armed.has_value()) {
    kind = armed->storm ? market::RevocationKind::Storm
                        : market::RevocationKind::Hazard;
    fraction = armed->fraction;
  } else if (rcfg.enabled) {
    if (t < in_.trace_revocations.size() &&
        in_.trace_revocations[t] == market::HourlyRevocation::Storm) {
      kind = market::RevocationKind::Storm;
    } else {
      // Without an intra-slot view the settled price stands in for the
      // slot maximum; a winning bid then never crosses, which is
      // exactly the documented "bid-cross disabled" behaviour.
      const double slot_max =
          t < in_.intra_slot_max.size()
              ? std::max(in_.intra_slot_max[t], in_.actual_spot[t])
              : in_.actual_spot[t];
      kind = revocation_->revocation(t, rec.bid, slot_max);
      if (!kind.has_value() && t < in_.trace_revocations.size() &&
          in_.trace_revocations[t] == market::HourlyRevocation::Single) {
        kind = market::RevocationKind::Hazard;
      }
    }
    if (kind.has_value()) fraction = revocation_->interruption_fraction(t);
  }
  if (!kind.has_value()) return;

  const double preserved = revocation_->preserved_work(fraction);
  const double lost = fraction - preserved;
  const double remaining = 1.0 - preserved;

  // Interruption-recovery ladder.  Re-acquiring spot is only credible
  // for out-of-band reclaims: a crossed bid or an emptied pool cannot
  // be re-bought at the same bid within the slot.
  RevocationRecovery recovery = RevocationRecovery::OnDemandBackstop;
  double replacement_price = lambda_;
  double fixed_fee = rcfg.restart_cost;
  if (*kind == market::RevocationKind::Hazard &&
      rcfg.allow_spot_reacquire) {
    recovery = RevocationRecovery::ReacquiredSpot;
    replacement_price = in_.actual_spot[t];
  } else if (rcfg.allow_migration) {
    recovery = RevocationRecovery::MigratedType;
    const market::VmClassInfo& alt = market::info(migration_target());
    replacement_price = alt.on_demand_hourly * alt.spot_mean_ratio;
    fixed_fee = rcfg.migration_cost;
    result_.migrations.push_back(
        MigrationEvent{t, in_.vm, alt.id, rcfg.migration_cost});
  }

  // The interrupted instance bills its partial slot; the replacement
  // bills the remaining work including the redo of the un-checkpointed
  // part.  Both are compute spend, so the inventory-balance invariant
  // (compute == sum of price_paid) holds untouched; only the fixed fees
  // land in the interruption bucket.  The replacement itself is never
  // re-revoked within the same slot.
  rec.revoked = true;
  rec.price_paid = fraction * rec.price_paid + remaining * replacement_price;
  result_.cost.interruption += fixed_fee;
  RRP_COUNTER_ADD("rrp.rh.revocations", 1);
  RRP_OBS_EVENT("rh", "revocation",
                {{"slot", static_cast<std::uint64_t>(t)},
                 {"kind", market::to_string(*kind)},
                 {"fraction", fraction},
                 {"lost_work", lost},
                 {"recovery", to_string(recovery)}});
  result_.revocations.push_back(
      RevocationEvent{t, *kind, fraction, lost, recovery});
}

double PolicyRunner::sanitize_tick(double tick, double last) const {
  if (!std::isfinite(tick) || tick <= 0.0) return last;
  // A tick an order of magnitude above on-demand is a feed glitch, not a
  // market move (spot occasionally exceeds lambda, never by 10x).
  if (tick > 10.0 * lambda_) return last;
  return std::max(tick, kPriceFloor);
}

void PolicyRunner::observe_tick(std::size_t t) {
  const double actual = in_.actual_spot[t];
  double used = actual;
  if (injector_ != nullptr) {
    if (const auto fault = injector_->price_fault(t)) {
      const double last = observed_.back();
      double raw = actual;
      switch (fault->kind) {
        case testing::PriceFaultKind::Gap:
        case testing::PriceFaultKind::Nan:
          // No tick / an unusable tick arrived.
          raw = std::numeric_limits<double>::quiet_NaN();
          break;
        case testing::PriceFaultKind::Spike:
          raw = actual * fault->spike_factor;
          break;
        case testing::PriceFaultKind::Delayed:
          raw = last;  // the previous tick is re-delivered late
          break;
      }
      used = sanitize_tick(raw, last);
      PriceFeedEvent ev;
      ev.slot = t;
      ev.kind = fault->kind;
      ev.raw = raw;
      ev.used = used;
      RRP_COUNTER_ADD("rrp.rh.price_faults", 1);
      RRP_OBS_EVENT("rh", "price_fault",
                    {{"slot", static_cast<std::uint64_t>(t)},
                     {"kind", testing::to_string(fault->kind)},
                     {"used", used}});
      result_.price_faults.push_back(ev);
    }
  }
  observed_.push_back(used);
  // The sliding window sees exactly what observed_ sees: sanitised
  // ticks, in order.
  if (sliding_.has_value()) sliding_->push(used);
}

SimulationResult PolicyRunner::run() {
  RRP_TRACE_SPAN("rh.simulate");
  const std::size_t T = in_.horizon();
  result_.slots.reserve(T);
  double store = in_.initial_storage;

  for (std::size_t t = 0; t < T; ++t) {
    const std::size_t w = std::min(cfg_.lookahead, T - t);
    SlotRecord rec;
    if (cfg_.planner == PlannerKind::NoPlan) {
      rec = execute_no_plan(t, store);
    } else {
      if (needs_replan(t)) {
        // Latency on the process wall clock, never cfg_.clock: a test
        // FakeClock auto-advances on reads and would count them.
        const common::Clock& wall = common::real_clock();
        const double r0 = wall.now_seconds();
        replan(t, w, store);
        result_.replan_seconds.push_back(wall.now_seconds() - r0);
      }
      switch (mode_) {
        case PlanMode::None:
          rec = execute_no_plan(t, store);
          break;
        case PlanMode::Schedule:
          rec = execute_schedule(t);
          break;
        case PlanMode::Tree:
          rec = execute_tree(t);
          break;
      }
    }

    // Mid-slot revocation of a held spot instance: the recovery ladder
    // finishes the slot, so alpha is still fully generated and the
    // inventory trajectory is unchanged — only the price and telemetry
    // move.
    apply_revocation(t, rec);

    // Inventory update; the planners guarantee coverage.
    store += rec.alpha - in_.demand[t];
    RRP_ENSURES(store > -1e-6);
    store = std::max(store, 0.0);
    rec.inventory = store;

    // Realised cost accounting.
    if (rec.rented) {
      result_.cost.compute += rec.price_paid;
    }
    result_.cost.holding += in_.costs.holding(t) * store;
    result_.cost.transfer_in += in_.costs.generation_cost(rec.alpha, t);
    result_.cost.transfer_out += in_.costs.delivery_cost(in_.demand[t], t);

    result_.slots.push_back(rec);
    observe_tick(t);
  }

  return std::move(result_);
}

}  // namespace

SimulationResult simulate_policy(const SimulationInputs& inputs,
                                 const PolicyConfig& policy) {
  return simulate_policy(inputs, policy, nullptr);
}

SimulationResult simulate_policy(const SimulationInputs& inputs,
                                 const PolicyConfig& policy,
                                 const testing::FaultInjector* injector) {
  PolicyRunner runner(inputs, policy, injector);
  return runner.run();
}

double ideal_case_cost(const SimulationInputs& inputs) {
  inputs.validate();
  DrrpInstance inst;
  inst.vm = inputs.vm;
  inst.demand = inputs.demand;
  inst.compute_price = inputs.actual_spot;
  inst.costs = inputs.costs;
  inst.initial_storage = inputs.initial_storage;
  return solve_drrp_wagner_whitin(inst).cost.total();
}

double overpay_fraction(double policy_cost, double ideal_cost) {
  RRP_EXPECTS(ideal_cost > 0.0);
  return (policy_cost - ideal_cost) / ideal_cost;
}

}  // namespace rrp::core
