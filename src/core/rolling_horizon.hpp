// Rolling-horizon execution of rental policies against realised spot
// prices (paper Section V-C / V-D: "the resource rental planning is
// often conducted in a rolling horizon fashion, i.e., a revised plan is
// issued periodically to include the new information").
//
// Each hour the policy re-plans over its lookahead using only
// information available so far (price history, its bid strategy, the
// current inventory), commits the first-slot decision, and the market
// settles it against the actual spot price: a lost auction forces an
// on-demand rental at lambda to keep serving demand.
#pragma once

#include <vector>

#include "common/fault_injection.hpp"
#include "core/drrp.hpp"
#include "core/policies.hpp"
#include "market/cost_model.hpp"
#include "market/instance_types.hpp"
#include "market/revocation.hpp"
#include "market/spot_trace.hpp"

namespace rrp::core {

struct SimulationInputs {
  market::VmClass vm = market::VmClass::C1Medium;
  std::vector<double> demand;       ///< per evaluation slot; known ahead
  std::vector<double> actual_spot;  ///< realised hourly spot prices
  std::vector<double> history;      ///< hourly prices before slot 0
  market::CostModel costs = market::CostModel::paper_defaults();
  double initial_storage = 0.0;

  // --- Revocation risk (ISSUE 7) -------------------------------------
  /// Interruption model and consequence parameters.  `enabled` gates
  /// the hazard/storm/bid-cross processes; the consequence knobs
  /// (checkpoint, restart, migration) also govern injector-armed
  /// revocations when the model itself is off.
  market::RevocationConfig revocation;
  /// Per-slot maximum intra-slot spot price (SpotTrace::hourly_max);
  /// empty means "no intra-slot view" and disables bid-cross
  /// revocations (the settled price never exceeds a winning bid).
  std::vector<double> intra_slot_max;
  /// Per-slot revocation events carried by the trace
  /// (SpotTrace::hourly_revocations); empty means none.  Honoured only
  /// while revocation.enabled.
  std::vector<market::HourlyRevocation> trace_revocations;

  std::size_t horizon() const { return demand.size(); }

  /// Throws rrp::InvalidArgument with a message naming the offending
  /// field/slot when: demand is empty, NaN, negative or infinite; a
  /// price (actual_spot, history or intra_slot_max) is NaN,
  /// non-positive or infinite; a price/revocation series does not match
  /// the demand horizon; the history is empty; initial_storage is NaN,
  /// negative or infinite; or a revocation parameter is outside its
  /// domain.
  void validate() const;
};

struct SlotRecord {
  bool rented = false;
  bool won = false;          ///< auction outcome (true if no auction ran)
  bool spot = false;         ///< acquisition was a won spot instance
  bool revoked = false;      ///< the spot instance was revoked mid-slot
  double bid = 0.0;
  double price_paid = 0.0;   ///< 0 when not rented
  double alpha = 0.0;
  double inventory = 0.0;    ///< end-of-slot beta
};

/// Why a re-plan attempt at some slot produced no usable plan.
enum class FallbackReason {
  SolverTimeout,     ///< the re-plan deadline expired (real or injected)
  NumericalFailure,  ///< the solver escalated rrp::NumericalError
  PlanRejected,      ///< the solver finished without a usable incumbent
};

/// What the recovery ladder executed instead of a fresh plan, in
/// preference order.
enum class FallbackAction {
  ReusedPlanTail,  ///< the previous plan still covered the slot
  HeuristicPlan,   ///< fresh Wagner-Whitin plan on the current estimates
  OnDemand,        ///< rent on demand for exactly this slot's demand
};

const char* to_string(FallbackReason reason);
const char* to_string(FallbackAction action);

/// One degraded re-plan: the slot it happened at, why the fresh plan was
/// unavailable, and which ladder rung served the slot instead.
struct FallbackEvent {
  std::size_t slot = 0;
  FallbackReason reason = FallbackReason::PlanRejected;
  FallbackAction action = FallbackAction::OnDemand;
};

/// One sanitised price-feed fault: the tick as (not) delivered by the
/// faulty feed and the value the models actually consumed.  Settlement
/// always uses the true market price; only the policy's observations
/// degrade.
struct PriceFeedEvent {
  std::size_t slot = 0;
  testing::PriceFaultKind kind = testing::PriceFaultKind::Gap;
  double raw = 0.0;   ///< faulted tick (NaN when nothing arrived)
  double used = 0.0;  ///< sanitised value fed to the models
};

/// Which interruption-recovery rung replaced a revoked spot instance,
/// in preference order (re-acquire spot → migrate type → on-demand).
enum class RevocationRecovery {
  ReacquiredSpot,    ///< same class, same bid (hazard reclaims only)
  MigratedType,      ///< checkpoint moved to another instance type
  OnDemandBackstop,  ///< guaranteed on-demand finishes the slot
};

const char* to_string(RevocationRecovery recovery);

/// One mid-slot revocation of a held spot instance: why it struck, how
/// far into the slot, how much un-checkpointed work was lost, and which
/// recovery rung finished the slot.
struct RevocationEvent {
  std::size_t slot = 0;
  market::RevocationKind kind = market::RevocationKind::Hazard;
  double fraction = 0.0;   ///< slot fraction at which the instance died
  double lost_work = 0.0;  ///< slot fraction of work redone (f - preserved)
  RevocationRecovery recovery = RevocationRecovery::OnDemandBackstop;
};

/// One cross-type migration performed by the recovery ladder.
struct MigrationEvent {
  std::size_t slot = 0;
  market::VmClass from = market::VmClass::C1Medium;
  market::VmClass to = market::VmClass::C1Medium;
  double cost = 0.0;  ///< fixed migration fee paid (checkpoint transfer)
};

/// The outcome of one simulation.  Each event is recorded once, in its
/// log (slots, fallbacks, price_faults, revocations, migrations); the
/// counts over those logs are derived from them, not stored beside them.
struct SimulationResult {
  CostBreakdown cost;        ///< realised, not planned
  std::vector<SlotRecord> slots;

  // --- Degradation telemetry (one FallbackEvent per failed re-plan). ---
  std::vector<FallbackEvent> fallbacks;
  std::vector<PriceFeedEvent> price_faults;

  /// MILP work summed over all re-plans, failed ones included (all zero
  /// for the DP backend).
  milp::SolveWork solver;

  // --- Re-plan latency & model maintenance (ISSUE 10). -----------------
  /// Wall-clock seconds of each executed re-plan (model refresh
  /// included), in execution order; feeds the CLI p50/p95 footer and
  /// bench_replan_json.
  std::vector<double> replan_seconds;
  /// Seconds of replan_seconds spent refreshing models (distribution,
  /// SARIMA, Markov chain) as opposed to solving.
  double model_maintenance_seconds = 0.0;
  std::size_t model_refreshes = 0;
  std::size_t sarima_refits_kept = 0;
  std::size_t sarima_warm_refits = 0;
  std::size_t sarima_scratch_refits = 0;
  std::size_t tree_repairs = 0;   ///< trees repaired from a cached copy
  std::size_t tree_rebuilds = 0;  ///< scenario trees built from scratch

  // --- Revocation telemetry (one RevocationEvent per revoked slot). ---
  std::vector<RevocationEvent> revocations;
  std::vector<MigrationEvent> migrations;
  double checkpoint_overhead_cost = 0.0;

  std::size_t rentals() const;            ///< rented slots
  std::size_t out_of_bid_events() const;  ///< rented slots that lost
  std::size_t degraded_replans() const { return fallbacks.size(); }
  std::size_t count(FallbackReason reason) const;
  std::size_t count(FallbackAction action) const;
  std::size_t revoked_slots() const { return revocations.size(); }
  std::size_t count(market::RevocationKind kind) const;
  std::size_t count(RevocationRecovery recovery) const;
  /// Slot-fraction units of work redone, summed in event order.
  double work_lost() const;
  /// Realised interruption spend (checkpoint + restart + migration).
  double interruption_cost() const { return cost.interruption; }

  double total_cost() const { return cost.total(); }
};

/// Runs the policy over the evaluation window.  Deterministic given the
/// inputs (any model fitting inside is deterministic).
SimulationResult simulate_policy(const SimulationInputs& inputs,
                                 const PolicyConfig& policy);

/// Same, with an optional fault injector (tests / chaos experiments):
/// solver faults fire when the policy attempts a re-plan at the faulted
/// slot; price-feed faults corrupt the observed tick before it reaches
/// the models.  Every injected fault is absorbed by the recovery ladder
/// and recorded in the result's telemetry — the simulation always
/// completes.  A null injector is identical to the two-argument
/// overload.
SimulationResult simulate_policy(const SimulationInputs& inputs,
                                 const PolicyConfig& policy,
                                 const testing::FaultInjector* injector);

/// The paper's ideal case: "an oracle who knows all the future
/// realization of spot instance price in advance, and takes them as
/// input to the DRRP model" — a single full-horizon DRRP solve on the
/// realised prices.  This is a certified lower bound on the realised
/// cost of ANY policy (every policy's executed schedule is feasible for
/// that DRRP, and wins pay spot while losses pay more).
double ideal_case_cost(const SimulationInputs& inputs);

/// Overpay of a policy relative to the ideal-case (oracle) cost, the
/// y-axis of Figure 12(a): (cost - ideal) / ideal.
double overpay_fraction(double policy_cost, double ideal_cost);

}  // namespace rrp::core
