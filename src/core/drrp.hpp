// Deterministic Resource Rental Planning (DRRP) — paper Section III.
//
// Given known demand D(i,t) and deterministic cost parameters over a
// horizon, DRRP chooses per-slot data generation alpha, inventory beta
// and rental decisions chi minimising objective (1) subject to:
//   (2) inventory balance  beta_{t-1} + alpha_t - beta_t = D_t
//   (3) bottleneck         P * alpha_t <= Q_t           (optional)
//   (4) forcing            alpha_t <= B * chi_t
//   (5) initial inventory  beta_0 = epsilon
//   (6,7) domains          alpha,beta >= 0, chi binary
//
// This is a dynamic lot-sizing MILP; one instance covers a single VM
// class (the paper's multi-class objective is separable across classes,
// so rrp solves one model per class — exactly equivalent and faster).
#pragma once

#include <cstddef>
#include <vector>

#include "market/cost_model.hpp"
#include "market/instance_types.hpp"
#include "milp/branch_and_bound.hpp"

namespace rrp::core {

/// One DRRP problem for one VM class.
struct DrrpInstance {
  market::VmClass vm = market::VmClass::C1Medium;
  std::vector<double> demand;         ///< D(t), one per slot; all >= 0
  std::vector<double> compute_price;  ///< Cp(t), one per slot; all > 0
  market::CostModel costs = market::CostModel::paper_defaults();
  double initial_storage = 0.0;       ///< epsilon in constraint (5)
  /// Bottleneck resource (constraint (3)); rate == 0 disables it, as in
  /// the paper's evaluation where VMs are amply provisioned.
  double bottleneck_rate = 0.0;                 ///< P(i)
  std::vector<double> bottleneck_capacity;      ///< Q(t); empty = +inf
  /// Use the lot-sizing-tight forcing bound B_t = remaining demand
  /// instead of one loose global constant (see DESIGN.md ablation 1).
  bool tighten_forcing_bound = true;

  std::size_t horizon() const { return demand.size(); }
  void validate() const;
};

/// Cost decomposition in the terms of paper Figure 10 (lower panel),
/// plus the interruption term of the revocation-aware simulator.
struct CostBreakdown {
  double compute = 0.0;       ///< sum Cp * chi
  double holding = 0.0;       ///< sum (Cs + Cio) * beta — "I/O+Storage"
  double transfer_in = 0.0;   ///< sum C+f * Phi * alpha
  double transfer_out = 0.0;  ///< sum C-f * D
  /// Revocation consequences (checkpoint overhead, restart and
  /// migration fees); always 0 for planned schedules — only the
  /// rolling-horizon simulator realises interruptions (ISSUE 7).
  double interruption = 0.0;
  double total() const {
    return compute + holding + transfer_in + transfer_out + interruption;
  }
  /// "Transfer" as plotted by the paper: in + out.
  double transfer() const { return transfer_in + transfer_out; }
};

/// An executed or planned rental schedule.
struct RentalPlan {
  milp::MipStatus status = milp::MipStatus::NoIncumbent;
  std::vector<double> alpha;  ///< data generated per slot
  std::vector<double> beta;   ///< inventory at the end of each slot
  std::vector<char> chi;      ///< rental decision per slot
  CostBreakdown cost;
  /// The MILP solve's work (milp::MipResult::work); all zero for
  /// non-MILP backends (Wagner-Whitin, DP).
  milp::SolveWork work;
  /// Fraction of the root gap the (l,S) lot-sizing cuts closed; zero
  /// for non-MILP backends.
  double root_gap_closed = 0.0;

  bool feasible() const {
    return status == milp::MipStatus::Optimal ||
           status == milp::MipStatus::NodeLimit ||
           status == milp::MipStatus::TimeLimit;
  }
};

/// MILP formulation choice for solve_drrp.
enum class DrrpFormulation {
  /// Pick FacilityLocation when the instance is uncapacitated,
  /// Aggregated otherwise.
  Auto,
  /// The paper's objective (1) with constraints (2)-(7).  Exact, but
  /// its LP relaxation is weak (fractional chi = alpha/B), so branch &
  /// bound explores many nodes.
  Aggregated,
  /// Krarup-Bilde disaggregation: y[t][s] units generated in slot t to
  /// serve slot s, with y <= D_s * chi_t.  Provably equivalent, and the
  /// LP relaxation of uncapacitated lot-sizing in this form is
  /// integral, so branch & bound usually finishes at the root.
  FacilityLocation,
};

/// Variable handles into the MILP built by build_drrp (slot-major).
struct DrrpVariables {
  std::vector<milp::Var> alpha, beta, chi;
};

/// Handles into the facility-location MILP.
struct DrrpFlVariables {
  struct Arc {
    std::size_t from;  ///< generation slot t
    std::size_t to;    ///< served slot s >= t
    milp::Var amount;  ///< GB generated at t for s
  };
  std::vector<milp::Var> chi;      ///< per slot
  std::vector<Arc> arcs;
  std::vector<milp::Var> eps_use;  ///< GB of initial storage used per slot
};

/// Lowers a DRRP instance to the paper's aggregated MILP.
milp::Model build_drrp(const DrrpInstance& instance, DrrpVariables* vars);

/// Lowers to the facility-location MILP (uncapacitated instances only).
milp::Model build_drrp_facility_location(const DrrpInstance& instance,
                                         DrrpFlVariables* vars);

/// Builds and solves; extracts the plan and its cost decomposition.
RentalPlan solve_drrp(const DrrpInstance& instance,
                      const milp::BnbOptions& options = {},
                      DrrpFormulation formulation = DrrpFormulation::Auto);

/// The no-planning baseline of Figure 10: every slot generates exactly
/// that slot's demand on a freshly rented instance (chi_t = 1 whenever
/// D_t > 0; no inventory is carried beyond the initial epsilon, which
/// serves the earliest demand).
RentalPlan no_plan_schedule(const DrrpInstance& instance);

/// Evaluates the cost decomposition of an arbitrary (alpha, chi)
/// schedule on an instance, reconstructing beta from the balance
/// equation.  Throws if the schedule under-serves demand.
CostBreakdown evaluate_schedule(const DrrpInstance& instance,
                                const std::vector<double>& alpha,
                                const std::vector<char>& chi);

}  // namespace rrp::core
