// Stochastic Resource Rental Planning (SRRP) — paper Section IV.
//
// SRRP minimises the *expected* rental cost (9) over a multistage
// scenario tree of spot-price realisations, via the deterministic
// equivalent MILP (13)-(19): every tree vertex v carries its own
// recourse variables alpha_v, beta_v, chi_v, probability-weighted in
// the objective and chained through the tree's parent relation in the
// inventory balance (non-anticipativity holds by construction, since a
// vertex's decision is shared by every scenario passing through it).
#pragma once

#include "core/drrp.hpp"
#include "core/scenario_tree.hpp"

namespace rrp::core {

struct SrrpInstance {
  market::VmClass vm = market::VmClass::C1Medium;
  std::vector<double> demand;  ///< D(t) for t = 1..T (index 0 = slot 1)
  ScenarioTree tree;           ///< num_stages() must equal demand.size()
  market::CostModel costs = market::CostModel::paper_defaults();
  double initial_storage = 0.0;
  double bottleneck_rate = 0.0;
  std::vector<double> bottleneck_capacity;  ///< per stage; empty = +inf
  bool tighten_forcing_bound = true;
  /// Optional per-vertex demand (size = tree.num_vertices(); entry 0
  /// unused), overriding the per-stage `demand` — this is the paper's
  /// future-work extension to *time-varying workloads*: scenario-tree
  /// vertices then carry joint (price, demand) states.
  std::vector<double> vertex_demand;

  std::size_t horizon() const { return demand.size(); }
  /// Demand at a tree vertex (stage demand unless overridden).
  double demand_at_vertex(std::size_t v) const;
  void validate() const;
};

/// One joint (price, demand) state used to build stage supports for the
/// demand-uncertainty extension.
struct JointPoint {
  PricePoint price;
  double demand = 0.0;
};

/// Builds a scenario tree whose vertices carry joint (price, demand)
/// realisations, and the matching per-vertex demand vector.  Each
/// stage's joint points must have probabilities summing to 1.
std::pair<ScenarioTree, std::vector<double>> build_joint_tree(
    std::span<const std::vector<JointPoint>> stage_supports);

/// SRRP solution: one decision triple per tree vertex (vertex 0 is the
/// root and carries no decision; its entries are zero).
struct SrrpPolicy {
  milp::MipStatus status = milp::MipStatus::NoIncumbent;
  std::vector<double> alpha, beta;
  std::vector<char> chi;
  double expected_cost = 0.0;
  /// The MILP solve's work (milp::MipResult::work); all zero for the
  /// tree-DP backend.  Root (l,S) cuts come one chain per scenario path.
  milp::SolveWork work;
  /// Root-gap fraction the cuts closed; zero outside the aggregated
  /// MILP backend.
  double root_gap_closed = 0.0;

  bool feasible() const {
    return status == milp::MipStatus::Optimal ||
           status == milp::MipStatus::NodeLimit ||
           status == milp::MipStatus::TimeLimit;
  }
};

/// Variable handles into the MILP, indexed by vertex (entry 0 unused).
struct SrrpVariables {
  std::vector<milp::Var> alpha, beta, chi;
};

/// Formulation of the deterministic equivalent.
enum class SrrpFormulation {
  Auto,         ///< FacilityLocation unless the bottleneck is active
  /// The paper's (13)-(19) verbatim.  Weak LP relaxation: branch &
  /// bound over ~|V| binaries explodes beyond toy trees.
  Aggregated,
  /// Path-arc strengthened deterministic equivalent: the aggregated
  /// variables and objective, plus redundant coverage arcs
  /// y[u][v] <= D_v * chi_u (u an ancestor-or-self of v) tied to the
  /// production variables per scenario path.  On a chain this is
  /// exactly the Krarup-Bilde facility-location strength; on a tree a
  /// naive pairwise FL would be WRONG (one unit of inventory may serve
  /// different demands in mutually exclusive branches), so the arcs
  /// here only *cut* the relaxation while alpha/beta keep the exact
  /// cost semantics.
  FacilityLocation,
};

/// Handles into the strengthened MILP.
struct SrrpFlVariables {
  struct Arc {
    std::size_t from;  ///< generating vertex u
    std::size_t to;    ///< served vertex v (u is an ancestor-or-self)
    milp::Var amount;
  };
  std::vector<milp::Var> alpha, beta, chi;  ///< per vertex (entry 0 unused)
  std::vector<Arc> arcs;
  std::vector<milp::Var> eps_use;  ///< per vertex (invalid if absent)
};

/// Lowers to the paper's aggregated deterministic equivalent.
milp::Model build_srrp(const SrrpInstance& instance, SrrpVariables* vars);

/// Lowers to the tree facility-location MILP (uncapacitated only).
milp::Model build_srrp_facility_location(const SrrpInstance& instance,
                                         SrrpFlVariables* vars);

/// Builds and solves the deterministic equivalent.
SrrpPolicy solve_srrp(const SrrpInstance& instance,
                      const milp::BnbOptions& options = {},
                      SrrpFormulation formulation = SrrpFormulation::Auto);

/// Builds per-stage branch supports for the tree via bid-dependent
/// dynamic sampling: stage t uses bid[t] against the base distribution,
/// out-of-bid mass collapsing onto lambda; each stage's support is then
/// reduced to stage_widths[t] points (out-of-bid state preserved).
std::vector<std::vector<PricePoint>> make_stage_supports(
    const EmpiricalPriceDistribution& base, std::span<const double> bids,
    double lambda, std::span<const std::size_t> stage_widths);

/// Picks the stage-1 vertex matching a realised acquisition: the
/// out-of-bid vertex when the bid lost, otherwise the in-bid vertex
/// whose price is nearest the realised spot price.
std::size_t match_stage1_vertex(const ScenarioTree& tree, bool won,
                                double realized_price);

}  // namespace rrp::core
