#include "core/srrp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/invariant.hpp"
#include "milp/cuts.hpp"
#include "obs/obs.hpp"

namespace rrp::core {

void SrrpInstance::validate() const {
  RRP_EXPECTS(!demand.empty());
  RRP_EXPECTS(tree.num_stages() == demand.size());
  for (double d : demand) RRP_EXPECTS(d >= 0.0);
  if (!vertex_demand.empty()) {
    RRP_EXPECTS(vertex_demand.size() == tree.num_vertices());
    for (std::size_t v = 1; v < vertex_demand.size(); ++v)
      RRP_EXPECTS(vertex_demand[v] >= 0.0);
  }
  RRP_EXPECTS(initial_storage >= 0.0);
  RRP_EXPECTS(bottleneck_rate >= 0.0);
  if (!bottleneck_capacity.empty())
    RRP_EXPECTS(bottleneck_capacity.size() == demand.size());
}

double SrrpInstance::demand_at_vertex(std::size_t v) const {
  RRP_EXPECTS(v >= 1 && v < tree.num_vertices());
  if (!vertex_demand.empty()) return vertex_demand[v];
  return demand[tree.vertex(v).stage - 1];
}

std::pair<ScenarioTree, std::vector<double>> build_joint_tree(
    std::span<const std::vector<JointPoint>> stage_supports) {
  RRP_EXPECTS(!stage_supports.empty());
  std::vector<std::vector<PricePoint>> price_supports;
  price_supports.reserve(stage_supports.size());
  for (const auto& stage : stage_supports) {
    RRP_EXPECTS(!stage.empty());
    std::vector<PricePoint> prices;
    prices.reserve(stage.size());
    for (const JointPoint& p : stage) {
      RRP_EXPECTS(p.demand >= 0.0);
      prices.push_back(p.price);
    }
    price_supports.push_back(std::move(prices));
  }
  ScenarioTree tree = ScenarioTree::build(price_supports);
  // The ScenarioTree layout (see scenario_tree.hpp) is parent-major,
  // support-minor within each stage, so the joint point for a vertex is
  // its position in the stage modulo the support size.
  std::vector<double> vertex_demand(tree.num_vertices(), 0.0);
  for (std::size_t stage = 1; stage <= tree.num_stages(); ++stage) {
    const auto verts = tree.stage_vertices(stage);
    const auto& support = stage_supports[stage - 1];
    for (std::size_t i = 0; i < verts.size(); ++i)
      vertex_demand[verts[i]] = support[i % support.size()].demand;
  }
  return {std::move(tree), std::move(vertex_demand)};
}

namespace {

/// The aggregated core shared by both SRRP formulations: alpha, beta
/// and chi per non-root vertex, the probability-weighted objective (13)
/// and the tree inventory balance (14).
void add_srrp_core(const SrrpInstance& inst, milp::Model& model,
                   std::vector<milp::Var>& alpha, std::vector<milp::Var>& beta,
                   std::vector<milp::Var>& chi) {
  const ScenarioTree& tree = inst.tree;
  const std::size_t V = tree.num_vertices();
  for (std::size_t u = 1; u < V; ++u) {
    alpha[u] = model.add_continuous(0.0, lp::kInfinity);
    beta[u] = model.add_continuous(0.0, lp::kInfinity);
    chi[u] = model.add_binary();
  }

  // Objective (13): probability-weighted per-vertex costs.  tau(v) = t
  // means slot t, whose demand is demand[t-1].
  model.set_objective_sense(milp::Objective::Minimize);
  for (std::size_t u = 1; u < V; ++u) {
    const ScenarioVertex& vert = tree.vertex(u);
    const std::size_t slot = vert.stage - 1;
    const double pv = vert.path_prob;
    model.add_objective_term(alpha[u], pv * inst.costs.transfer_in(slot) *
                                           inst.costs.input_output_ratio());
    model.add_objective_term(beta[u], pv * inst.costs.holding(slot));
    model.add_objective_constant(
        pv * inst.costs.delivery_cost(inst.demand_at_vertex(u), slot));
    model.add_objective_term(chi[u], pv * vert.price);
  }
}

/// (14) inventory balance at vertex u; the root's inventory is the
/// epsilon of (17).
void add_srrp_balance(const SrrpInstance& inst, milp::Model& model,
                      const std::vector<milp::Var>& alpha,
                      const std::vector<milp::Var>& beta, std::size_t u) {
  const ScenarioVertex& vert = inst.tree.vertex(u);
  const double demand = inst.demand_at_vertex(u);
  if (vert.parent == inst.tree.root()) {
    model.add_row({{alpha[u].id, 1.0}, {beta[u].id, -1.0}},
                  demand - inst.initial_storage,
                  demand - inst.initial_storage);
  } else {
    model.add_row({{beta[vert.parent].id, 1.0},
                   {alpha[u].id, 1.0},
                   {beta[u].id, -1.0}},
                  demand, demand);
  }
}

/// Worst-case remaining demand below each vertex (max over paths): a
/// valid tight forcing bound even with per-vertex demand.
std::vector<double> remaining_demand(const SrrpInstance& inst) {
  const ScenarioTree& tree = inst.tree;
  std::vector<double> remaining(tree.num_vertices(), 0.0);
  for (std::size_t u = tree.num_vertices(); u-- > 1;) {
    double best_child = 0.0;
    for (std::size_t c : tree.children(u))
      best_child = std::max(best_child, remaining[c]);
    remaining[u] = inst.demand_at_vertex(u) + best_child;
  }
  return remaining;
}

}  // namespace

milp::Model build_srrp(const SrrpInstance& inst, SrrpVariables* vars) {
  inst.validate();
  const ScenarioTree& tree = inst.tree;
  const std::size_t V = tree.num_vertices();
  const bool capacitated =
      inst.bottleneck_rate > 0.0 && !inst.bottleneck_capacity.empty();

  milp::Model model;
  SrrpVariables v;
  v.alpha.resize(V);
  v.beta.resize(V);
  v.chi.resize(V);

  const std::vector<double> remaining = remaining_demand(inst);
  double loose_bound = inst.initial_storage + 1.0;
  for (std::size_t c : tree.children(tree.root()))
    loose_bound = std::max(loose_bound, remaining[c] + inst.initial_storage + 1.0);

  add_srrp_core(inst, model, v.alpha, v.beta, v.chi);
  for (std::size_t u = 1; u < V; ++u) {
    add_srrp_balance(inst, model, v.alpha, v.beta, u);

    // (16) forcing with the lot-sizing-tight bound.
    const double big_b = inst.tighten_forcing_bound
                             ? std::max(remaining[u], 1e-9)
                             : loose_bound;
    model.add_row({{v.alpha[u].id, 1.0}, {v.chi[u].id, -big_b}},
                  -lp::kInfinity, 0.0);

    // (15) bottleneck, when modelled.
    if (capacitated) {
      model.add_row({{v.alpha[u].id, inst.bottleneck_rate}}, -lp::kInfinity,
                    inst.bottleneck_capacity[tree.vertex(u).stage - 1]);
    }
  }

  if (vars != nullptr) *vars = std::move(v);
  return model;
}

milp::Model build_srrp_facility_location(const SrrpInstance& inst,
                                         SrrpFlVariables* vars) {
  inst.validate();
  if (inst.bottleneck_rate > 0.0 && !inst.bottleneck_capacity.empty()) {
    throw InvalidArgument(
        "the strengthened formulation requires an uncapacitated "
        "instance");
  }
  const ScenarioTree& tree = inst.tree;
  const std::size_t V = tree.num_vertices();
  const bool has_eps = inst.initial_storage > 0.0;
  auto demand_at = [&](std::size_t u) { return inst.demand_at_vertex(u); };

  milp::Model model;
  SrrpFlVariables v;
  v.alpha.assign(V, milp::Var{});
  v.beta.assign(V, milp::Var{});
  v.chi.assign(V, milp::Var{});
  v.eps_use.assign(V, milp::Var{});

  const std::vector<double> remaining = remaining_demand(inst);

  // --- Aggregated core: exact objective and balance semantics. ---
  add_srrp_core(inst, model, v.alpha, v.beta, v.chi);
  for (std::size_t u = 1; u < V; ++u) {
    add_srrp_balance(inst, model, v.alpha, v.beta, u);
    model.add_row(
        {{v.alpha[u].id, 1.0}, {v.chi[u].id, -std::max(remaining[u], 1e-9)}},
        -lp::kInfinity, 0.0);
  }

  // --- Strengthening block: coverage arcs. ---
  //
  // y[u][vtx] decomposes how vtx's demand is covered along its root
  // path (FIFO decomposition always exists for a feasible plan, so the
  // block never changes the optimum).  Its power is the disaggregated
  // coupling y <= D * chi, the facility-location cut that makes the LP
  // relaxation nearly integral.  The arcs into vtx are consecutive, from
  // vtx itself up to its stage-1 ancestor: the arc from the ancestor at
  // stage s is v.arcs[first_arc[vtx] + stage(vtx) - s].
  std::vector<std::size_t> first_arc(V, 0);
  for (std::size_t vtx = 1; vtx < V; ++vtx) {
    const double dv = demand_at(vtx);
    if (dv <= 0.0) continue;
    first_arc[vtx] = v.arcs.size();
    std::size_t u = vtx;
    for (;;) {
      SrrpFlVariables::Arc arc;
      arc.from = u;
      arc.to = vtx;
      arc.amount = model.add_continuous(0.0, dv);
      model.add_row({{v.chi[u].id, -dv}, {arc.amount.id, 1.0}},
                    -lp::kInfinity, 0.0);
      v.arcs.push_back(arc);
      if (tree.vertex(u).parent == tree.root()) break;
      u = tree.vertex(u).parent;
    }
    if (has_eps) {
      v.eps_use[vtx] =
          model.add_continuous(0.0, std::min(inst.initial_storage, dv));
    }
  }
  std::vector<lp::Entry> row;
  row.reserve(tree.num_stages() + 1);
  for (std::size_t vtx = 1; vtx < V; ++vtx) {
    if (demand_at(vtx) <= 0.0) continue;
    row.clear();
    const std::size_t stage = tree.vertex(vtx).stage;
    for (std::size_t k = 0; k < stage; ++k)
      row.push_back(lp::Entry{v.arcs[first_arc[vtx] + k].amount.id, 1.0});
    if (v.eps_use[vtx].valid())
      row.push_back(lp::Entry{v.eps_use[vtx].id, 1.0});
    model.add_row(row, demand_at(vtx), demand_at(vtx));
  }
  // Per-scenario production links: along any root-to-leaf path, the
  // arcs drawn from a producing vertex u cannot exceed alpha_u; and the
  // epsilon drawn cannot exceed the initial storage.
  for (std::size_t leaf : tree.leaves()) {
    const auto path = tree.path_from_root(leaf);  // path[s - 1] at stage s
    for (std::size_t su = 1; su <= path.size(); ++su) {
      const std::size_t u = path[su - 1];
      row.clear();
      row.push_back(lp::Entry{v.alpha[u].id, -1.0});
      for (std::size_t s = su; s <= path.size(); ++s) {
        const std::size_t vtx = path[s - 1];
        if (demand_at(vtx) <= 0.0) continue;
        row.push_back(
            lp::Entry{v.arcs[first_arc[vtx] + s - su].amount.id, 1.0});
      }
      if (row.size() > 1) model.add_row(row, -lp::kInfinity, 0.0);
    }
    row.clear();
    for (std::size_t u : path)
      if (v.eps_use[u].valid()) row.push_back(lp::Entry{v.eps_use[u].id, 1.0});
    if (!row.empty()) model.add_row(row, -lp::kInfinity, inst.initial_storage);
  }

  if (vars != nullptr) *vars = std::move(v);
  return model;
}

namespace {

#if RRP_INVARIANTS_ENABLED
/// Inventory-balance verification of a returned policy along every tree
/// edge: each vertex's inventory equals its parent's inventory (or the
/// initial storage for stage-1 vertices) plus generation minus demand,
/// and generation forces a rented machine.
void verify_policy_balance(const SrrpInstance& inst,
                           const SrrpPolicy& policy) {
  if (policy.alpha.empty()) return;
  const ScenarioTree& tree = inst.tree;
  const std::size_t V = tree.num_vertices();
  RRP_INVARIANT(policy.alpha.size() == V);
  RRP_INVARIANT(policy.beta.size() == V);
  RRP_INVARIANT(policy.chi.size() == V);
  for (std::size_t u = 1; u < V; ++u) {
    const ScenarioVertex& vert = tree.vertex(u);
    const double inflow = vert.parent == tree.root()
                              ? inst.initial_storage
                              : policy.beta[vert.parent];
    const double demand = inst.demand_at_vertex(u);
    const double expected = inflow + policy.alpha[u] - demand;
    const double scale = 1.0 + std::fabs(inflow) + demand;
    RRP_INVARIANT_MSG(policy.alpha[u] >= -1e-9,
                      "negative generation at vertex " + std::to_string(u));
    RRP_INVARIANT_MSG(policy.beta[u] >= -1e-9,
                      "negative inventory at vertex " + std::to_string(u));
    RRP_INVARIANT(policy.chi[u] == 0 || policy.chi[u] == 1);
    RRP_INVARIANT_MSG(policy.chi[u] == 1 || policy.alpha[u] <= 1e-6 * scale,
                      "generation without a rented machine at vertex " +
                          std::to_string(u));
    RRP_INVARIANT_MSG(std::fabs(policy.beta[u] - expected) <= 1e-5 * scale,
                      "tree inventory balance off by " +
                          std::to_string(policy.beta[u] - expected) +
                          " at vertex " + std::to_string(u));
  }
}
#endif

SrrpPolicy solve_srrp_aggregated(const SrrpInstance& inst,
                                 const milp::BnbOptions& options) {
  SrrpVariables vars;
  const milp::Model model = [&] {
    RRP_TRACE_SPAN("core.build_model");
    return build_srrp(inst, &vars);
  }();

  // Each root-to-leaf path of the scenario tree is one single-item
  // lot-sizing chain (the (l,S) cuts only involve that scenario's
  // variables, so they are valid per path); chains sharing a tree
  // prefix separate duplicate cuts, which the B&B cut pool drops.
  milp::LotSizingCutGenerator lot_cuts;
  milp::BnbOptions opt = options;
  if (opt.root_cuts && opt.cut_generator == nullptr) {
    for (std::size_t leaf : inst.tree.leaves()) {
      const auto path = inst.tree.path_from_root(leaf);
      std::vector<milp::LotSlot> slots;
      slots.reserve(path.size());
      for (std::size_t u : path) {
        if (u == inst.tree.root()) continue;
        slots.push_back(milp::LotSlot{vars.alpha[u].id, vars.chi[u].id,
                                      inst.demand_at_vertex(u)});
      }
      if (!slots.empty()) lot_cuts.add_chain(std::move(slots),
                                             inst.initial_storage);
    }
    opt.cut_generator = &lot_cuts;
  }
  const milp::MipResult result = milp::solve(model, opt);

  RRP_TRACE_SPAN("core.extract_plan");
  SrrpPolicy policy;
  policy.status = result.status;
  policy.work = result.work;
  policy.root_gap_closed = result.root_gap_closed;
  if (result.x.empty()) return policy;

  const std::size_t V = inst.tree.num_vertices();
  policy.alpha.assign(V, 0.0);
  policy.beta.assign(V, 0.0);
  policy.chi.assign(V, 0);
  for (std::size_t u = 1; u < V; ++u) {
    policy.alpha[u] = std::max(result.x[vars.alpha[u].id], 0.0);
    policy.beta[u] = std::max(result.x[vars.beta[u].id], 0.0);
    policy.chi[u] = result.x[vars.chi[u].id] > 0.5 ? 1 : 0;
  }
  policy.expected_cost = result.objective;
#if RRP_INVARIANTS_ENABLED
  verify_policy_balance(inst, policy);
#endif
  return policy;
}

SrrpPolicy solve_srrp_fl(const SrrpInstance& inst,
                         const milp::BnbOptions& options) {
  SrrpFlVariables vars;
  const milp::Model model = [&] {
    RRP_TRACE_SPAN("core.build_model");
    return build_srrp_facility_location(inst, &vars);
  }();
  const milp::MipResult result = milp::solve(model, options);

  RRP_TRACE_SPAN("core.extract_plan");
  SrrpPolicy policy;
  policy.status = result.status;
  policy.work = result.work;
  if (result.x.empty()) return policy;

  const std::size_t V = inst.tree.num_vertices();
  policy.alpha.assign(V, 0.0);
  policy.beta.assign(V, 0.0);
  policy.chi.assign(V, 0);
  for (std::size_t u = 1; u < V; ++u) {
    policy.alpha[u] = std::max(result.x[vars.alpha[u].id], 0.0);
    policy.beta[u] = std::max(result.x[vars.beta[u].id], 0.0);
    policy.chi[u] = result.x[vars.chi[u].id] > 0.5 ? 1 : 0;
  }
  policy.expected_cost = result.objective;
#if RRP_INVARIANTS_ENABLED
  verify_policy_balance(inst, policy);
#endif
  return policy;
}

}  // namespace

SrrpPolicy solve_srrp(const SrrpInstance& inst,
                      const milp::BnbOptions& options,
                      SrrpFormulation formulation) {
  const bool capacitated =
      inst.bottleneck_rate > 0.0 && !inst.bottleneck_capacity.empty();
  if (formulation == SrrpFormulation::Auto) {
    formulation = capacitated ? SrrpFormulation::Aggregated
                              : SrrpFormulation::FacilityLocation;
  }
  if (formulation == SrrpFormulation::FacilityLocation)
    return solve_srrp_fl(inst, options);
  return solve_srrp_aggregated(inst, options);
}

std::vector<std::vector<PricePoint>> make_stage_supports(
    const EmpiricalPriceDistribution& base, std::span<const double> bids,
    double lambda, std::span<const std::size_t> stage_widths) {
  RRP_EXPECTS(!bids.empty());
  RRP_EXPECTS(stage_widths.size() == bids.size());
  std::vector<std::vector<PricePoint>> supports;
  supports.reserve(bids.size());
  for (std::size_t t = 0; t < bids.size(); ++t) {
    RRP_EXPECTS(stage_widths[t] >= 1);
    auto points = base.truncate_at_bid(bids[t], lambda);
    supports.push_back(reduce_support(points, stage_widths[t]));
  }
  return supports;
}

std::size_t match_stage1_vertex(const ScenarioTree& tree, bool won,
                                double realized_price) {
  const auto stage1 = tree.stage_vertices(1);
  RRP_EXPECTS(!stage1.empty());
  std::size_t best = stage1.front();
  double best_dist = std::numeric_limits<double>::infinity();
  bool found = false;
  for (std::size_t u : stage1) {
    const ScenarioVertex& vert = tree.vertex(u);
    if (vert.out_of_bid != !won) continue;
    const double dist = std::fabs(vert.price - realized_price);
    if (dist < best_dist) {
      best_dist = dist;
      best = u;
      found = true;
    }
  }
  if (!found) {
    // No vertex of the realised kind (e.g. the model gave out-of-bid
    // zero probability but it happened): fall back to the nearest
    // vertex by price.
    for (std::size_t u : stage1) {
      const double dist = std::fabs(tree.vertex(u).price - realized_price);
      if (dist < best_dist) {
        best_dist = dist;
        best = u;
      }
    }
  }
  return best;
}

}  // namespace rrp::core
