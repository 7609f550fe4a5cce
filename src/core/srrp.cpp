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

namespace {

// Composed with += rather than `"alpha" + suffix` to dodge a GCC 12
// -Wrestrict false positive (PR105651) under -Werror.
std::string vertex_name(const char* base, std::size_t u) {
  std::string name(base);
  name += "[v";
  name += std::to_string(u);
  name += ']';
  return name;
}

}  // namespace

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

milp::Model build_srrp(const SrrpInstance& inst, SrrpVariables* vars) {
  inst.validate();
  const ScenarioTree& tree = inst.tree;
  const std::size_t V = tree.num_vertices();

  milp::Model model;
  SrrpVariables v;
  v.alpha.resize(V);
  v.beta.resize(V);
  v.chi.resize(V);

  // Worst-case remaining demand below each vertex (max over paths):
  // a valid tight forcing bound even with per-vertex demand.
  std::vector<double> remaining(V, 0.0);
  for (std::size_t u = V; u-- > 1;) {
    double best_child = 0.0;
    for (std::size_t c : tree.children(u))
      best_child = std::max(best_child, remaining[c]);
    remaining[u] = inst.demand_at_vertex(u) + best_child;
  }
  double loose_bound = inst.initial_storage + 1.0;
  for (std::size_t c : tree.children(tree.root()))
    loose_bound = std::max(loose_bound, remaining[c] + inst.initial_storage + 1.0);

  for (std::size_t u = 1; u < V; ++u) {
    v.alpha[u] =
        model.add_continuous(0.0, lp::kInfinity, vertex_name("alpha", u));
    v.beta[u] =
        model.add_continuous(0.0, lp::kInfinity, vertex_name("beta", u));
    v.chi[u] = model.add_binary(vertex_name("chi", u));
  }

  // Objective (13): probability-weighted per-vertex costs.  tau(v) = t
  // means slot t, whose demand is demand[t-1].
  milp::LinExpr objective;
  for (std::size_t u = 1; u < V; ++u) {
    const ScenarioVertex& vert = tree.vertex(u);
    const std::size_t slot = vert.stage - 1;
    const double pv = vert.path_prob;
    objective += pv * inst.costs.transfer_in(slot) *
                 inst.costs.input_output_ratio() * milp::LinExpr(v.alpha[u]);
    objective += pv * inst.costs.holding(slot) * milp::LinExpr(v.beta[u]);
    objective += pv * inst.costs.delivery_cost(inst.demand_at_vertex(u), slot);
    objective += pv * vert.price * milp::LinExpr(v.chi[u]);
  }
  model.set_objective(std::move(objective), milp::Objective::Minimize);

  for (std::size_t u = 1; u < V; ++u) {
    const ScenarioVertex& vert = tree.vertex(u);
    const std::size_t slot = vert.stage - 1;

    // (14) inventory balance along the tree; the root's inventory is
    // the epsilon of (17).
    milp::LinExpr balance =
        milp::LinExpr(v.alpha[u]) - milp::LinExpr(v.beta[u]);
    if (vert.parent == tree.root()) {
      balance += inst.initial_storage;
    } else {
      balance += milp::LinExpr(v.beta[vert.parent]);
    }
    model.add_constraint(std::move(balance) == inst.demand_at_vertex(u));

    // (16) forcing with the lot-sizing-tight bound.
    const double big_b = inst.tighten_forcing_bound
                             ? std::max(remaining[u], 1e-9)
                             : loose_bound;
    model.add_constraint(
        milp::LinExpr(v.alpha[u]) - big_b * milp::LinExpr(v.chi[u]) <= 0.0);

    // (15) bottleneck, when modelled.
    if (inst.bottleneck_rate > 0.0 && !inst.bottleneck_capacity.empty()) {
      model.add_constraint(inst.bottleneck_rate *
                               milp::LinExpr(v.alpha[u]) <=
                           inst.bottleneck_capacity[slot]);
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
  milp::Model model;
  SrrpFlVariables v;
  v.alpha.assign(V, milp::Var{});
  v.beta.assign(V, milp::Var{});
  v.chi.assign(V, milp::Var{});
  v.eps_use.assign(V, milp::Var{});

  auto slot_of = [&tree](std::size_t u) { return tree.vertex(u).stage - 1; };
  auto demand_at = [&](std::size_t u) { return inst.demand_at_vertex(u); };

  // Worst-case remaining demand below each vertex (max over paths).
  std::vector<double> remaining(V, 0.0);
  for (std::size_t u = V; u-- > 1;) {
    double best_child = 0.0;
    for (std::size_t c : tree.children(u))
      best_child = std::max(best_child, remaining[c]);
    remaining[u] = demand_at(u) + best_child;
  }

  // --- Aggregated core: exact objective and balance semantics. ---
  for (std::size_t u = 1; u < V; ++u) {
    v.alpha[u] =
        model.add_continuous(0.0, lp::kInfinity, vertex_name("alpha", u));
    v.beta[u] =
        model.add_continuous(0.0, lp::kInfinity, vertex_name("beta", u));
    v.chi[u] = model.add_binary(vertex_name("chi", u));
  }
  milp::LinExpr objective;
  for (std::size_t u = 1; u < V; ++u) {
    const ScenarioVertex& vert = tree.vertex(u);
    const std::size_t slot = slot_of(u);
    const double pv = vert.path_prob;
    objective += pv * inst.costs.transfer_in(slot) *
                 inst.costs.input_output_ratio() * milp::LinExpr(v.alpha[u]);
    objective += pv * inst.costs.holding(slot) * milp::LinExpr(v.beta[u]);
    objective += pv * inst.costs.delivery_cost(demand_at(u), slot);
    objective += pv * vert.price * milp::LinExpr(v.chi[u]);
  }
  model.set_objective(std::move(objective), milp::Objective::Minimize);

  for (std::size_t u = 1; u < V; ++u) {
    const ScenarioVertex& vert = tree.vertex(u);
    milp::LinExpr balance =
        milp::LinExpr(v.alpha[u]) - milp::LinExpr(v.beta[u]);
    if (vert.parent == tree.root()) {
      balance += inst.initial_storage;
    } else {
      balance += milp::LinExpr(v.beta[vert.parent]);
    }
    model.add_constraint(std::move(balance) == demand_at(u));
    model.add_constraint(milp::LinExpr(v.alpha[u]) -
                             std::max(remaining[u], 1e-9) *
                                 milp::LinExpr(v.chi[u]) <=
                         0.0);
  }

  // --- Strengthening block: coverage arcs. ---
  //
  // y[u][vtx] decomposes how vtx's demand is covered along its root
  // path (FIFO decomposition always exists for a feasible plan, so the
  // block never changes the optimum).  Its power is the disaggregated
  // coupling y <= D * chi, the facility-location cut that makes the LP
  // relaxation nearly integral.
  const bool has_eps = inst.initial_storage > 0.0;
  std::vector<milp::LinExpr> supply(V);          // per demand vertex
  std::vector<milp::LinExpr> path_use(V);        // per producing vertex:
                                                 // filled leaf-wise below
  for (std::size_t vtx = 1; vtx < V; ++vtx) {
    const double dv = demand_at(vtx);
    if (dv <= 0.0) continue;
    std::size_t u = vtx;
    for (;;) {
      SrrpFlVariables::Arc arc;
      arc.from = u;
      arc.to = vtx;
      arc.amount = model.add_continuous(
          0.0, dv,
          "y[v" + std::to_string(u) + ",v" + std::to_string(vtx) + "]");
      supply[vtx] += milp::LinExpr(arc.amount);
      model.add_constraint(milp::LinExpr(arc.amount) -
                               dv * milp::LinExpr(v.chi[u]) <=
                           0.0);
      v.arcs.push_back(arc);
      if (tree.vertex(u).parent == tree.root()) break;
      u = tree.vertex(u).parent;
    }
    if (has_eps) {
      v.eps_use[vtx] = model.add_continuous(
          0.0, std::min(inst.initial_storage, dv),
          "eps[v" + std::to_string(vtx) + "]");
      supply[vtx] += milp::LinExpr(v.eps_use[vtx]);
    }
  }
  for (std::size_t vtx = 1; vtx < V; ++vtx) {
    if (demand_at(vtx) <= 0.0) continue;
    model.add_constraint(std::move(supply[vtx]) == demand_at(vtx));
  }
  // Per-scenario production links: along any root-to-leaf path, the
  // arcs drawn from a producing vertex u cannot exceed alpha_u; and the
  // epsilon drawn cannot exceed the initial storage.
  for (std::size_t leaf : tree.leaves()) {
    const auto path = tree.path_from_root(leaf);
    // Collect arc usage per producer restricted to this path.
    for (std::size_t u : path) path_use[u] = milp::LinExpr();
    milp::LinExpr eps_on_path;
    bool any_eps = false;
    for (const auto& arc : v.arcs) {
      // arc.to on this path?  path vertices are one per stage.
      const std::size_t stage_idx = tree.vertex(arc.to).stage - 1;
      if (stage_idx < path.size() && path[stage_idx] == arc.to) {
        path_use[arc.from] += milp::LinExpr(arc.amount);
      }
    }
    for (std::size_t u : path) {
      if (v.eps_use[u].valid()) {
        eps_on_path += milp::LinExpr(v.eps_use[u]);
        any_eps = true;
      }
      if (!path_use[u].terms().empty()) {
        model.add_constraint(std::move(path_use[u]) -
                                 milp::LinExpr(v.alpha[u]) <=
                             0.0);
      }
      path_use[u] = milp::LinExpr();
    }
    if (any_eps)
      model.add_constraint(std::move(eps_on_path) <= inst.initial_storage);
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
