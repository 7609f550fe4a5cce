#include "core/drrp.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/invariant.hpp"
#include "milp/cuts.hpp"
#include "obs/obs.hpp"

namespace rrp::core {

void DrrpInstance::validate() const {
  RRP_EXPECTS(!demand.empty());
  RRP_EXPECTS(compute_price.size() == demand.size());
  for (double d : demand) RRP_EXPECTS(d >= 0.0);
  for (double p : compute_price) RRP_EXPECTS(p > 0.0);
  RRP_EXPECTS(initial_storage >= 0.0);
  RRP_EXPECTS(bottleneck_rate >= 0.0);
  if (!bottleneck_capacity.empty())
    RRP_EXPECTS(bottleneck_capacity.size() == demand.size());
}

milp::Model build_drrp(const DrrpInstance& inst, DrrpVariables* vars) {
  inst.validate();
  const std::size_t T = inst.horizon();
  milp::Model model;
  DrrpVariables v;
  v.alpha.reserve(T);
  v.beta.reserve(T);
  v.chi.reserve(T);

  // Remaining demand from slot t onward, minus what the initial
  // inventory already covers: a valid tight forcing bound (any optimal
  // solution never generates more than future demand still unserved).
  std::vector<double> remaining(T + 1, 0.0);
  for (std::size_t t = T; t-- > 0;) remaining[t] = remaining[t + 1] +
                                                   inst.demand[t];
  const double loose_bound = remaining[0] + inst.initial_storage + 1.0;

  // Names are composed with += rather than `"alpha" + suffix` to dodge
  // a GCC 12 -Wrestrict false positive (PR105651) under -Werror.
  auto indexed = [](const char* base, std::size_t t) {
    std::string name(base);
    name += '[';
    name += std::to_string(t);
    name += ']';
    return name;
  };
  for (std::size_t t = 0; t < T; ++t) {
    v.alpha.push_back(
        model.add_continuous(0.0, lp::kInfinity, indexed("alpha", t)));
    v.beta.push_back(
        model.add_continuous(0.0, lp::kInfinity, indexed("beta", t)));
    v.chi.push_back(model.add_binary(indexed("chi", t)));
  }

  // Objective (1): transfer-in of inputs + holding of inventory +
  // transfer-out of served demand (a constant) + compute rental.
  milp::LinExpr objective;
  for (std::size_t t = 0; t < T; ++t) {
    objective += inst.costs.transfer_in(t) * inst.costs.input_output_ratio() *
                 milp::LinExpr(v.alpha[t]);
    objective += inst.costs.holding(t) * milp::LinExpr(v.beta[t]);
    objective += inst.costs.delivery_cost(inst.demand[t], t);  // constant
    objective += inst.compute_price[t] * milp::LinExpr(v.chi[t]);
  }
  model.set_objective(std::move(objective), milp::Objective::Minimize);

  for (std::size_t t = 0; t < T; ++t) {
    // (2) inventory balance; beta_{-1} is the epsilon of (5).
    milp::LinExpr balance = milp::LinExpr(v.alpha[t]) -
                            milp::LinExpr(v.beta[t]);
    if (t == 0) {
      balance += inst.initial_storage;
    } else {
      balance += milp::LinExpr(v.beta[t - 1]);
    }
    model.add_constraint(std::move(balance) == inst.demand[t],
                         "balance[" + std::to_string(t) + "]");

    // (4) forcing constraint with the lot-sizing-tight bound.
    const double big_b = inst.tighten_forcing_bound
                             ? std::max(remaining[t], 1e-9)
                             : loose_bound;
    model.add_constraint(milp::LinExpr(v.alpha[t]) -
                                 big_b * milp::LinExpr(v.chi[t]) <=
                             0.0,
                         "forcing[" + std::to_string(t) + "]");

    // (3) bottleneck resource, when modelled.
    if (inst.bottleneck_rate > 0.0 && !inst.bottleneck_capacity.empty()) {
      model.add_constraint(inst.bottleneck_rate * milp::LinExpr(v.alpha[t]) <=
                               inst.bottleneck_capacity[t],
                           "bottleneck[" + std::to_string(t) + "]");
    }
  }

  if (vars != nullptr) *vars = std::move(v);
  return model;
}

milp::Model build_drrp_facility_location(const DrrpInstance& inst,
                                         DrrpFlVariables* vars) {
  inst.validate();
  if (inst.bottleneck_rate > 0.0 && !inst.bottleneck_capacity.empty()) {
    throw InvalidArgument(
        "facility-location formulation requires an uncapacitated "
        "instance");
  }
  const std::size_t T = inst.horizon();
  milp::Model model;
  DrrpFlVariables v;

  std::vector<double> hold_prefix(T + 1, 0.0);
  for (std::size_t u = 0; u < T; ++u)
    hold_prefix[u + 1] = hold_prefix[u] + inst.costs.holding(u);

  for (std::size_t t = 0; t < T; ++t)
    v.chi.push_back(model.add_binary("chi[" + std::to_string(t) + "]"));

  const bool has_eps = inst.initial_storage > 0.0;
  milp::LinExpr objective;
  // Arcs t -> s: generate at t, serve demand of slot s.  Cost per GB is
  // the transfer-in of inputs at t plus carrying from t to s.
  v.arcs.reserve(T * (T + 1) / 2);
  for (std::size_t s = 0; s < T; ++s) {
    if (inst.demand[s] <= 0.0) continue;
    for (std::size_t t = 0; t <= s; ++t) {
      DrrpFlVariables::Arc arc;
      arc.from = t;
      arc.to = s;
      arc.amount = model.add_continuous(
          0.0, inst.demand[s],
          "y[" + std::to_string(t) + "," + std::to_string(s) + "]");
      const double unit_cost =
          inst.costs.transfer_in(t) * inst.costs.input_output_ratio() +
          (hold_prefix[s] - hold_prefix[t]);
      objective += unit_cost * milp::LinExpr(arc.amount);
      v.arcs.push_back(arc);
    }
  }
  // eps_use[s]: GB of the initial storage consumed in slot s.  A unit
  // consumed at s was held through slots 0..s-1; a unit never consumed
  // is held through the whole horizon (constant epsilon * H(0,T) with a
  // credit of H(s,T) per consumed unit -- equivalently charge H(0,s)
  // and the constant separately, which is what we do).
  if (has_eps) {
    // One eps_use per positive-demand slot; entries for zero-demand
    // slots stay invalid (a consumed unit must serve demand, otherwise
    // its holding credit would be a free lunch).
    v.eps_use.assign(T, milp::Var{});
    milp::LinExpr eps_total;
    for (std::size_t s = 0; s < T; ++s) {
      if (inst.demand[s] <= 0.0) continue;
      v.eps_use[s] = model.add_continuous(
          0.0, std::min(inst.initial_storage, inst.demand[s]),
          "eps[" + std::to_string(s) + "]");
      objective += (hold_prefix[s] - hold_prefix[T]) *
                   milp::LinExpr(v.eps_use[s]);
      eps_total += milp::LinExpr(v.eps_use[s]);
    }
    objective += inst.initial_storage * hold_prefix[T];  // constant
    model.add_constraint(std::move(eps_total) <= inst.initial_storage,
                         "eps-budget");
  }
  for (std::size_t t = 0; t < T; ++t) {
    objective += inst.compute_price[t] * milp::LinExpr(v.chi[t]);
    objective += inst.costs.delivery_cost(inst.demand[t], t);
  }
  model.set_objective(std::move(objective), milp::Objective::Minimize);

  // Demand satisfaction per slot, and arc-chi coupling.
  std::vector<milp::LinExpr> supply(T);
  for (const auto& arc : v.arcs) {
    supply[arc.to] += milp::LinExpr(arc.amount);
    model.add_constraint(milp::LinExpr(arc.amount) -
                             inst.demand[arc.to] *
                                 milp::LinExpr(v.chi[arc.from]) <=
                         0.0);
  }
  for (std::size_t s = 0; s < T; ++s) {
    if (inst.demand[s] <= 0.0) continue;
    milp::LinExpr row = std::move(supply[s]);
    if (has_eps && v.eps_use[s].valid()) row += milp::LinExpr(v.eps_use[s]);
    model.add_constraint(std::move(row) == inst.demand[s],
                         "demand[" + std::to_string(s) + "]");
  }

  if (vars != nullptr) *vars = std::move(v);
  return model;
}

namespace {

CostBreakdown breakdown_from_solution(const DrrpInstance& inst,
                                      const std::vector<double>& alpha,
                                      const std::vector<double>& beta,
                                      const std::vector<char>& chi) {
  CostBreakdown c;
  for (std::size_t t = 0; t < inst.horizon(); ++t) {
    c.compute += chi[t] ? inst.compute_price[t] : 0.0;
    c.holding += inst.costs.holding(t) * beta[t];
    c.transfer_in += inst.costs.generation_cost(alpha[t], t);
    c.transfer_out += inst.costs.delivery_cost(inst.demand[t], t);
  }
  return c;
}

}  // namespace

namespace {

#if RRP_INVARIANTS_ENABLED
/// Inventory-balance verification of a returned plan: generation plus
/// carried-over inventory covers each slot's demand exactly, inventory
/// never goes negative, and the forcing constraint (alpha > 0 implies a
/// rented machine) holds.
void verify_plan_balance(const DrrpInstance& inst, const RentalPlan& plan) {
  if (plan.alpha.empty()) return;
  RRP_INVARIANT(plan.alpha.size() == inst.horizon());
  RRP_INVARIANT(plan.beta.size() == inst.horizon());
  RRP_INVARIANT(plan.chi.size() == inst.horizon());
  double carry = inst.initial_storage;
  for (std::size_t t = 0; t < inst.horizon(); ++t) {
    RRP_INVARIANT_MSG(plan.alpha[t] >= -1e-9,
                      "negative generation at slot " + std::to_string(t));
    RRP_INVARIANT_MSG(plan.beta[t] >= -1e-9,
                      "negative inventory at slot " + std::to_string(t));
    RRP_INVARIANT(plan.chi[t] == 0 || plan.chi[t] == 1);
    const double scale = 1.0 + std::fabs(carry) + inst.demand[t];
    RRP_INVARIANT_MSG(plan.chi[t] == 1 || plan.alpha[t] <= 1e-6 * scale,
                      "generation without a rented machine at slot " +
                          std::to_string(t));
    carry += plan.alpha[t] - inst.demand[t];
    RRP_INVARIANT_MSG(std::fabs(plan.beta[t] - carry) <= 1e-5 * scale,
                      "inventory balance off by " +
                          std::to_string(plan.beta[t] - carry) + " at slot " +
                          std::to_string(t));
    carry = plan.beta[t];
  }
}
#endif

RentalPlan solve_drrp_aggregated(const DrrpInstance& inst,
                                 const milp::BnbOptions& options) {
  DrrpVariables vars;
  const milp::Model model = [&] {
    RRP_TRACE_SPAN("core.build_model");
    return build_drrp(inst, &vars);
  }();

  // The aggregated formulation is single-item lot-sizing, so (l,S)
  // inequalities separated at the root tighten its weak relaxation.
  milp::LotSizingCutGenerator lot_cuts;
  milp::BnbOptions opt = options;
  if (opt.root_cuts && opt.cut_generator == nullptr) {
    std::vector<milp::LotSlot> slots(inst.horizon());
    for (std::size_t t = 0; t < inst.horizon(); ++t)
      slots[t] = milp::LotSlot{vars.alpha[t].id, vars.chi[t].id,
                               inst.demand[t]};
    lot_cuts.add_chain(std::move(slots), inst.initial_storage);
    opt.cut_generator = &lot_cuts;
  }
  const milp::MipResult result = milp::solve(model, opt);

  RRP_TRACE_SPAN("core.extract_plan");
  RentalPlan plan;
  plan.status = result.status;
  plan.work = result.work;
  plan.root_gap_closed = result.root_gap_closed;
  if (result.x.empty()) return plan;

  const std::size_t T = inst.horizon();
  plan.alpha.resize(T);
  plan.beta.resize(T);
  plan.chi.resize(T);
  for (std::size_t t = 0; t < T; ++t) {
    plan.alpha[t] = std::max(result.x[vars.alpha[t].id], 0.0);
    plan.beta[t] = std::max(result.x[vars.beta[t].id], 0.0);
    plan.chi[t] = result.x[vars.chi[t].id] > 0.5 ? 1 : 0;
  }
  plan.cost = breakdown_from_solution(inst, plan.alpha, plan.beta, plan.chi);
#if RRP_INVARIANTS_ENABLED
  verify_plan_balance(inst, plan);
#endif
  return plan;
}

RentalPlan solve_drrp_fl(const DrrpInstance& inst,
                         const milp::BnbOptions& options) {
  DrrpFlVariables vars;
  const milp::Model model = [&] {
    RRP_TRACE_SPAN("core.build_model");
    return build_drrp_facility_location(inst, &vars);
  }();
  const milp::MipResult result = milp::solve(model, options);

  RRP_TRACE_SPAN("core.extract_plan");
  RentalPlan plan;
  plan.status = result.status;
  plan.work = result.work;
  if (result.x.empty()) return plan;

  const std::size_t T = inst.horizon();
  plan.alpha.assign(T, 0.0);
  plan.beta.assign(T, 0.0);
  plan.chi.assign(T, 0);
  for (const auto& arc : vars.arcs)
    plan.alpha[arc.from] += std::max(result.x[arc.amount.id], 0.0);
  for (std::size_t t = 0; t < T; ++t) {
    plan.chi[t] = result.x[vars.chi[t].id] > 0.5 ? 1 : 0;
    if (plan.alpha[t] < 1e-9) plan.alpha[t] = 0.0;
  }
  double store = inst.initial_storage;
  for (std::size_t t = 0; t < T; ++t) {
    store += plan.alpha[t] - inst.demand[t];
    store = std::max(store, 0.0);
    plan.beta[t] = store;
  }
  plan.cost = breakdown_from_solution(inst, plan.alpha, plan.beta, plan.chi);
#if RRP_INVARIANTS_ENABLED
  verify_plan_balance(inst, plan);
#endif
  return plan;
}

}  // namespace

RentalPlan solve_drrp(const DrrpInstance& inst,
                      const milp::BnbOptions& options,
                      DrrpFormulation formulation) {
  const bool capacitated =
      inst.bottleneck_rate > 0.0 && !inst.bottleneck_capacity.empty();
  if (formulation == DrrpFormulation::Auto) {
    formulation = capacitated ? DrrpFormulation::Aggregated
                              : DrrpFormulation::FacilityLocation;
  }
  if (formulation == DrrpFormulation::FacilityLocation)
    return solve_drrp_fl(inst, options);
  return solve_drrp_aggregated(inst, options);
}

RentalPlan no_plan_schedule(const DrrpInstance& inst) {
  inst.validate();
  const std::size_t T = inst.horizon();
  RentalPlan plan;
  plan.status = milp::MipStatus::Optimal;  // trivially feasible
  plan.alpha.resize(T, 0.0);
  plan.beta.resize(T, 0.0);
  plan.chi.resize(T, 0);
  double carry = inst.initial_storage;  // epsilon serves earliest demand
  for (std::size_t t = 0; t < T; ++t) {
    const double used = std::min(carry, inst.demand[t]);
    carry -= used;
    plan.alpha[t] = inst.demand[t] - used;
    plan.beta[t] = carry;
    plan.chi[t] = plan.alpha[t] > 0.0 ? 1 : 0;
  }
  plan.cost = breakdown_from_solution(inst, plan.alpha, plan.beta, plan.chi);
#if RRP_INVARIANTS_ENABLED
  verify_plan_balance(inst, plan);
#endif
  return plan;
}

CostBreakdown evaluate_schedule(const DrrpInstance& inst,
                                const std::vector<double>& alpha,
                                const std::vector<char>& chi) {
  inst.validate();
  RRP_EXPECTS(alpha.size() == inst.horizon());
  RRP_EXPECTS(chi.size() == inst.horizon());
  std::vector<double> beta(inst.horizon(), 0.0);
  double carry = inst.initial_storage;
  for (std::size_t t = 0; t < inst.horizon(); ++t) {
    RRP_EXPECTS(alpha[t] >= 0.0);
    RRP_EXPECTS(chi[t] == 1 || alpha[t] == 0.0);  // forcing constraint
    carry += alpha[t] - inst.demand[t];
    if (carry < -1e-7)
      throw InvalidArgument("schedule under-serves demand at slot " +
                            std::to_string(t));
    carry = std::max(carry, 0.0);
    beta[t] = carry;
  }
  return breakdown_from_solution(inst, alpha, beta, chi);
}

}  // namespace rrp::core
