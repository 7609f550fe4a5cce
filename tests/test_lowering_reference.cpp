// The flat lowering (builders -> milp::Model -> lp::LinearProgram ->
// SimplexSolver columns) against the nested lowering it replaced, kept
// frozen below: builders that compose LinExpr temporaries, a model that
// stores each constraint as a normalised expression, an LP that merges
// each row by a stable sort into a vector of its own, and a simplex that
// copies the rows into one vector per column.  Both must give the same
// rows (entries in the same order, bit-equal coefficients and bounds),
// the same columns, variable bounds, objective coefficients, objective
// constant and objective values, on every builder and on root-cut rows
// appended afterwards.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/demand.hpp"
#include "core/drrp.hpp"
#include "core/srrp.hpp"
#include "lp/simplex.hpp"
#include "milp/cuts.hpp"
#include "milp/expr.hpp"
#include "milp/model.hpp"

namespace {

using rrp::lp::Entry;
using rrp::lp::kInfinity;
using rrp::milp::Constraint;
using rrp::milp::LinExpr;
using rrp::milp::Objective;
using rrp::milp::Term;
using rrp::milp::Var;
namespace core = rrp::core;
namespace lp = rrp::lp;
namespace milp = rrp::milp;

// ---- The frozen nested lowering ---------------------------------------

/// LinExpr::normalize as it was: sort by variable, merge duplicates
/// from the first term, drop zero coefficients.
std::vector<Term> frozen_normalize(std::vector<Term> terms) {
  std::sort(terms.begin(), terms.end(),
            [](const Term& a, const Term& b) { return a.var < b.var; });
  std::vector<Term> merged;
  merged.reserve(terms.size());
  for (const Term& t : terms) {
    if (!merged.empty() && merged.back().var == t.var) {
      merged.back().coeff += t.coeff;
    } else {
      merged.push_back(t);
    }
  }
  merged.erase(std::remove_if(merged.begin(), merged.end(),
                              [](const Term& t) { return t.coeff == 0.0; }),
               merged.end());
  return merged;
}

struct NestedRow {
  std::vector<Entry> entries;
  double lo = -kInfinity;
  double hi = kInfinity;
};

struct NestedLp {
  std::vector<lp::Variable> variables;
  std::vector<NestedRow> rows;
  lp::Sense sense = lp::Sense::Minimize;

  /// LinearProgram::add_row as it was: a stable sort by column, then
  /// sums from +0.0 in input order, zero sums dropped.
  void add_row(std::vector<Entry> entries, double lo, double hi) {
    std::stable_sort(
        entries.begin(), entries.end(),
        [](const Entry& a, const Entry& b) { return a.col < b.col; });
    std::size_t kept = 0;
    for (std::size_t i = 0; i < entries.size();) {
      const std::size_t col = entries[i].col;
      double sum = 0.0;
      for (; i < entries.size() && entries[i].col == col; ++i)
        sum += entries[i].coeff;
      if (sum != 0.0) entries[kept++] = Entry{col, sum};
    }
    entries.resize(kept);
    rows.push_back(NestedRow{std::move(entries), lo, hi});
  }

  /// SimplexSolver's columns as they were: one vector per column, the
  /// slack of row r (-1 in row r) after the structurals.
  std::vector<std::vector<Entry>> columns() const {
    const std::size_t n = variables.size();
    std::vector<std::vector<Entry>> cols(n + rows.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (const Entry& e : rows[r].entries)
        cols[e.col].push_back(Entry{r, e.coeff});
      cols[n + r].push_back(Entry{r, -1.0});
    }
    return cols;
  }
};

/// milp::Model as it was, without the names.
class NestedModel {
 public:
  Var add_continuous(double lo, double hi) { return add(lo, hi); }
  Var add_binary() { return add(0.0, 1.0); }

  void add_constraint(Constraint c) {
    const double shift = c.expr.constant();
    constraints_.push_back(
        Stored{frozen_normalize(c.expr.terms()),
               c.lo == -kInfinity ? -kInfinity : c.lo - shift,
               c.hi == kInfinity ? kInfinity : c.hi - shift});
  }

  void set_objective(const LinExpr& expr, Objective sense) {
    objective_ = frozen_normalize(expr.terms());
    constant_ = expr.constant();
    sense_ = sense;
  }

  double objective_constant() const { return constant_; }

  NestedLp to_lp() const {
    NestedLp prog;
    prog.sense = sense_ == Objective::Minimize ? lp::Sense::Minimize
                                               : lp::Sense::Maximize;
    prog.variables = vars_;
    for (const Term& t : objective_) prog.variables[t.var].objective = t.coeff;
    for (const Stored& c : constraints_) {
      std::vector<Entry> entries;
      for (const Term& t : c.terms) entries.push_back(Entry{t.var, t.coeff});
      prog.add_row(std::move(entries), c.lo, c.hi);
    }
    return prog;
  }

  double objective_value(const std::vector<double>& x) const {
    double obj = constant_;
    for (const Term& t : objective_) obj += t.coeff * x[t.var];
    return obj;
  }

 private:
  struct Stored {
    std::vector<Term> terms;
    double lo, hi;
  };

  Var add(double lo, double hi) {
    vars_.push_back(lp::Variable{lo, hi, 0.0});
    return Var{vars_.size() - 1};
  }

  std::vector<lp::Variable> vars_;
  std::vector<Stored> constraints_;
  std::vector<Term> objective_;
  double constant_ = 0.0;
  Objective sense_ = Objective::Minimize;
};

// The builders as they were (names dropped), over NestedModel.

NestedModel nested_drrp(const core::DrrpInstance& inst) {
  const std::size_t T = inst.horizon();
  NestedModel model;
  std::vector<Var> alpha, beta, chi;
  std::vector<double> remaining(T + 1, 0.0);
  for (std::size_t t = T; t-- > 0;)
    remaining[t] = remaining[t + 1] + inst.demand[t];
  const double loose_bound = remaining[0] + inst.initial_storage + 1.0;
  for (std::size_t t = 0; t < T; ++t) {
    alpha.push_back(model.add_continuous(0.0, kInfinity));
    beta.push_back(model.add_continuous(0.0, kInfinity));
    chi.push_back(model.add_binary());
  }
  LinExpr objective;
  for (std::size_t t = 0; t < T; ++t) {
    objective += inst.costs.transfer_in(t) * inst.costs.input_output_ratio() *
                 LinExpr(alpha[t]);
    objective += inst.costs.holding(t) * LinExpr(beta[t]);
    objective += inst.costs.delivery_cost(inst.demand[t], t);
    objective += inst.compute_price[t] * LinExpr(chi[t]);
  }
  model.set_objective(objective, Objective::Minimize);
  for (std::size_t t = 0; t < T; ++t) {
    LinExpr balance = LinExpr(alpha[t]) - LinExpr(beta[t]);
    if (t == 0) {
      balance += inst.initial_storage;
    } else {
      balance += LinExpr(beta[t - 1]);
    }
    model.add_constraint(std::move(balance) == inst.demand[t]);
    const double big_b = inst.tighten_forcing_bound
                             ? std::max(remaining[t], 1e-9)
                             : loose_bound;
    model.add_constraint(LinExpr(alpha[t]) - big_b * LinExpr(chi[t]) <= 0.0);
    if (inst.bottleneck_rate > 0.0 && !inst.bottleneck_capacity.empty()) {
      model.add_constraint(inst.bottleneck_rate * LinExpr(alpha[t]) <=
                           inst.bottleneck_capacity[t]);
    }
  }
  return model;
}

NestedModel nested_drrp_facility_location(const core::DrrpInstance& inst) {
  const std::size_t T = inst.horizon();
  NestedModel model;
  struct Arc {
    std::size_t from, to;
    Var amount;
  };
  std::vector<Var> chi;
  std::vector<Arc> arcs;
  std::vector<Var> eps_use;
  std::vector<double> hold_prefix(T + 1, 0.0);
  for (std::size_t u = 0; u < T; ++u)
    hold_prefix[u + 1] = hold_prefix[u] + inst.costs.holding(u);
  for (std::size_t t = 0; t < T; ++t) chi.push_back(model.add_binary());
  const bool has_eps = inst.initial_storage > 0.0;
  LinExpr objective;
  for (std::size_t s = 0; s < T; ++s) {
    if (inst.demand[s] <= 0.0) continue;
    for (std::size_t t = 0; t <= s; ++t) {
      Arc arc{t, s, model.add_continuous(0.0, inst.demand[s])};
      const double unit_cost =
          inst.costs.transfer_in(t) * inst.costs.input_output_ratio() +
          (hold_prefix[s] - hold_prefix[t]);
      objective += unit_cost * LinExpr(arc.amount);
      arcs.push_back(arc);
    }
  }
  if (has_eps) {
    eps_use.assign(T, Var{});
    LinExpr eps_total;
    for (std::size_t s = 0; s < T; ++s) {
      if (inst.demand[s] <= 0.0) continue;
      eps_use[s] = model.add_continuous(
          0.0, std::min(inst.initial_storage, inst.demand[s]));
      objective += (hold_prefix[s] - hold_prefix[T]) * LinExpr(eps_use[s]);
      eps_total += LinExpr(eps_use[s]);
    }
    objective += inst.initial_storage * hold_prefix[T];
    model.add_constraint(std::move(eps_total) <= inst.initial_storage);
  }
  for (std::size_t t = 0; t < T; ++t) {
    objective += inst.compute_price[t] * LinExpr(chi[t]);
    objective += inst.costs.delivery_cost(inst.demand[t], t);
  }
  model.set_objective(objective, Objective::Minimize);
  std::vector<LinExpr> supply(T);
  for (const Arc& arc : arcs) {
    supply[arc.to] += LinExpr(arc.amount);
    model.add_constraint(LinExpr(arc.amount) -
                             inst.demand[arc.to] * LinExpr(chi[arc.from]) <=
                         0.0);
  }
  for (std::size_t s = 0; s < T; ++s) {
    if (inst.demand[s] <= 0.0) continue;
    LinExpr row = std::move(supply[s]);
    if (has_eps && eps_use[s].valid()) row += LinExpr(eps_use[s]);
    model.add_constraint(std::move(row) == inst.demand[s]);
  }
  return model;
}

std::vector<double> nested_remaining(const core::SrrpInstance& inst) {
  const core::ScenarioTree& tree = inst.tree;
  std::vector<double> remaining(tree.num_vertices(), 0.0);
  for (std::size_t u = tree.num_vertices(); u-- > 1;) {
    double best_child = 0.0;
    for (std::size_t c : tree.children(u))
      best_child = std::max(best_child, remaining[c]);
    remaining[u] = inst.demand_at_vertex(u) + best_child;
  }
  return remaining;
}

/// build_srrp's variables, objective and balance rows, shared with the
/// facility-location builder; `forcing` adds each vertex's forcing row.
template <class Forcing>
void nested_srrp_core(const core::SrrpInstance& inst, NestedModel& model,
                      std::vector<Var>& alpha, std::vector<Var>& beta,
                      std::vector<Var>& chi, Forcing&& forcing) {
  const core::ScenarioTree& tree = inst.tree;
  const std::size_t V = tree.num_vertices();
  alpha.assign(V, Var{});
  beta.assign(V, Var{});
  chi.assign(V, Var{});
  for (std::size_t u = 1; u < V; ++u) {
    alpha[u] = model.add_continuous(0.0, kInfinity);
    beta[u] = model.add_continuous(0.0, kInfinity);
    chi[u] = model.add_binary();
  }
  LinExpr objective;
  for (std::size_t u = 1; u < V; ++u) {
    const core::ScenarioVertex& vert = tree.vertex(u);
    const std::size_t slot = vert.stage - 1;
    const double pv = vert.path_prob;
    objective += pv * inst.costs.transfer_in(slot) *
                 inst.costs.input_output_ratio() * LinExpr(alpha[u]);
    objective += pv * inst.costs.holding(slot) * LinExpr(beta[u]);
    objective += pv * inst.costs.delivery_cost(inst.demand_at_vertex(u), slot);
    objective += pv * vert.price * LinExpr(chi[u]);
  }
  model.set_objective(objective, Objective::Minimize);
  for (std::size_t u = 1; u < V; ++u) {
    const core::ScenarioVertex& vert = tree.vertex(u);
    LinExpr balance = LinExpr(alpha[u]) - LinExpr(beta[u]);
    if (vert.parent == tree.root()) {
      balance += inst.initial_storage;
    } else {
      balance += LinExpr(beta[vert.parent]);
    }
    model.add_constraint(std::move(balance) == inst.demand_at_vertex(u));
    forcing(u);
  }
}

NestedModel nested_srrp(const core::SrrpInstance& inst) {
  const core::ScenarioTree& tree = inst.tree;
  NestedModel model;
  std::vector<Var> alpha, beta, chi;
  const std::vector<double> remaining = nested_remaining(inst);
  double loose_bound = inst.initial_storage + 1.0;
  for (std::size_t c : tree.children(tree.root()))
    loose_bound =
        std::max(loose_bound, remaining[c] + inst.initial_storage + 1.0);
  nested_srrp_core(inst, model, alpha, beta, chi, [&](std::size_t u) {
    const double big_b = inst.tighten_forcing_bound
                             ? std::max(remaining[u], 1e-9)
                             : loose_bound;
    model.add_constraint(LinExpr(alpha[u]) - big_b * LinExpr(chi[u]) <= 0.0);
    if (inst.bottleneck_rate > 0.0 && !inst.bottleneck_capacity.empty()) {
      model.add_constraint(inst.bottleneck_rate * LinExpr(alpha[u]) <=
                           inst.bottleneck_capacity[tree.vertex(u).stage - 1]);
    }
  });
  return model;
}

NestedModel nested_srrp_facility_location(const core::SrrpInstance& inst) {
  const core::ScenarioTree& tree = inst.tree;
  const std::size_t V = tree.num_vertices();
  NestedModel model;
  std::vector<Var> alpha, beta, chi;
  std::vector<Var> eps_use(V, Var{});
  struct Arc {
    std::size_t from, to;
    Var amount;
  };
  std::vector<Arc> arcs;
  const std::vector<double> remaining = nested_remaining(inst);
  nested_srrp_core(inst, model, alpha, beta, chi, [&](std::size_t u) {
    model.add_constraint(LinExpr(alpha[u]) -
                             std::max(remaining[u], 1e-9) * LinExpr(chi[u]) <=
                         0.0);
  });
  const bool has_eps = inst.initial_storage > 0.0;
  std::vector<LinExpr> supply(V);
  std::vector<LinExpr> path_use(V);
  for (std::size_t vtx = 1; vtx < V; ++vtx) {
    const double dv = inst.demand_at_vertex(vtx);
    if (dv <= 0.0) continue;
    std::size_t u = vtx;
    for (;;) {
      Arc arc{u, vtx, model.add_continuous(0.0, dv)};
      supply[vtx] += LinExpr(arc.amount);
      model.add_constraint(LinExpr(arc.amount) - dv * LinExpr(chi[u]) <= 0.0);
      arcs.push_back(arc);
      if (tree.vertex(u).parent == tree.root()) break;
      u = tree.vertex(u).parent;
    }
    if (has_eps) {
      eps_use[vtx] =
          model.add_continuous(0.0, std::min(inst.initial_storage, dv));
      supply[vtx] += LinExpr(eps_use[vtx]);
    }
  }
  for (std::size_t vtx = 1; vtx < V; ++vtx) {
    if (inst.demand_at_vertex(vtx) <= 0.0) continue;
    model.add_constraint(std::move(supply[vtx]) ==
                         inst.demand_at_vertex(vtx));
  }
  for (std::size_t leaf : tree.leaves()) {
    const auto path = tree.path_from_root(leaf);
    for (std::size_t u : path) path_use[u] = LinExpr();
    LinExpr eps_on_path;
    bool any_eps = false;
    for (const Arc& arc : arcs) {
      const std::size_t stage_idx = tree.vertex(arc.to).stage - 1;
      if (stage_idx < path.size() && path[stage_idx] == arc.to)
        path_use[arc.from] += LinExpr(arc.amount);
    }
    for (std::size_t u : path) {
      if (eps_use[u].valid()) {
        eps_on_path += LinExpr(eps_use[u]);
        any_eps = true;
      }
      if (!path_use[u].terms().empty())
        model.add_constraint(std::move(path_use[u]) - LinExpr(alpha[u]) <=
                             0.0);
      path_use[u] = LinExpr();
    }
    if (any_eps)
      model.add_constraint(std::move(eps_on_path) <= inst.initial_storage);
  }
  return model;
}

// ---- Comparison -------------------------------------------------------

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_entries_equal(std::span<const Entry> got,
                          const std::vector<Entry>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].col, want[k].col) << what << " entry " << k;
    EXPECT_EQ(bits(got[k].coeff), bits(want[k].coeff))
        << what << " entry " << k;
  }
}

void expect_rows_equal(const lp::LinearProgram& got, const NestedLp& want) {
  ASSERT_EQ(got.num_rows(), want.rows.size());
  for (std::size_t r = 0; r < got.num_rows(); ++r) {
    const std::string what = "row " + std::to_string(r);
    expect_entries_equal(got.row(r).entries, want.rows[r].entries, what);
    EXPECT_EQ(bits(got.row(r).lo), bits(want.rows[r].lo)) << what;
    EXPECT_EQ(bits(got.row(r).hi), bits(want.rows[r].hi)) << what;
  }
}

/// Requires the solver's columns to be current (a solve since the last
/// add_row).
void expect_columns_equal(const lp::SimplexSolver& solver,
                          const NestedLp& want) {
  const std::vector<std::vector<Entry>> cols = want.columns();
  ASSERT_EQ(solver.num_variables() + solver.num_rows(), cols.size());
  for (std::size_t j = 0; j < cols.size(); ++j)
    expect_entries_equal(solver.column(j), cols[j],
                         "column " + std::to_string(j));
}

void expect_same_lowering(const milp::Model& model, const NestedModel& ref) {
  const lp::LinearProgram got = model.to_lp();
  const NestedLp want = ref.to_lp();
  EXPECT_EQ(got.sense(), want.sense);
  ASSERT_EQ(got.num_variables(), want.variables.size());
  for (std::size_t j = 0; j < got.num_variables(); ++j) {
    EXPECT_EQ(bits(got.variable(j).lo), bits(want.variables[j].lo)) << j;
    EXPECT_EQ(bits(got.variable(j).hi), bits(want.variables[j].hi)) << j;
    EXPECT_EQ(bits(got.variable(j).objective),
              bits(want.variables[j].objective))
        << "objective of " << j;
  }
  expect_rows_equal(got, want);
  expect_columns_equal(lp::SimplexSolver(got), want);
  EXPECT_EQ(bits(model.objective_constant()), bits(ref.objective_constant()));
  rrp::Rng rng(7);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<double> x(got.num_variables());
    for (double& v : x) v = rng.uniform(-2.0, 5.0);
    EXPECT_EQ(bits(model.objective_value(x)), bits(ref.objective_value(x)));
  }
}

// ---- Instances --------------------------------------------------------

core::DrrpInstance drrp_instance(std::uint64_t seed, std::size_t T,
                                 double initial_storage) {
  rrp::Rng rng(seed);
  core::DrrpInstance inst;
  inst.demand = core::generate_demand(T, core::DemandConfig{}, rng);
  inst.demand[T / 3] = 0.0;  // a slot without demand has no arcs
  inst.compute_price.resize(T);
  for (double& p : inst.compute_price) p = rng.uniform(0.05, 0.6);
  inst.initial_storage = initial_storage;
  return inst;
}

core::SrrpInstance srrp_instance(std::uint64_t seed, double initial_storage,
                                 bool vertex_demand) {
  rrp::Rng rng(seed);
  const std::vector<std::size_t> widths = {3, 2, 2, 1, 1};
  std::vector<std::vector<core::PricePoint>> supports;
  for (std::size_t w : widths) {
    std::vector<core::PricePoint> stage;
    for (std::size_t k = 0; k < w; ++k)
      stage.push_back(core::PricePoint{rng.uniform(0.05, 0.7),
                                       1.0 / static_cast<double>(w),
                                       k + 1 == w && w > 1});
    supports.push_back(std::move(stage));
  }
  core::SrrpInstance inst;
  inst.demand = core::generate_demand(widths.size(), core::DemandConfig{}, rng);
  inst.tree = core::ScenarioTree::build(supports);
  inst.initial_storage = initial_storage;
  if (vertex_demand) {
    inst.vertex_demand.assign(inst.tree.num_vertices(), 0.0);
    for (std::size_t u = 1; u < inst.tree.num_vertices(); ++u)
      inst.vertex_demand[u] = u % 4 == 2 ? 0.0 : rng.uniform(0.1, 3.0);
  }
  return inst;
}

TEST(LoweringReference, DrrpAggregated) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (double eps : {0.0, 1.5}) {
      const core::DrrpInstance inst = drrp_instance(seed, 16, eps);
      expect_same_lowering(core::build_drrp(inst, nullptr), nested_drrp(inst));
    }
  }
}

TEST(LoweringReference, DrrpAggregatedCapacitatedAndLooseBound) {
  core::DrrpInstance inst = drrp_instance(4, 12, 0.7);
  inst.bottleneck_rate = 0.8;
  inst.bottleneck_capacity.assign(12, 3.0);
  inst.tighten_forcing_bound = false;
  expect_same_lowering(core::build_drrp(inst, nullptr), nested_drrp(inst));
}

TEST(LoweringReference, DrrpFacilityLocation) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (double eps : {0.0, 2.0}) {
      const core::DrrpInstance inst = drrp_instance(seed, 16, eps);
      expect_same_lowering(core::build_drrp_facility_location(inst, nullptr),
                           nested_drrp_facility_location(inst));
    }
  }
}

TEST(LoweringReference, SrrpAggregated) {
  for (std::uint64_t seed : {1u, 2u}) {
    for (double eps : {0.0, 1.0}) {
      for (bool per_vertex : {false, true}) {
        const core::SrrpInstance inst = srrp_instance(seed, eps, per_vertex);
        expect_same_lowering(core::build_srrp(inst, nullptr),
                             nested_srrp(inst));
      }
    }
  }
  core::SrrpInstance inst = srrp_instance(3, 0.5, false);
  inst.bottleneck_rate = 1.2;
  inst.bottleneck_capacity.assign(inst.horizon(), 2.5);
  inst.tighten_forcing_bound = false;
  expect_same_lowering(core::build_srrp(inst, nullptr), nested_srrp(inst));
}

TEST(LoweringReference, SrrpPathArc) {
  for (std::uint64_t seed : {1u, 2u}) {
    for (double eps : {0.0, 1.0}) {
      for (bool per_vertex : {false, true}) {
        const core::SrrpInstance inst = srrp_instance(seed, eps, per_vertex);
        expect_same_lowering(core::build_srrp_facility_location(inst, nullptr),
                             nested_srrp_facility_location(inst));
      }
    }
  }
}

TEST(LoweringReference, RootCutRowsAppendLikeTheNestedPath) {
  // The aggregated DRRP's root relaxation, its (l,S) cuts appended as
  // branch & bound does (to the LP, then to the solver in place), and
  // the re-optimisation that rebuilds the columns.
  const core::DrrpInstance inst = drrp_instance(5, 16, 0.0);
  core::DrrpVariables vars;
  const milp::Model model = core::build_drrp(inst, &vars);
  lp::LinearProgram prog = model.to_lp();
  NestedLp ref = nested_drrp(inst).to_lp();
  milp::LotSizingCutGenerator cuts;
  std::vector<milp::LotSlot> slots;
  for (std::size_t t = 0; t < inst.horizon(); ++t)
    slots.push_back(
        milp::LotSlot{vars.alpha[t].id, vars.chi[t].id, inst.demand[t]});
  cuts.add_chain(std::move(slots));

  lp::SimplexSolver solver(prog);
  lp::Solution sol = solver.solve();
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  std::size_t added = 0;
  for (int round = 0; round < 3; ++round) {
    const std::vector<milp::Cut> found = cuts.separate(sol.x, 1e-6);
    if (found.empty()) break;
    for (const milp::Cut& c : found) {
      solver.add_row(prog.row(prog.add_row(c.entries, c.lo, c.hi)));
      ref.add_row(c.entries, c.lo, c.hi);
      ++added;
    }
    sol = solver.solve_from(solver.basis());
    ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  }
  EXPECT_GT(added, 0u);
  expect_rows_equal(prog, ref);
  expect_columns_equal(solver, ref);
  // A cold solve of the extended program reaches the same objective.
  EXPECT_NEAR(lp::solve(prog).objective, sol.objective,
              1e-9 * (1.0 + std::fabs(sol.objective)));
}

TEST(LoweringReference, HandMadeRowsMergeLikeTheStableSort) {
  // Duplicates (summed in input order), columns that cancel to zero,
  // columns out of order, short and long random rows.
  rrp::Rng rng(11);
  const std::size_t n = 12;
  lp::LinearProgram prog;
  NestedLp ref;
  milp::Model model;
  for (std::size_t j = 0; j < n; ++j) {
    prog.add_variable(0.0, 1.0, 0.0);
    ref.variables.push_back(lp::Variable{0.0, 1.0, 0.0});
    model.add_continuous(0.0, 1.0);
  }
  std::vector<std::vector<Entry>> rows = {
      {{3, 1.0}, {3, 2.0}},
      {{5, 1.0}, {2, 0.5}, {5, -1.0}},
      {{7, 0.1}, {1, 0.2}, {7, 0.2}, {1, -0.2}, {0, 3.0}},
      {{4, 1e-17}, {4, 1.0}, {4, -1.0}},
      {{0, -0.0}, {6, 0.0}},
      {},
  };
  for (std::size_t len : {8u, 90u}) {
    std::vector<Entry> row;
    for (std::size_t k = 0; k < len; ++k) {
      const auto col = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      row.push_back(Entry{col, rng.uniform(-1.0, 1.0)});
    }
    rows.push_back(row);
    // The same multiset of values with every column's sum cancelling.
    std::vector<Entry> cancelling = row;
    for (const Entry& e : row) cancelling.push_back(Entry{e.col, -e.coeff});
    rows.push_back(cancelling);
  }
  for (const std::vector<Entry>& row : rows) {
    prog.add_row(row, -1.0, 2.0);
    model.add_row(row, -1.0, 2.0);
    ref.add_row(row, -1.0, 2.0);
  }
  expect_rows_equal(prog, ref);
  expect_rows_equal(model.to_lp(), ref);
  EXPECT_TRUE(prog.row(1).entries.size() == 1 &&
              prog.row(1).entries[0].col == 2);
  expect_columns_equal(lp::SimplexSolver(prog), ref);
}

}  // namespace
