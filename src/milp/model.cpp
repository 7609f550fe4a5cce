#include "milp/model.hpp"

#include <cmath>

#include "obs/obs.hpp"

namespace rrp::milp {

Var Model::add_variable(double lo, double hi, bool integral) {
  RRP_EXPECTS(lo <= hi);
  integral_.push_back(integral ? 1 : 0);
  return Var{lp_.add_variable(lo, hi, 0.0)};
}

Var Model::add_continuous(double lo, double hi) {
  return add_variable(lo, hi, false);
}

Var Model::add_integer(double lo, double hi) {
  return add_variable(lo, hi, true);
}

Var Model::add_binary() { return add_variable(0.0, 1.0, true); }

std::size_t Model::add_constraint(Constraint c) {
  c.expr.normalize();
  const double shift = c.expr.constant();
  const double lo = c.lo == -lp::kInfinity ? -lp::kInfinity : c.lo - shift;
  const double hi = c.hi == lp::kInfinity ? lp::kInfinity : c.hi - shift;
  const std::vector<Term>& terms = c.expr.terms();
  std::vector<lp::Entry> entries;
  entries.reserve(terms.size());
  for (const Term& t : terms) entries.push_back(lp::Entry{t.var, t.coeff});
  return add_row(entries, lo, hi);
}

std::size_t Model::add_row(std::span<const lp::Entry> entries, double lo,
                           double hi) {
  return lp_.add_row(entries, lo, hi);
}

void Model::set_objective(LinExpr expr, Objective sense) {
  expr.normalize();
  for (const Term& t : expr.terms()) RRP_EXPECTS(t.var < num_variables());
  for (std::size_t j = 0; j < num_variables(); ++j) lp_.set_objective(j, 0.0);
  for (const Term& t : expr.terms()) lp_.set_objective(t.var, t.coeff);
  objective_constant_ = expr.constant();
  set_objective_sense(sense);
}

void Model::set_objective_sense(Objective sense) {
  lp_.set_sense(sense == Objective::Minimize ? lp::Sense::Minimize
                                             : lp::Sense::Maximize);
}

void Model::add_objective_term(Var v, double coeff) {
  RRP_EXPECTS(v.id < num_variables());
  lp_.set_objective(v.id, lp_.variable(v.id).objective + coeff);
}

std::size_t Model::num_integer_variables() const {
  std::size_t n = 0;
  for (char f : integral_) n += f != 0 ? 1 : 0;
  return n;
}

bool Model::is_integral(std::size_t id) const {
  RRP_EXPECTS(id < integral_.size());
  return integral_[id] != 0;
}

lp::LinearProgram Model::to_lp() const {
  RRP_TRACE_SPAN("milp.to_lp");
  return lp_;
}

double Model::objective_value(const std::vector<double>& x) const {
  RRP_EXPECTS(x.size() == num_variables());
  // The nonzero coefficients in ascending column order: the terms of
  // the normalised objective expression.
  double obj = objective_constant_;
  for (std::size_t j = 0; j < x.size(); ++j) {
    const double c = lp_.variable(j).objective;
    if (c != 0.0) obj += c * x[j];
  }
  return obj;
}

}  // namespace rrp::milp
