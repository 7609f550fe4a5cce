#include "milp/model.hpp"

#include <cmath>

#include "obs/obs.hpp"

namespace rrp::milp {

Var Model::add_continuous(double lo, double hi, std::string name) {
  RRP_EXPECTS(lo <= hi);
  vars_.push_back(VarInfo{VarType::Continuous, lo, hi, std::move(name)});
  return Var{vars_.size() - 1};
}

Var Model::add_integer(double lo, double hi, std::string name) {
  RRP_EXPECTS(lo <= hi);
  vars_.push_back(VarInfo{VarType::Integer, lo, hi, std::move(name)});
  return Var{vars_.size() - 1};
}

Var Model::add_binary(std::string name) {
  vars_.push_back(VarInfo{VarType::Binary, 0.0, 1.0, std::move(name)});
  return Var{vars_.size() - 1};
}

std::size_t Model::add_constraint(Constraint c, std::string name) {
  c.expr.normalize();
  for (const Term& t : c.expr.terms()) RRP_EXPECTS(t.var < vars_.size());
  const double shift = c.expr.constant();
  StoredConstraint stored;
  stored.expr = std::move(c.expr);
  stored.lo = c.lo == -lp::kInfinity ? -lp::kInfinity : c.lo - shift;
  stored.hi = c.hi == lp::kInfinity ? lp::kInfinity : c.hi - shift;
  stored.name = std::move(name);
  constraints_.push_back(std::move(stored));
  return constraints_.size() - 1;
}

void Model::set_objective(LinExpr expr, Objective sense) {
  expr.normalize();
  for (const Term& t : expr.terms()) RRP_EXPECTS(t.var < vars_.size());
  objective_ = std::move(expr);
  sense_ = sense;
}

std::size_t Model::num_integer_variables() const {
  std::size_t n = 0;
  for (const VarInfo& v : vars_)
    if (v.type != VarType::Continuous) ++n;
  return n;
}

bool Model::is_integral(std::size_t id) const {
  RRP_EXPECTS(id < vars_.size());
  return vars_[id].type != VarType::Continuous;
}

lp::LinearProgram Model::to_lp() const {
  RRP_TRACE_SPAN("milp.to_lp");
  lp::LinearProgram prog;
  prog.set_sense(sense_ == Objective::Minimize ? lp::Sense::Minimize
                                               : lp::Sense::Maximize);
  for (const VarInfo& v : vars_) prog.add_variable(v.lo, v.hi, 0.0, v.name);
  for (const Term& t : objective_.terms()) prog.set_objective(t.var, t.coeff);
  for (const StoredConstraint& c : constraints_) {
    std::vector<lp::Entry> entries;
    entries.reserve(c.expr.terms().size());
    for (const Term& t : c.expr.terms())
      entries.push_back(lp::Entry{t.var, t.coeff});
    prog.add_row(std::move(entries), c.lo, c.hi, c.name);
  }
  return prog;
}

double Model::objective_value(const std::vector<double>& x) const {
  RRP_EXPECTS(x.size() == vars_.size());
  double obj = objective_.constant();
  for (const Term& t : objective_.terms()) obj += t.coeff * x[t.var];
  return obj;
}

}  // namespace rrp::milp
