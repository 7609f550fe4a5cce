#include "lp/model.hpp"

#include <algorithm>
#include <cmath>

namespace rrp::lp {

std::size_t LinearProgram::add_variable(double lo, double hi,
                                        double objective, std::string name) {
  RRP_EXPECTS(lo <= hi);
  RRP_EXPECTS(std::isfinite(objective));
  RRP_EXPECTS(!(lo == kInfinity) && !(hi == -kInfinity));
  variables_.push_back(Variable{lo, hi, objective, std::move(name)});
  return variables_.size() - 1;
}

std::size_t LinearProgram::add_row(std::vector<Entry> entries, double lo,
                                   double hi, std::string name) {
  RRP_EXPECTS(lo <= hi);
  RRP_EXPECTS(lo < kInfinity && hi > -kInfinity);
  for (const Entry& e : entries) {
    RRP_EXPECTS(e.col < variables_.size());
    RRP_EXPECTS(std::isfinite(e.coeff));
  }
  // Merge duplicate columns.  The stable sort keeps each column's
  // entries in input order and every sum starts from +0.0, so a merged
  // coefficient is the same double a std::map<col, double> += merge
  // gives.  Zero sums are dropped.
  std::stable_sort(entries.begin(), entries.end(),
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
  rows_.push_back(Row{std::move(entries), lo, hi, std::move(name)});
  return rows_.size() - 1;
}

void LinearProgram::set_objective(std::size_t var, double coeff) {
  RRP_EXPECTS(var < variables_.size());
  RRP_EXPECTS(std::isfinite(coeff));
  variables_[var].objective = coeff;
}

void LinearProgram::set_variable_bounds(std::size_t var, double lo,
                                        double hi) {
  RRP_EXPECTS(var < variables_.size());
  RRP_EXPECTS(lo <= hi);
  variables_[var].lo = lo;
  variables_[var].hi = hi;
}

double LinearProgram::objective_value(const std::vector<double>& x) const {
  RRP_EXPECTS(x.size() == variables_.size());
  double obj = 0.0;
  for (std::size_t i = 0; i < variables_.size(); ++i)
    obj += variables_[i].objective * x[i];
  return obj;
}

double LinearProgram::max_violation(const std::vector<double>& x) const {
  RRP_EXPECTS(x.size() == variables_.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    worst = std::max(worst, variables_[i].lo - x[i]);
    worst = std::max(worst, x[i] - variables_[i].hi);
  }
  for (const Row& r : rows_) {
    double ax = 0.0;
    for (const Entry& e : r.entries) ax += e.coeff * x[e.col];
    worst = std::max(worst, r.lo - ax);
    worst = std::max(worst, ax - r.hi);
  }
  return std::max(worst, 0.0);
}

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::Optimal: return "optimal";
    case SolveStatus::Infeasible: return "infeasible";
    case SolveStatus::Unbounded: return "unbounded";
    case SolveStatus::IterationLimit: return "iteration-limit";
    case SolveStatus::TimeLimit: return "time-limit";
  }
  return "unknown";
}

}  // namespace rrp::lp
