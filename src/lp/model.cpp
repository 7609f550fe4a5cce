#include "lp/model.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

namespace rrp::lp {

std::size_t LinearProgram::add_variable(double lo, double hi,
                                        double objective) {
  RRP_EXPECTS(lo <= hi);
  RRP_EXPECTS(std::isfinite(objective));
  RRP_EXPECTS(!(lo == kInfinity) && !(hi == -kInfinity));
  variables_.push_back(Variable{lo, hi, objective});
  return variables_.size() - 1;
}

std::size_t LinearProgram::add_row(std::span<const Entry> entries, double lo,
                                   double hi) {
  RRP_EXPECTS(lo <= hi);
  RRP_EXPECTS(lo < kInfinity && hi > -kInfinity);
  const std::less<const Entry*> before;
  RRP_EXPECTS(entries.empty() || entries_.empty() ||
              before(entries.data(), entries_.data()) ||
              !before(entries.data(), entries_.data() + entries_.size()));
  for (const Entry& e : entries) {
    RRP_EXPECTS(e.col < variables_.size());
    RRP_EXPECTS(std::isfinite(e.coeff));
  }
  // Merge duplicate columns in place at the end of the entry array.
  // Each column's entries keep their input order (a stable sort, and
  // only when the columns are not already ascending) and every sum
  // starts from +0.0, so a merged coefficient is the same double a
  // std::map<col, double> += merge gives.  Zero sums are dropped.
  const std::size_t begin = entries_.size();
  entries_.insert(entries_.end(), entries.begin(), entries.end());
  const auto first = entries_.begin() + static_cast<std::ptrdiff_t>(begin);
  const auto by_col = [](const Entry& a, const Entry& b) {
    return a.col < b.col;
  };
  if (!std::is_sorted(first, entries_.end(), by_col))
    std::stable_sort(first, entries_.end(), by_col);
  std::size_t kept = begin;
  for (std::size_t i = begin; i < entries_.size();) {
    const std::size_t col = entries_[i].col;
    double sum = 0.0;
    for (; i < entries_.size() && entries_[i].col == col; ++i)
      sum += entries_[i].coeff;
    if (sum != 0.0) entries_[kept++] = Entry{col, sum};
  }
  entries_.resize(kept);
  row_start_.push_back(kept);
  row_lo_.push_back(lo);
  row_hi_.push_back(hi);
  return row_lo_.size() - 1;
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
  for (std::size_t r = 0; r < num_rows(); ++r) {
    double ax = 0.0;
    for (const Entry& e : row(r).entries) ax += e.coeff * x[e.col];
    worst = std::max(worst, row_lo_[r] - ax);
    worst = std::max(worst, ax - row_hi_[r]);
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
