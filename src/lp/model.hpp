// Linear program container.
//
// A program is `min/max c'x  s.t.  lo_r <= a_r' x <= hi_r,  l <= x <= u`,
// with +/-infinity bounds expressed via rrp::lp::kInfinity.  The simplex
// solver consumes this structure directly; rrp::milp builds instances of
// it from the higher-level modelling API.
#pragma once

#include <initializer_list>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace rrp::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Sense { Minimize, Maximize };

/// One nonzero of a constraint row.
struct Entry {
  std::size_t col = 0;
  double coeff = 0.0;
};

/// A view of the ranged constraint row lo <= a'x <= hi (lo == hi for
/// equalities): its entries sit in the program's flat entry array and
/// stay valid until the next add_row().
struct Row {
  std::span<const Entry> entries;
  double lo = -kInfinity;
  double hi = kInfinity;
};

/// Variable bounds and objective coefficient.
struct Variable {
  double lo = 0.0;
  double hi = kInfinity;
  double objective = 0.0;
};

/// The rows are stored once, flat (compressed sparse rows): row r's
/// entries are entries()[row_starts()[r], row_starts()[r + 1]), with
/// distinct columns in ascending order.  lp::SimplexSolver copies these
/// arrays as they are.
class LinearProgram {
 public:
  /// Adds a variable with bounds [lo, hi] and the given objective
  /// coefficient.  Requires lo <= hi and finite objective.
  std::size_t add_variable(double lo, double hi, double objective);

  /// Adds a ranged row.  Column indices must reference existing
  /// variables; duplicate columns within a row are summed, in input
  /// order from +0.0, and zero sums dropped.  `entries` must not view
  /// this program's own entries.
  std::size_t add_row(std::span<const Entry> entries, double lo, double hi);
  std::size_t add_row(std::initializer_list<Entry> entries, double lo,
                      double hi) {
    return add_row(std::span<const Entry>(entries.begin(), entries.size()),
                   lo, hi);
  }

  void set_sense(Sense sense) { sense_ = sense; }
  Sense sense() const { return sense_; }

  void set_objective(std::size_t var, double coeff);
  void set_variable_bounds(std::size_t var, double lo, double hi);

  std::size_t num_variables() const { return variables_.size(); }
  std::size_t num_rows() const { return row_lo_.size(); }

  const Variable& variable(std::size_t i) const { return variables_[i]; }
  Row row(std::size_t r) const {
    return Row{std::span<const Entry>(entries_).subspan(
                   row_start_[r], row_start_[r + 1] - row_start_[r]),
               row_lo_[r], row_hi_[r]};
  }
  std::span<const std::size_t> row_starts() const { return row_start_; }
  std::span<const Entry> entries() const { return entries_; }

  /// Evaluates the objective at a point (no feasibility check).
  double objective_value(const std::vector<double>& x) const;

  /// Max constraint/bound violation at a point; 0 means feasible.
  double max_violation(const std::vector<double>& x) const;

 private:
  std::vector<Variable> variables_;
  std::vector<std::size_t> row_start_{0};
  std::vector<Entry> entries_;
  std::vector<double> row_lo_, row_hi_;
  Sense sense_ = Sense::Minimize;
};

enum class SolveStatus {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
  /// The SimplexOptions deadline expired before optimality was proven.
  TimeLimit,
};

const char* to_string(SolveStatus status);

/// Result of a simplex solve.
struct Solution {
  SolveStatus status = SolveStatus::IterationLimit;
  double objective = 0.0;             ///< in the model's original sense
  std::vector<double> x;              ///< primal values, one per variable
  std::vector<double> duals;          ///< one per row (minimisation sign)
  std::vector<double> reduced_costs;  ///< one per variable
  std::size_t iterations = 0;
};

}  // namespace rrp::lp
