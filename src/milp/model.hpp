// Mixed integer linear programming model.
//
// This is the modelling surface used by the DRRP and SRRP builders in
// rrp::core.  A model is its LP relaxation (an lp::LinearProgram: bounds,
// objective coefficients and the flat constraint rows) plus the
// integrality flags and the objective constant; `lp()` hands out the
// relaxation by reference, and branch & bound copies it once.
//
// Rows are added either from a LinExpr constraint (`add_constraint`,
// the algebraic surface) or as a list of (column, coefficient) entries
// (`add_row`, what the builders use: no expression temporaries).  Both
// give the same row: duplicate columns summed, zero sums dropped,
// columns ascending.
#pragma once

#include <initializer_list>
#include <span>
#include <vector>

#include "lp/model.hpp"
#include "milp/expr.hpp"

namespace rrp::milp {

enum class Objective { Minimize, Maximize };

class Model {
 public:
  /// Adds a continuous variable in [lo, hi].
  Var add_continuous(double lo, double hi);

  /// Adds a general integer variable in [lo, hi].
  Var add_integer(double lo, double hi);

  /// Adds a {0, 1} variable.
  Var add_binary();

  /// Adds `lo <= expr <= hi` (the expression's constant is folded into
  /// the bounds).  Returns the row index.
  std::size_t add_constraint(Constraint c);

  /// Adds `lo <= sum coeff * x_col <= hi` over the listed entries
  /// (duplicate columns are summed).  Returns the row index.
  std::size_t add_row(std::span<const lp::Entry> entries, double lo,
                      double hi);
  std::size_t add_row(std::initializer_list<lp::Entry> entries, double lo,
                      double hi) {
    return add_row(std::span<const lp::Entry>(entries.begin(), entries.size()),
                   lo, hi);
  }

  /// Replaces the objective (its constant becomes objective_constant()).
  void set_objective(LinExpr expr, Objective sense);

  void set_objective_sense(Objective sense);
  /// Adds `coeff` to the objective coefficient of `v` (coefficients
  /// start at +0.0, so one call sets it).
  void add_objective_term(Var v, double coeff);
  /// Adds `c` to the objective constant.
  void add_objective_constant(double c) { objective_constant_ += c; }

  std::size_t num_variables() const { return lp_.num_variables(); }
  std::size_t num_constraints() const { return lp_.num_rows(); }
  std::size_t num_integer_variables() const;
  /// Bounds and objective coefficient of variable `id`.
  const lp::Variable& variable(std::size_t id) const {
    return lp_.variable(id);
  }
  Objective objective_sense() const {
    return lp_.sense() == lp::Sense::Minimize ? Objective::Minimize
                                              : Objective::Maximize;
  }
  double objective_constant() const { return objective_constant_; }

  /// True if variable `id` must take an integral value.
  bool is_integral(std::size_t id) const;

  /// The LP relaxation (integrality dropped; binary bounds are [0, 1]),
  /// with the variable indexing preserved 1:1.
  const lp::LinearProgram& lp() const { return lp_; }

  /// Evaluates the objective (including constant) at a point.
  double objective_value(const std::vector<double>& x) const;

 private:
  Var add_variable(double lo, double hi, bool integral);

  lp::LinearProgram lp_;
  std::vector<char> integral_;  ///< one flag per variable
  double objective_constant_ = 0.0;
};

}  // namespace rrp::milp
