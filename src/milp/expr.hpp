// Linear expression building blocks for the MILP modelling API.
//
// Usage mirrors algebraic notation:
//   LinExpr cost = 0.2 * x + 0.1 * y;
//   model.add_constraint(x + y == demand);
#pragma once

#include <cstddef>
#include <vector>

namespace rrp::milp {

/// Opaque handle to a model variable.
struct Var {
  std::size_t id = static_cast<std::size_t>(-1);
  bool valid() const { return id != static_cast<std::size_t>(-1); }
};

/// One `coeff * var` term.
struct Term {
  std::size_t var = 0;
  double coeff = 0.0;
};

/// A linear expression: sum of terms plus a constant offset.
class LinExpr {
 public:
  LinExpr() = default;
  LinExpr(double constant);  // NOLINT(google-explicit-constructor)
  LinExpr(Var v);            // NOLINT(google-explicit-constructor)

  LinExpr& operator+=(const LinExpr& rhs);
  LinExpr& operator-=(const LinExpr& rhs);
  LinExpr& operator*=(double k);

  /// Merges duplicate variables and drops zero coefficients.
  void normalize();

  const std::vector<Term>& terms() const { return terms_; }
  double constant() const { return constant_; }

 private:
  std::vector<Term> terms_;
  double constant_ = 0.0;
};

LinExpr operator+(LinExpr lhs, const LinExpr& rhs);
LinExpr operator-(LinExpr lhs, const LinExpr& rhs);
LinExpr operator*(double k, LinExpr expr);
LinExpr operator*(LinExpr expr, double k);
LinExpr operator-(LinExpr expr);

/// A one- or two-sided linear constraint lo <= expr <= hi (the constant
/// part of `expr` is folded into the bounds by the model).
struct Constraint {
  LinExpr expr;
  double lo;
  double hi;
};

Constraint operator<=(LinExpr lhs, double rhs);
Constraint operator>=(LinExpr lhs, double rhs);
Constraint operator==(LinExpr lhs, double rhs);
Constraint operator<=(LinExpr lhs, LinExpr rhs);
Constraint operator>=(LinExpr lhs, LinExpr rhs);
Constraint operator==(LinExpr lhs, LinExpr rhs);

}  // namespace rrp::milp
