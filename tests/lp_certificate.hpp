// Test-only optimality certificate for lp::Solution.
//
// Checks an Optimal answer against the ORIGINAL LinearProgram using only
// what the Solution reports (x, duals, reduced costs), so it serves as
// an oracle independent of how the simplex reached the answer:
//
//   * primal feasibility: every row activity and every variable within
//     its bounds (tolerance scaled by the bound's magnitude);
//   * the reported objective equals c'x and the reported reduced costs
//     equal c - A'y for the reported duals;
//   * complementary slackness: a variable with a positive (negative)
//     reduced cost sits at its lower (upper) bound, and a row with a
//     positive (negative) dual is tight at its lower (upper) side;
//   * strong duality: the dual objective, sum of each nonzero reduced
//     cost / dual times the bound its sign selects, equals the primal
//     objective.  Duals and reduced costs are in minimisation sign, so
//     a maximisation is compared as min -c'x.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "lp/model.hpp"

namespace rrp::lp_test {

using lp::Entry;
using lp::LinearProgram;
using lp::Row;
using lp::Sense;
using lp::Solution;
using lp::SolveStatus;
using lp::Variable;

inline ::testing::AssertionResult certified_optimum(const LinearProgram& lp,
                                                    const Solution& sol,
                                                    double tol = 1e-6) {
  using ::testing::AssertionFailure;
  if (sol.status != SolveStatus::Optimal)
    return AssertionFailure() << "status " << to_string(sol.status);
  const std::size_t n = lp.num_variables();
  const std::size_t m = lp.num_rows();
  if (sol.x.size() != n || sol.reduced_costs.size() != n ||
      sol.duals.size() != m)
    return AssertionFailure() << "solution vectors have the wrong size";

  const double sense = lp.sense() == Sense::Maximize ? -1.0 : 1.0;
  const auto near = [tol](double a, double b) {
    return std::fabs(a - b) <= tol * (1.0 + std::fabs(b));
  };
  double cscale = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    cscale = std::max(cscale, std::fabs(lp.variable(j).objective));
  const double dtol = tol * (1.0 + cscale);

  // Primal objective (minimisation sign) and the dual objective built
  // from the same sign rule the complementary-slackness checks use.
  double primal = 0.0;
  double dual = 0.0;
  // `d` is a reduced cost (or row dual), `v` the variable's (or row's)
  // value, [lo, hi] its bounds; a significant d must sit on the bound
  // its sign selects and contributes d * bound, a negligible one d * v.
  const auto complementary = [&](double d, double v, double lo, double hi,
                                 const std::string& what)
      -> ::testing::AssertionResult {
    if (std::fabs(d) <= dtol) {
      dual += d * v;
      return ::testing::AssertionSuccess();
    }
    const double bound = d > 0.0 ? lo : hi;
    if (!std::isfinite(bound))
      return AssertionFailure() << what << ": reduced cost " << d
                                << " pulls towards an infinite bound";
    if (!near(v, bound))
      return AssertionFailure() << what << ": reduced cost " << d
                                << " but value " << v << " is off bound "
                                << bound;
    dual += d * bound;
    return ::testing::AssertionSuccess();
  };

  std::vector<double> aty(n, 0.0);  // A'y
  for (std::size_t r = 0; r < m; ++r)
    for (const Entry& e : lp.row(r).entries)
      aty[e.col] += sol.duals[r] * e.coeff;

  for (std::size_t j = 0; j < n; ++j) {
    const Variable& var = lp.variable(j);
    const std::string what = "x[" + std::to_string(j) + "]";
    const double xj = sol.x[j];
    if (xj < var.lo - tol * (1.0 + std::fabs(var.lo)) ||
        xj > var.hi + tol * (1.0 + std::fabs(var.hi)))
      return AssertionFailure() << what << " = " << xj << " outside ["
                                << var.lo << ", " << var.hi << "]";
    primal += sense * var.objective * xj;
    const double d = sense * var.objective - aty[j];
    if (std::fabs(d - sol.reduced_costs[j]) > dtol)
      return AssertionFailure() << what << ": reported reduced cost "
                                << sol.reduced_costs[j] << ", c - A'y = " << d;
    auto ok = complementary(d, xj, var.lo, var.hi, what);
    if (!ok) return ok;
  }
  for (std::size_t r = 0; r < m; ++r) {
    const Row& row = lp.row(r);
    const std::string what = "row " + std::to_string(r);
    double activity = 0.0;
    for (const Entry& e : row.entries) activity += e.coeff * sol.x[e.col];
    if (activity < row.lo - tol * (1.0 + std::fabs(row.lo)) ||
        activity > row.hi + tol * (1.0 + std::fabs(row.hi)))
      return AssertionFailure() << what << " activity " << activity
                                << " outside [" << row.lo << ", " << row.hi
                                << "]";
    // The row's slack s = a'x has reduced cost y_r in the simplex's
    // a'x - s = 0 form, so the same sign rule applies to the dual.
    auto ok = complementary(sol.duals[r], activity, row.lo, row.hi, what);
    if (!ok) return ok;
  }

  if (!near(sense * sol.objective, primal))
    return AssertionFailure() << "reported objective " << sol.objective
                              << " but c'x = " << sense * primal;
  if (!near(dual, primal))
    return AssertionFailure() << "dual objective " << dual
                              << " != primal objective " << primal
                              << " (minimisation sign)";
  return ::testing::AssertionSuccess();
}

}  // namespace rrp::lp_test
