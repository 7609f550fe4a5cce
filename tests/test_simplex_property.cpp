// Property-based testing of the simplex solver on randomly generated
// programs.  Rather than asserting exact optima, we verify solver
// invariants: every reported optimum carries a valid optimality
// certificate (lp_certificate.hpp), Dantzig and Bland pricing agree,
// and no grid point of a small instance beats the reported optimum.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "lp/simplex.hpp"
#include "lp_certificate.hpp"

namespace {

using namespace rrp::lp;
using rrp::lp_test::certified_optimum;

struct RandomLpParams {
  std::uint64_t seed;
  std::size_t n_vars;
  std::size_t n_rows;
  bool allow_equalities;
};

LinearProgram make_random_lp(const RandomLpParams& p) {
  rrp::Rng rng(p.seed);
  LinearProgram lp;
  for (std::size_t j = 0; j < p.n_vars; ++j) {
    const double lo = rng.uniform(-2.0, 0.5);
    const double hi = lo + rng.uniform(0.5, 4.0);
    lp.add_variable(lo, hi, rng.uniform(-3.0, 3.0));
  }
  for (std::size_t r = 0; r < p.n_rows; ++r) {
    std::vector<Entry> entries;
    for (std::size_t j = 0; j < p.n_vars; ++j) {
      if (rng.bernoulli(0.6)) {
        entries.push_back(Entry{j, rng.uniform(-2.0, 2.0)});
      }
    }
    if (entries.empty()) entries.push_back(Entry{0, 1.0});
    // Anchor the row around a feasible interior point (all variables at
    // bound midpoints) so most generated programs are feasible.
    double mid = 0.0;
    for (const Entry& e : entries) {
      mid += e.coeff * 0.5 *
             (lp.variable(e.col).lo + lp.variable(e.col).hi);
    }
    if (p.allow_equalities && rng.bernoulli(0.2)) {
      lp.add_row(std::move(entries), mid, mid);
    } else {
      const double slack_lo = rng.uniform(0.1, 2.0);
      const double slack_hi = rng.uniform(0.1, 2.0);
      lp.add_row(std::move(entries), mid - slack_lo, mid + slack_hi);
    }
  }
  return lp;
}

class SimplexRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomProperty, ReportedOptimaAreFeasible) {
  RandomLpParams p;
  p.seed = 1000 + static_cast<std::uint64_t>(GetParam());
  p.n_vars = 4 + static_cast<std::size_t>(GetParam()) % 9;
  p.n_rows = 2 + static_cast<std::size_t>(GetParam()) % 7;
  p.allow_equalities = GetParam() % 3 == 0;
  const LinearProgram lp = make_random_lp(p);
  const Solution sol = solve(lp);
  if (sol.status == SolveStatus::Optimal) {
    EXPECT_LT(lp.max_violation(sol.x), 1e-6);
    EXPECT_NEAR(lp.objective_value(sol.x), sol.objective, 1e-6);
    EXPECT_TRUE(certified_optimum(lp, sol));
  } else {
    // Bounded boxes + finite row ranges can never be unbounded.
    EXPECT_EQ(sol.status, SolveStatus::Infeasible);
  }
}

TEST_P(SimplexRandomProperty, DantzigAndBlandAgree) {
  RandomLpParams p;
  p.seed = 5000 + static_cast<std::uint64_t>(GetParam());
  p.n_vars = 3 + static_cast<std::size_t>(GetParam()) % 6;
  p.n_rows = 2 + static_cast<std::size_t>(GetParam()) % 5;
  p.allow_equalities = true;
  const LinearProgram lp = make_random_lp(p);
  const Solution dantzig = solve(lp);
  SimplexOptions bland_opt;
  bland_opt.pricing = Pricing::Bland;
  const Solution bland = solve(lp, bland_opt);
  ASSERT_EQ(dantzig.status, bland.status);
  if (dantzig.status == SolveStatus::Optimal) {
    EXPECT_NEAR(dantzig.objective, bland.objective,
                1e-6 * (1.0 + std::fabs(dantzig.objective)));
    EXPECT_TRUE(certified_optimum(lp, dantzig));
    EXPECT_TRUE(certified_optimum(lp, bland));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexRandomProperty,
                         ::testing::Range(0, 40));

// On 2-variable programs we can brute-force the optimum over a fine
// grid of the feasible box and confirm the simplex never does worse.
class SimplexGridCheck : public ::testing::TestWithParam<int> {};

TEST_P(SimplexGridCheck, NeverWorseThanGridSearch) {
  RandomLpParams p;
  p.seed = 9000 + static_cast<std::uint64_t>(GetParam());
  p.n_vars = 2;
  p.n_rows = 3;
  p.allow_equalities = false;
  const LinearProgram lp = make_random_lp(p);
  const Solution sol = solve(lp);
  if (sol.status != SolveStatus::Optimal) return;
  EXPECT_TRUE(certified_optimum(lp, sol));

  double best_grid = sol.objective + 1.0;
  const int steps = 120;
  for (int i = 0; i <= steps; ++i) {
    for (int j = 0; j <= steps; ++j) {
      std::vector<double> x = {
          lp.variable(0).lo + (lp.variable(0).hi - lp.variable(0).lo) * i /
                                  static_cast<double>(steps),
          lp.variable(1).lo + (lp.variable(1).hi - lp.variable(1).lo) * j /
                                  static_cast<double>(steps)};
      if (lp.max_violation(x) > 1e-9) continue;
      best_grid = std::min(best_grid, lp.objective_value(x));
    }
  }
  // The simplex optimum must be at least as good as any grid point
  // (grid points are feasible; simplex minimises).
  EXPECT_LE(sol.objective, best_grid + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexGridCheck, ::testing::Range(0, 25));

}  // namespace
