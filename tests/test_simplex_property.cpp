// Property-based testing of the simplex solver on randomly generated
// programs.  Rather than asserting exact optima, we verify solver
// invariants: every reported optimum carries a valid optimality
// certificate (lp_certificate.hpp), also on programs rich in singletons,
// fixed and zero-cost columns, one-sided rows and infinite bounds;
// Dantzig and Bland pricing agree; and no grid point of a small instance
// beats the reported optimum.
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

// Factor reuse under the branch & bound access pattern: one persistent
// solver re-optimises after random bound edits, each time from a basis
// exported by some earlier solve, not only the latest, so the start is
// installed by column replacement or by a fresh factorisation depending
// on how far it lies from the solver's current basis.  Every answer must
// carry a certificate and match a cold solve of the edited program.
TEST_P(SimplexRandomProperty, WarmStartsFromEarlierBasesAreCertified) {
  RandomLpParams p;
  p.seed = 9000 + static_cast<std::uint64_t>(GetParam());
  p.n_vars = 10 + static_cast<std::size_t>(GetParam()) % 11;
  p.n_rows = 8 + static_cast<std::size_t>(GetParam()) % 13;
  p.allow_equalities = GetParam() % 3 == 0;
  const LinearProgram original = make_random_lp(p);
  LinearProgram lp = original;
  SimplexSolver solver(lp);
  const Solution first = solver.solve();
  ASSERT_EQ(first.status, SolveStatus::Optimal);
  std::vector<Basis> bases = {solver.basis()};
  rrp::Rng rng(p.seed + 1);
  for (int step = 0; step < 16; ++step) {
    // Every interval keeps its midpoint, where the rows are anchored,
    // so the edited program stays feasible.
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(p.n_vars) - 1));
    const double lo0 = original.variable(j).lo;
    const double hi0 = original.variable(j).hi;
    const double mid = 0.5 * (lo0 + hi0);
    const double lo = rng.uniform(lo0, mid);
    const double hi = rng.uniform(mid, hi0);
    solver.set_variable_bounds(j, lo, hi);
    lp.set_variable_bounds(j, lo, hi);
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bases.size()) - 1));
    const Solution warm = solver.solve_from(bases[pick]);
    const Solution cold = solve(lp);
    ASSERT_EQ(warm.status, SolveStatus::Optimal) << "step " << step;
    ASSERT_EQ(cold.status, SolveStatus::Optimal) << "step " << step;
    EXPECT_TRUE(certified_optimum(lp, warm)) << "step " << step;
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-9 * (1.0 + std::fabs(cold.objective)))
        << "step " << step;
    bases.push_back(solver.basis());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexRandomProperty,
                         ::testing::Range(0, 40));

// Random programs rich in singleton rows and fixed columns.  Boxes and
// row ranges are finite, so a program is never unbounded.
LinearProgram make_singleton_rich_lp(int param) {
  rrp::Rng rng(61000 + static_cast<std::uint64_t>(param));
  LinearProgram lp;
  const std::size_t n = 4 + static_cast<std::size_t>(param) % 6;
  for (std::size_t j = 0; j < n; ++j) {
    if (rng.bernoulli(0.25)) {
      const double v = rng.uniform(-2.0, 2.0);
      lp.add_variable(v, v, rng.uniform(-2.0, 2.0));  // fixed
    } else {
      const double lo = rng.uniform(-2.0, 0.0);
      lp.add_variable(lo, lo + rng.uniform(0.5, 3.0),
                      rng.uniform(-2.0, 2.0));
    }
  }
  const std::size_t rows = 2 + static_cast<std::size_t>(param) % 4;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<Entry> entries;
    for (std::size_t j = 0; j < n; ++j)
      if (rng.bernoulli(r == 0 ? 0.2 : 0.5))
        entries.push_back({j, rng.uniform(-2.0, 2.0)});
    if (entries.empty()) entries.push_back({0, 1.0});
    double mid = 0.0;
    for (const auto& e : entries)
      mid += e.coeff * 0.5 * (lp.variable(e.col).lo + lp.variable(e.col).hi);
    lp.add_row(std::move(entries), mid - rng.uniform(0.2, 2.0),
               mid + rng.uniform(0.2, 2.0));
  }
  return lp;
}

// Random programs rich in zero-cost columns, one-sided rows and
// infinite upper bounds.
LinearProgram make_sparse_one_sided_lp(int param) {
  rrp::Rng rng(72000 + static_cast<std::uint64_t>(param));
  LinearProgram lp;
  const std::size_t n = 5 + static_cast<std::size_t>(param) % 5;
  for (std::size_t j = 0; j < n; ++j) {
    const double lo = rng.uniform(-2.0, 0.0);
    const double hi =
        rng.bernoulli(0.2) ? kInfinity : lo + rng.uniform(0.5, 4.0);
    const double obj = rng.bernoulli(0.3) ? 0.0 : rng.uniform(-2.0, 2.0);
    lp.add_variable(lo, hi, obj);
  }
  const std::size_t rows = 2 + static_cast<std::size_t>(param) % 4;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<Entry> entries;
    for (std::size_t j = 0; j < n; ++j)
      if (rng.bernoulli(0.35)) entries.push_back({j, rng.uniform(-2.0, 2.0)});
    if (entries.empty()) entries.push_back({0, 1.0});
    double mid = 0.0;
    for (const auto& e : entries) {
      const auto& v = lp.variable(e.col);
      mid += e.coeff *
             (std::isfinite(v.hi) ? 0.5 * (v.lo + v.hi) : v.lo + 1.0);
    }
    const double lo =
        rng.bernoulli(0.25) ? -kInfinity : mid - rng.uniform(0.2, 2.0);
    lp.add_row(std::move(entries), lo, mid + rng.uniform(0.2, 2.0));
  }
  return lp;
}

class SimplexSingletonRichProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimplexSingletonRichProperty, DirectSolveIsCertified) {
  const LinearProgram lp = make_singleton_rich_lp(GetParam());
  const Solution sol = solve(lp);
  if (sol.status == SolveStatus::Optimal) {
    EXPECT_TRUE(certified_optimum(lp, sol));
  } else {
    EXPECT_EQ(sol.status, SolveStatus::Infeasible);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexSingletonRichProperty,
                         ::testing::Range(0, 30));

class SimplexSparseOneSidedProperty : public ::testing::TestWithParam<int> {};

TEST_P(SimplexSparseOneSidedProperty, DirectSolveIsCertified) {
  const LinearProgram lp = make_sparse_one_sided_lp(GetParam());
  const Solution sol = solve(lp);
  if (sol.status == SolveStatus::Optimal) {
    EXPECT_TRUE(certified_optimum(lp, sol));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexSparseOneSidedProperty,
                         ::testing::Range(0, 30));

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
