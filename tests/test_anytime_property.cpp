// Property test of the branch & bound anytime contract (ISSUE 2): for
// random lot-sizing MILPs under arbitrary node and time limits, the
// solver must always return either a feasible, integral,
// bound-consistent incumbent or an honest NoIncumbent — never a
// malformed result — as long as it may explore at least one node.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/deadline.hpp"
#include "common/rng.hpp"
#include "milp/branch_and_bound.hpp"

namespace {

using namespace rrp::milp;

// A random uncapacitated-ish lot-sizing instance: binary setup y_t,
// continuous order alpha_t <= M*y_t, non-negative inventory carried
// between slots.  Always feasible (order every slot's demand).
struct LotSizing {
  std::vector<double> demand, price;
  double setup_cost = 0.0, storage_cost = 0.0, big_m = 0.0;
  std::vector<Var> y, alpha, beta;
  Model model;

  explicit LotSizing(rrp::Rng& rng) {
    const int horizon = 3 + static_cast<int>(rng.uniform(0.0, 5.0));
    setup_cost = rng.uniform(1.0, 8.0);
    storage_cost = rng.uniform(0.05, 0.5);
    double total_demand = 0.0;
    for (int t = 0; t < horizon; ++t) {
      demand.push_back(std::floor(rng.uniform(0.0, 6.0)));
      price.push_back(rng.uniform(0.5, 4.0));
      total_demand += demand.back();
    }
    big_m = total_demand + 1.0;
    LinExpr cost;
    for (int t = 0; t < horizon; ++t) {
      y.push_back(model.add_binary());
      alpha.push_back(model.add_continuous(0.0, big_m));
      beta.push_back(model.add_continuous(0.0, big_m));
      cost += setup_cost * LinExpr(y[t]) + price[t] * LinExpr(alpha[t]) +
              storage_cost * LinExpr(beta[t]);
      model.add_constraint(LinExpr(alpha[t]) - big_m * LinExpr(y[t]) <= 0.0);
      LinExpr balance = LinExpr(alpha[t]) - LinExpr(beta[t]);
      if (t > 0) balance += LinExpr(beta[t - 1]);
      model.add_constraint(std::move(balance) == demand[t]);
    }
    model.set_objective(std::move(cost), Objective::Minimize);
  }

  // Replays the incumbent against the original data (not through the
  // solver), so a malformed point cannot self-certify.
  void expect_feasible(const std::vector<double>& x) const {
    const double tol = 1e-5;
    double inventory = 0.0;
    for (std::size_t t = 0; t < demand.size(); ++t) {
      const double yt = x[y[t].id];
      const double at = x[alpha[t].id];
      EXPECT_NEAR(yt, std::round(yt), tol) << "y[" << t << "] not integral";
      EXPECT_GE(at, -tol);
      EXPECT_LE(at, big_m * yt + tol) << "order without setup at " << t;
      inventory += at - demand[t];
      EXPECT_GE(inventory, -tol) << "negative inventory at " << t;
      EXPECT_NEAR(x[beta[t].id], inventory, tol);
    }
  }

  double objective_of(const std::vector<double>& x) const {
    double cost = 0.0;
    for (std::size_t t = 0; t < demand.size(); ++t)
      cost += setup_cost * x[y[t].id] + price[t] * x[alpha[t].id] +
              storage_cost * x[beta[t].id];
    return cost;
  }
};

TEST(AnytimeProperty, AnyNodeOrTimeLimitYieldsWellFormedResult) {
  rrp::Rng rng(2024);
  int time_limited = 0, node_limited = 0, optimal = 0;
  for (int trial = 0; trial < 60; ++trial) {
    LotSizing inst(rng);
    const MipResult exact = solve(inst.model);
    ASSERT_EQ(exact.status, MipStatus::Optimal) << "trial " << trial;

    BnbOptions opt;
    // Random node budget >= 1 and a fake-clock deadline expiring after a
    // random number of polls; either limit may bite first.
    opt.max_nodes = 1 + static_cast<std::size_t>(rng.uniform(0.0, 12.0));
    rrp::common::FakeClock clock;
    clock.set_auto_advance(1.0);
    const double budget = rng.uniform(2.0, 120.0);
    opt.deadline = rrp::common::Deadline::after(budget, clock);

    const MipResult r = solve(inst.model, opt);
    switch (r.status) {
      case MipStatus::Optimal:
        ++optimal;
        EXPECT_NEAR(r.objective, exact.objective, 1e-5);
        break;
      case MipStatus::TimeLimit:
      case MipStatus::NodeLimit: {
        if (r.status == MipStatus::TimeLimit)
          ++time_limited;
        else
          ++node_limited;
        // Limit statuses imply an incumbent: a real feasible point whose
        // stored objective matches a replay, bracketed by the bound.
        ASSERT_FALSE(r.x.empty()) << "trial " << trial;
        inst.expect_feasible(r.x);
        EXPECT_NEAR(inst.objective_of(r.x), r.objective, 1e-5);
        EXPECT_GE(r.objective, exact.objective - 1e-5);
        EXPECT_LE(r.best_bound, r.objective + 1e-6);
        EXPECT_LE(r.best_bound, exact.objective + 1e-6);
        break;
      }
      case MipStatus::NoIncumbent:
        // Honest empty-handed return: no point, bound still valid.
        EXPECT_TRUE(r.x.empty());
        EXPECT_LE(r.best_bound, exact.objective + 1e-6);
        break;
      default:
        FAIL() << "feasible model reported " << to_string(r.status)
               << " in trial " << trial;
    }
  }
  // The randomisation must actually exercise the interesting statuses.
  EXPECT_GT(time_limited + node_limited, 5);
  EXPECT_GT(optimal, 5);
}

TEST(AnytimeProperty, SingleNodeBudgetNeverMalformed) {
  rrp::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    LotSizing inst(rng);
    BnbOptions opt;
    opt.max_nodes = 1;
    const MipResult r = solve(inst.model, opt);
    if (r.x.empty()) {
      EXPECT_TRUE(r.status == MipStatus::NoIncumbent ||
                  r.status == MipStatus::Infeasible)
          << to_string(r.status);
    } else {
      inst.expect_feasible(r.x);
      EXPECT_LE(r.best_bound, r.objective + 1e-6);
    }
  }
}

}  // namespace
