#include "milp/cuts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/drrp.hpp"
#include "core/demand.hpp"
#include "common/rng.hpp"

namespace {

using namespace rrp;
using milp::Cut;
using milp::CutPool;
using milp::LotSizingCutGenerator;
using milp::LotSlot;

TEST(Cut, ViolationMeasuresBothBounds) {
  Cut cut;
  cut.entries = {{0, 1.0}, {1, 2.0}};
  cut.lo = 1.0;
  cut.hi = 5.0;
  // activity = 1*1 + 2*3 = 7 -> violates hi by 2.
  EXPECT_NEAR(cut.violation({1.0, 3.0}), 2.0, 1e-12);
  // activity = 0 -> violates lo by 1.
  EXPECT_NEAR(cut.violation({0.0, 0.0}), 1.0, 1e-12);
  // activity = 3 -> satisfied.
  EXPECT_LE(cut.violation({1.0, 1.0}), 0.0);
}

// A 3-period chain with unit demands.  The hand-built fractional point
// produces alpha_t = D_t with tiny chi_t (the classic weak-relaxation
// optimum), which the l = 1 cut chi_1 >= 1 separates.
TEST(LotSizingCuts, SeparatesFractionalSetupPoint) {
  LotSizingCutGenerator gen;
  // Variable layout: alpha at 0..2, chi at 3..5.
  gen.add_chain({{0, 3, 1.0}, {1, 4, 1.0}, {2, 5, 1.0}});
  ASSERT_EQ(gen.num_chains(), 1u);

  // alpha meets demand exactly, chi is at the forcing-bound fraction.
  const std::vector<double> x = {1.0, 1.0, 1.0, 1.0 / 3.0, 0.5, 1.0};
  const auto cuts = gen.separate(x, 1e-6);
  ASSERT_FALSE(cuts.empty());
  for (const Cut& cut : cuts) {
    EXPECT_GT(cut.violation(x), 1e-6);
  }
}

// Every returned cut must be satisfied by every integer-feasible
// schedule.  Enumerate all chi subsets; for each feasible subset build
// the canonical schedule (produce at each open period everything needed
// until the next open period) and check the cuts hold.
TEST(LotSizingCuts, CutsAreValidForAllIntegerSchedules) {
  const std::vector<double> demand = {2.0, 0.0, 3.0, 1.0};
  const double initial_inventory = 1.0;
  const std::size_t T = demand.size();
  LotSizingCutGenerator gen;
  std::vector<LotSlot> slots;
  for (std::size_t t = 0; t < T; ++t)
    slots.push_back({t, T + t, demand[t]});
  gen.add_chain(slots, initial_inventory);

  // Fractional point: serve everything "just in time" with fractional
  // setups sized so the separation has something to find.
  std::vector<double> x(2 * T, 0.0);
  for (std::size_t t = 0; t < T; ++t) {
    x[t] = demand[t];
    x[T + t] = demand[t] > 0.0 ? 0.3 : 0.0;
  }
  const auto cuts = gen.separate(x, 1e-6);
  ASSERT_FALSE(cuts.empty());

  std::size_t feasible_schedules = 0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << T); ++mask) {
    std::vector<double> sol(2 * T, 0.0);
    double inventory = initial_inventory;
    bool feasible = true;
    // Walk periods; at each open period produce the demand of every
    // period up to (excluding) the next open one.
    for (std::size_t t = 0; t < T && feasible; ++t) {
      if (mask & (std::size_t{1} << t)) {
        sol[T + t] = 1.0;
        double lot = 0.0;
        for (std::size_t s = t; s < T; ++s) {
          if (s > t && (mask & (std::size_t{1} << s))) break;
          lot += demand[s];
        }
        lot = std::max(lot - inventory, 0.0);
        sol[t] = lot;
        inventory += lot;
      }
      inventory -= demand[t];
      if (inventory < -1e-9) feasible = false;
    }
    if (!feasible) continue;
    ++feasible_schedules;
    for (const Cut& cut : cuts) {
      EXPECT_LE(cut.violation(sol), 1e-9)
          << "cut violated by integer schedule mask=" << mask;
    }
  }
  EXPECT_GT(feasible_schedules, 0u);
}

TEST(LotSizingCuts, IntegerPointYieldsNoCuts) {
  LotSizingCutGenerator gen;
  gen.add_chain({{0, 2, 1.0}, {1, 3, 2.0}});
  // Produce everything in period 0: alpha = (3, 0), chi = (1, 0).
  const std::vector<double> x = {3.0, 0.0, 1.0, 0.0};
  EXPECT_TRUE(gen.separate(x, 1e-6).empty());
}

TEST(LotSizingCuts, InitialInventoryNetsDemand) {
  LotSizingCutGenerator gen;
  // Inventory fully covers the first demand; cuts must not force a
  // setup in period 0.
  gen.add_chain({{0, 2, 1.0}, {1, 3, 1.0}}, /*initial_inventory=*/1.0);
  // chi_0 = 0 but period 1 served fractionally.
  const std::vector<double> x = {0.0, 1.0, 0.0, 0.25};
  const auto cuts = gen.separate(x, 1e-6);
  // The valid schedule alpha=(0,1), chi=(0,1) must satisfy every cut.
  const std::vector<double> integer_sol = {0.0, 1.0, 0.0, 1.0};
  for (const Cut& cut : cuts) {
    EXPECT_LE(cut.violation(integer_sol), 1e-9);
  }
}

TEST(CutPool, DeduplicatesByCoefficientsAndBounds) {
  CutPool pool;
  Cut a;
  a.entries = {{0, 1.0}, {3, 2.5}};
  a.lo = 1.0;
  EXPECT_TRUE(pool.add(a));
  EXPECT_FALSE(pool.add(a));  // exact duplicate
  Cut permuted;
  permuted.entries = {{3, 2.5}, {0, 1.0}};  // same support, other order
  permuted.lo = 1.0;
  EXPECT_FALSE(pool.add(permuted));
  Cut other_bound = a;
  other_bound.lo = 2.0;
  EXPECT_TRUE(pool.add(other_bound));
  Cut other_coeff = a;
  other_coeff.entries[1].coeff = 2.75;
  EXPECT_TRUE(pool.add(other_coeff));
  EXPECT_EQ(pool.size(), 3u);
}

// The cut key and the row merge against the forms they replace: a key
// built with one snprintf("%.9g") per number, and a std::map += merge.
std::string printf_key(const Cut& cut) {
  std::vector<lp::Entry> sorted = cut.entries;
  std::sort(sorted.begin(), sorted.end(),
            [](const lp::Entry& a, const lp::Entry& b) {
              return a.col < b.col;
            });
  std::string key;
  char buf[64];
  for (const lp::Entry& e : sorted) {
    std::snprintf(buf, sizeof buf, "%zu:%.9g;", e.col, e.coeff);
    key += buf;
  }
  std::snprintf(buf, sizeof buf, "|%.9g|%.9g", cut.lo, cut.hi);
  return key + buf;
}

std::vector<lp::Entry> map_merge(const std::vector<lp::Entry>& entries) {
  std::map<std::size_t, double> merged;
  for (const lp::Entry& e : entries) merged[e.col] += e.coeff;
  std::vector<lp::Entry> out;
  for (const auto& [col, coeff] : merged)
    if (coeff != 0.0) out.push_back(lp::Entry{col, coeff});
  return out;
}

TEST(CutPool, KeysAndRowMergesMatchPrintfAndMapReferences) {
  const double sub = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  const std::vector<std::vector<lp::Entry>> supports = {
      // Signed zeros, alone and merged with each other.
      {{0, -0.0}, {1, 0.0}, {2, -0.0}, {2, -0.0}, {3, 1.0}},
      // Subnormals: alone, summed, and cancelling.
      {{0, sub}, {1, sub}, {1, sub}, {2, -sub}, {2, sub},
       {3, min_normal / 3.0}, {4, -3.7e-310}},
      // Huge values: a sum that stays finite, one that cancels, and an
      // order-sensitive one ((1e300 + 1) - 1e300 is 0, not 1).
      {{0, 1e300}, {0, 1e300}, {1, -1e300}, {1, 1e300}, {2, 1e300},
       {2, 1.0}, {2, -1e300}, {3, -1e300}, {4, 1e-300}},
      // Ties at the 9th significant digit (exactly representable, so
      // rounding must go to even), and neighbours of the tie.
      {{7, 123456788.5}, {1, 123456789.5}, {2, -123456788.5},
       {3, 1.000000005}, {4, 0.1234567885}, {5, 1e9}, {6, 1e-5},
       {8, 99999999.95}, {9, 2.5e16}, {9, 2.5e16}},
      // Merges in input order, columns far apart and out of order.
      {{1000, 0.1}, {0, 0.2}, {1000, 0.7}, {0, 0.3}, {5, 1.0 / 3.0},
       {5, 2.0 / 3.0}, {5, -1.0}},
  };
  const std::vector<std::pair<double, double>> bounds = {
      {-lp::kInfinity, 0.0}, {-0.0, lp::kInfinity}, {sub, 1e300},
      {-1e300, 123456788.5}};
  for (std::size_t i = 0; i < supports.size(); ++i) {
    Cut cut;
    cut.entries = supports[i];
    cut.lo = bounds[i % bounds.size()].first;
    cut.hi = bounds[i % bounds.size()].second;
    EXPECT_EQ(CutPool::key(cut), printf_key(cut)) << "support " << i;

    lp::LinearProgram model;
    std::size_t max_col = 0;
    for (const lp::Entry& e : supports[i]) max_col = std::max(max_col, e.col);
    for (std::size_t j = 0; j <= max_col; ++j)
      model.add_variable(0.0, 1.0, 0.0);
    const std::span<const lp::Entry> got =
        model.row(model.add_row(supports[i], cut.lo, cut.hi)).entries;
    const std::vector<lp::Entry> want = map_merge(supports[i]);
    ASSERT_EQ(got.size(), want.size()) << "support " << i;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_EQ(got[k].col, want[k].col) << "support " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[k].coeff),
                std::bit_cast<std::uint64_t>(want[k].coeff))
          << "support " << i << " entry " << k;
    }
  }
  Cut widest;
  widest.entries = {{std::numeric_limits<std::size_t>::max(), -0.0}};
  EXPECT_EQ(CutPool::key(widest), printf_key(widest));
}

// End-to-end: root cuts shrink the aggregated DRRP tree without
// changing the optimum.
TEST(LotSizingCuts, RootCutsShrinkDrrpTree) {
  Rng rng(11);
  core::DrrpInstance inst;
  inst.demand = core::generate_demand(16, core::DemandConfig{}, rng);
  inst.compute_price.assign(16, 0.4);

  milp::BnbOptions off;
  off.root_cuts = false;
  const auto plan_off =
      core::solve_drrp(inst, off, core::DrrpFormulation::Aggregated);
  ASSERT_EQ(plan_off.status, milp::MipStatus::Optimal);
  EXPECT_EQ(plan_off.work.cuts_added, 0u);

  milp::BnbOptions on;  // root_cuts defaults to true
  const auto plan_on =
      core::solve_drrp(inst, on, core::DrrpFormulation::Aggregated);
  ASSERT_EQ(plan_on.status, milp::MipStatus::Optimal);
  EXPECT_GT(plan_on.work.cuts_added, 0u);
  EXPECT_GE(plan_on.root_gap_closed, 0.0);
  EXPECT_LE(plan_on.root_gap_closed, 1.0);
  EXPECT_LT(plan_on.work.nodes_explored, plan_off.work.nodes_explored);
  EXPECT_NEAR(plan_on.cost.total(), plan_off.cost.total(), 1e-6);
}

}  // namespace
