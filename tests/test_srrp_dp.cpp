// Validation of the exact scenario-tree dynamic program against the
// MILP deterministic equivalents, structural checks of its plans, and a
// bit-for-bit differential against the hash-map DP it replaced.
#include "core/srrp_dp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/demand.hpp"
#include "core/markov_prices.hpp"
#include "core/wagner_whitin.hpp"
#include "market/instance_types.hpp"
#include "market/trace_generator.hpp"
#include "obs/registry.hpp"

namespace {

using namespace rrp::core;

SrrpInstance random_tree_instance(std::uint64_t seed, std::size_t stages,
                                  std::size_t branch, double eps) {
  rrp::Rng rng(seed);
  SrrpInstance inst;
  inst.demand = generate_demand(stages, DemandConfig{}, rng);
  std::vector<std::vector<PricePoint>> supports;
  for (std::size_t s = 0; s < stages; ++s) {
    std::vector<PricePoint> pts;
    double remaining = 1.0;
    for (std::size_t b = 0; b < branch; ++b) {
      const double prob =
          b + 1 == branch ? remaining : remaining * rng.uniform(0.3, 0.7);
      remaining -= b + 1 == branch ? 0.0 : prob;
      pts.push_back(PricePoint{rng.uniform(0.02, 0.6), prob, false});
    }
    // Sort ascending by price (ScenarioTree does not require it but the
    // distribution convention keeps things tidy); prices must differ.
    for (std::size_t b = 1; b < pts.size(); ++b)
      pts[b].price += 1e-4 * static_cast<double>(b);
    supports.push_back(std::move(pts));
  }
  inst.tree = ScenarioTree::build(supports);
  inst.initial_storage = eps;
  return inst;
}

class TreeDpAgreement : public ::testing::TestWithParam<int> {};

TEST_P(TreeDpAgreement, MatchesAggregatedMilp) {
  const double eps = GetParam() % 3 == 0 ? 0.0 : 0.1 * (GetParam() % 5);
  const auto inst = random_tree_instance(
      4000 + static_cast<std::uint64_t>(GetParam()), 3, 2, eps);
  const SrrpPolicy dp = solve_srrp_tree_dp(inst);
  const SrrpPolicy agg = solve_srrp(inst, {}, SrrpFormulation::Aggregated);
  ASSERT_TRUE(agg.feasible());
  EXPECT_NEAR(dp.expected_cost, agg.expected_cost,
              1e-6 * (1.0 + agg.expected_cost));
}

INSTANTIATE_TEST_SUITE_P(Sweep, TreeDpAgreement, ::testing::Range(0, 12));

TEST(TreeDp, MatchesStrengthenedMilpOnWiderTree) {
  const auto inst = random_tree_instance(4444, 4, 2, 0.25);
  const SrrpPolicy dp = solve_srrp_tree_dp(inst);
  const SrrpPolicy fl =
      solve_srrp(inst, {}, SrrpFormulation::FacilityLocation);
  ASSERT_TRUE(fl.feasible());
  EXPECT_NEAR(dp.expected_cost, fl.expected_cost,
              1e-5 * (1.0 + fl.expected_cost));
}

TEST(TreeDp, PlanSatisfiesTreeBalanceAndForcing) {
  const auto inst = random_tree_instance(4555, 4, 3, 0.2);
  const SrrpPolicy dp = solve_srrp_tree_dp(inst);
  for (std::size_t leaf : inst.tree.leaves()) {
    double store = inst.initial_storage;
    for (std::size_t v : inst.tree.path_from_root(leaf)) {
      const std::size_t slot = inst.tree.vertex(v).stage - 1;
      if (!dp.chi[v]) {
        EXPECT_NEAR(dp.alpha[v], 0.0, 1e-9);
      }
      store += dp.alpha[v] - inst.demand[slot];
      EXPECT_GT(store, -1e-7);
      store = std::max(store, 0.0);
      EXPECT_NEAR(store, dp.beta[v], 1e-7);
    }
  }
}

TEST(TreeDp, ExpectedCostMatchesManualAccounting) {
  const auto inst = random_tree_instance(4666, 3, 2, 0.0);
  const SrrpPolicy dp = solve_srrp_tree_dp(inst);
  double expected = 0.0;
  for (std::size_t v = 1; v < inst.tree.num_vertices(); ++v) {
    const auto& vert = inst.tree.vertex(v);
    const std::size_t slot = vert.stage - 1;
    expected += vert.path_prob *
                (inst.costs.generation_cost(dp.alpha[v], slot) +
                 inst.costs.holding(slot) * dp.beta[v] +
                 inst.costs.delivery_cost(inst.demand[slot], slot) +
                 (dp.chi[v] ? vert.price : 0.0));
  }
  EXPECT_NEAR(dp.expected_cost, expected, 1e-8);
}

TEST(TreeDp, ChainTreeEqualsWagnerWhitin) {
  // A tree with branching factor 1 is a deterministic chain: the tree
  // DP must coincide with the Wagner-Whitin DP on the induced DRRP.
  rrp::Rng rng(4777);
  const std::size_t T = 8;
  SrrpInstance inst;
  inst.demand = generate_demand(T, DemandConfig{}, rng);
  std::vector<std::vector<PricePoint>> supports;
  std::vector<double> prices;
  for (std::size_t t = 0; t < T; ++t) {
    prices.push_back(rng.uniform(0.05, 0.8));
    supports.push_back({PricePoint{prices.back(), 1.0, false}});
  }
  inst.tree = ScenarioTree::build(supports);
  inst.initial_storage = 0.3;
  const SrrpPolicy dp = solve_srrp_tree_dp(inst);

  DrrpInstance chain;
  chain.demand = inst.demand;
  chain.compute_price = prices;
  chain.initial_storage = 0.3;
  const RentalPlan ww = solve_drrp_wagner_whitin(chain);
  EXPECT_NEAR(dp.expected_cost, ww.cost.total(), 1e-8);
}

TEST(TreeDp, AdaptsProductionToBranchPrices) {
  // Cheap-vs-expensive stage-1 states: the DP must rent in the cheap
  // state and avoid the expensive one when storage suffices.
  SrrpInstance inst;
  inst.demand = {0.4, 0.4};
  std::vector<std::vector<PricePoint>> supports = {
      {PricePoint{0.02, 0.5, false}, PricePoint{1.5, 0.5, false}},
      {PricePoint{0.4, 1.0, false}}};
  inst.tree = ScenarioTree::build(supports);
  inst.initial_storage = 0.4;
  const SrrpPolicy dp = solve_srrp_tree_dp(inst);
  const auto& s1 = inst.tree.stage_vertices(1);
  EXPECT_EQ(dp.chi[s1[0]], 1);
  EXPECT_EQ(dp.chi[s1[1]], 0);
}

TEST(TreeDp, InventorySharingAcrossBranchesBeatsNaivePairwiseFl) {
  // The scenario that broke the naive pairwise facility location: one
  // unit of inventory produced up front serves slot-2 demand in BOTH
  // mutually exclusive branches; a formulation forcing per-branch
  // production would pay twice.  The DP must find the sharing plan.
  SrrpInstance inst;
  inst.demand = {0.0, 1.0};
  std::vector<std::vector<PricePoint>> supports = {
      {PricePoint{0.05, 0.5, false}, PricePoint{0.0501, 0.5, false}},
      {PricePoint{5.0, 1.0, false}}};  // slot 2 is prohibitive
  inst.tree = ScenarioTree::build(supports);
  const SrrpPolicy dp = solve_srrp_tree_dp(inst);
  // Production happens at stage 1 (price ~0.05) in both states --
  // total expected compute ~0.05, never ~5.
  EXPECT_LT(dp.expected_cost, 1.0);
  const SrrpPolicy agg = solve_srrp(inst, {}, SrrpFormulation::Aggregated);
  EXPECT_NEAR(dp.expected_cost, agg.expected_cost, 1e-6);
}

TEST(TreeDp, RejectsCapacitatedInstances) {
  auto inst = random_tree_instance(4888, 2, 2, 0.0);
  inst.bottleneck_rate = 1.0;
  inst.bottleneck_capacity.assign(2, 1.0);
  EXPECT_THROW(solve_srrp_tree_dp(inst), rrp::InvalidArgument);
}

TEST(TreeDpDeadline, ExpiredDeadlineThrows) {
  const auto inst = random_tree_instance(4901, 3, 2, 0.0);
  rrp::common::FakeClock clock(100.0);
  const auto d = rrp::common::Deadline::after(0.0, clock);
  EXPECT_THROW(solve_srrp_tree_dp(inst, d), rrp::TimeLimitExceeded);
}

TEST(TreeDpDeadline, GenerousDeadlineMatchesUnlimited) {
  const auto inst = random_tree_instance(4902, 3, 2, 0.2);
  rrp::common::FakeClock clock;
  const auto d = rrp::common::Deadline::after(1e9, clock);
  const SrrpPolicy bounded = solve_srrp_tree_dp(inst, d);
  const SrrpPolicy unbounded = solve_srrp_tree_dp(inst);
  EXPECT_NEAR(bounded.expected_cost, unbounded.expected_cost, 1e-12);
}

// ---------------------------------------------------------------------
// Differential test against the recursive hash-map DP.
//
// `frozen::solve` is the tree DP as it was before its flat-storage
// rewrite: one std::unordered_map memo and one descendant vector per
// vertex.  Its arithmetic, evaluation order, tie-breaking and deadline
// polls are what solve_srrp_tree_dp must reproduce bit for bit.  It also
// counts its memoised states and the memo hits whose inventory is not
// bit-equal to the one that created the entry (key_of collisions).

namespace frozen {

constexpr double kEps = 1e-9;

struct Stats {
  std::size_t states = 0;
  std::size_t inexact_hits = 0;
};

class TreeDp {
 public:
  TreeDp(const SrrpInstance& inst, const rrp::common::Deadline& deadline)
      : inst_(inst),
        deadline_(deadline),
        tree_(inst.tree),
        V_(tree_.num_vertices()) {
    cum_.assign(V_, 0.0);
    for (std::size_t u = 1; u < V_; ++u) {
      const auto& vert = tree_.vertex(u);
      const double parent_cum =
          vert.parent == tree_.root() ? 0.0 : cum_[vert.parent];
      cum_[u] = parent_cum + demand_at(u);
    }
    descendants_.assign(V_, {});
    for (std::size_t u = V_; u-- > 1;) {
      descendants_[u].push_back(u);
      for (std::size_t c : tree_.children(u)) {
        descendants_[u].insert(descendants_[u].end(),
                               descendants_[c].begin(),
                               descendants_[c].end());
      }
    }
    memo_.resize(V_);
  }

  SrrpPolicy run(Stats* stats) {
    SrrpPolicy policy;
    policy.status = rrp::milp::MipStatus::Optimal;
    policy.alpha.assign(V_, 0.0);
    policy.beta.assign(V_, 0.0);
    policy.chi.assign(V_, 0);

    double total = 0.0;
    for (std::size_t c : tree_.children(tree_.root()))
      total += value(c, inst_.initial_storage);
    policy.expected_cost = total;

    for (std::size_t c : tree_.children(tree_.root()))
      extract(c, inst_.initial_storage, policy);
    if (stats != nullptr) {
      for (const auto& table : memo_) stats->states += table.size();
      stats->inexact_hits += inexact_hits_;
    }
    return policy;
  }

 private:
  double demand_at(std::size_t u) const {
    return inst_.demand_at_vertex(u);
  }
  double prob(std::size_t u) const { return tree_.vertex(u).path_prob; }
  std::size_t slot_of(std::size_t u) const {
    return tree_.vertex(u).stage - 1;
  }

  static std::int64_t key_of(double x) {
    return static_cast<std::int64_t>(std::llround(x * 1e9));
  }

  struct Entry {
    double value = std::numeric_limits<double>::infinity();
    bool produce = false;
    double level = 0.0;
    double x = 0.0;  ///< inventory that created the entry (statistics only)
  };

  double value(std::size_t u, double x) {
    auto& table = memo_[u];
    const auto it = table.find(key_of(x));
    if (it != table.end()) {
      if (std::bit_cast<std::uint64_t>(it->second.x) !=
          std::bit_cast<std::uint64_t>(x))
        ++inexact_hits_;
      return it->second.value;
    }

    if (deadline_.expired()) {
      throw rrp::TimeLimitExceeded("frozen tree DP: deadline expired");
    }

    const double d = demand_at(u);
    const double p = prob(u);
    const std::size_t slot = slot_of(u);
    const double delivery = p * inst_.costs.delivery_cost(d, slot);
    const double hold_price = p * inst_.costs.holding(slot);
    const double gen_unit = p * inst_.costs.transfer_in(slot) *
                            inst_.costs.input_output_ratio();
    const double rent = p * tree_.vertex(u).price;

    Entry best;
    best.x = x;
    if (x + kEps >= d) {
      const double out = std::max(x - d, 0.0);
      double cost = delivery + hold_price * out;
      for (std::size_t c : tree_.children(u)) cost += value(c, out);
      if (cost < best.value) {
        best.value = cost;
        best.produce = false;
        best.level = out;
      }
    }
    for (std::size_t w : descendants_[u]) {
      const double level = cum_[w] - (cum_[u] - d);
      if (level <= x + kEps) continue;
      const double out = level - d;
      double cost = delivery + rent + gen_unit * (level - x) +
                    hold_price * out;
      for (std::size_t c : tree_.children(u)) cost += value(c, out);
      if (cost < best.value) {
        best.value = cost;
        best.produce = true;
        best.level = level;
      }
    }
    table.emplace(key_of(x), best);
    return best.value;
  }

  void extract(std::size_t u, double x, SrrpPolicy& policy) {
    const Entry& e = memo_[u].at(key_of(x));
    const double d = demand_at(u);
    double out;
    if (e.produce) {
      policy.chi[u] = 1;
      policy.alpha[u] = e.level - x;
      out = e.level - d;
    } else {
      policy.alpha[u] = 0.0;
      out = std::max(x - d, 0.0);
    }
    policy.beta[u] = out;
    for (std::size_t c : tree_.children(u)) extract(c, out, policy);
  }

  const SrrpInstance& inst_;
  const rrp::common::Deadline& deadline_;
  const ScenarioTree& tree_;
  std::size_t V_;
  std::vector<double> cum_;
  std::vector<std::vector<std::size_t>> descendants_;
  std::vector<std::unordered_map<std::int64_t, Entry>> memo_;
  std::size_t inexact_hits_ = 0;
};

SrrpPolicy solve(const SrrpInstance& inst,
                 const rrp::common::Deadline& deadline =
                     rrp::common::Deadline::unlimited(),
                 Stats* stats = nullptr) {
  TreeDp dp(inst, deadline);
  return dp.run(stats);
}

}  // namespace frozen

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bit_identical(const SrrpPolicy& got, const SrrpPolicy& want,
                          const std::string& what) {
  EXPECT_EQ(got.status, want.status) << what;
  EXPECT_EQ(bits(got.expected_cost), bits(want.expected_cost))
      << what << ": " << got.expected_cost << " vs " << want.expected_cost;
  EXPECT_EQ(got.chi, want.chi) << what;
  ASSERT_EQ(got.alpha.size(), want.alpha.size()) << what;
  ASSERT_EQ(got.beta.size(), want.beta.size()) << what;
  for (std::size_t v = 0; v < got.alpha.size(); ++v) {
    EXPECT_EQ(bits(got.alpha[v]), bits(want.alpha[v]))
        << what << ": alpha[" << v << "]";
    EXPECT_EQ(bits(got.beta[v]), bits(want.beta[v]))
        << what << ": beta[" << v << "]";
  }
}

/// `width` price points with random probabilities summing to 1.  Tied
/// supports draw from two price levels, so equal prices meet both
/// within a stage and across stages.
std::vector<PricePoint> random_support(rrp::Rng& rng, std::size_t width,
                                       bool tied) {
  std::vector<PricePoint> pts;
  double remaining = 1.0;
  for (std::size_t b = 0; b < width; ++b) {
    const bool last = b + 1 == width;
    const double prob = last ? remaining : remaining * rng.uniform(0.3, 0.7);
    remaining -= last ? 0.0 : prob;
    const double price = tied ? (rng.uniform(0.0, 1.0) < 0.5 ? 0.05 : 0.25)
                              : rng.uniform(0.02, 0.6);
    pts.push_back(PricePoint{price, prob, false});
  }
  return pts;
}

enum class TreeKind { Unconditional, Conditional, Markov, Joint };

const char* to_string(TreeKind kind) {
  switch (kind) {
    case TreeKind::Unconditional: return "unconditional";
    case TreeKind::Conditional: return "conditional";
    case TreeKind::Markov: return "markov";
    case TreeKind::Joint: return "joint";
  }
  return "?";
}

struct SweepCase {
  TreeKind kind = TreeKind::Unconditional;
  std::vector<std::size_t> widths;
  bool tied = false;
  bool zero_stages = false;  ///< zero the demand of some stages
  int storage = 0;           ///< 0: none, 1: partial, 2: above total demand
  /// Free holding and generation: every level covering a subtree costs
  /// the same, so the strict-< tie-break decides the plan.
  bool free_storage = false;
  /// Per-vertex demands drawn from {0, a, b}: equal root-path demands
  /// between non-siblings (a then 0, 0 then a) and within part of a
  /// sibling set, which the DP lists as one production candidate.
  bool demand_set = false;
};

SrrpInstance sweep_instance(const SweepCase& sc, std::uint64_t seed) {
  rrp::Rng rng(seed);
  const std::size_t T = sc.widths.size();
  SrrpInstance inst;
  // Truncated-normal demands: level sums that agree only to rounding
  // error, so distinct inventories share a memo key.
  inst.demand = generate_demand(T, DemandConfig{}, rng);
  if (sc.zero_stages) {
    for (std::size_t s = 1; s < T; s += 2) inst.demand[s] = 0.0;
  }
  switch (sc.kind) {
    case TreeKind::Unconditional: {
      std::vector<std::vector<PricePoint>> supports;
      for (std::size_t s = 0; s < T; ++s)
        supports.push_back(random_support(rng, sc.widths[s], sc.tied));
      inst.tree = ScenarioTree::build(supports);
      break;
    }
    case TreeKind::Conditional: {
      // Per-parent widths: each vertex branches into 1..widths[stage]
      // points drawn after its parent's.
      inst.tree = ScenarioTree::build_conditional(
          random_support(rng, sc.widths[0], sc.tied), T,
          [&](const ScenarioVertex&, std::size_t stage) {
            const std::size_t w = sc.widths[stage - 1];
            const std::size_t width =
                1 + static_cast<std::size_t>(rng.uniform(0.0, 1.0) *
                                             static_cast<double>(w));
            return random_support(rng, std::min(width, w), sc.tied);
          });
      break;
    }
    case TreeKind::Markov: {
      // Two m1.xlarge price histories, generated once for the sweep.
      const auto vm = rrp::market::VmClass::M1Xlarge;
      static const std::vector<std::vector<double>> histories = {
          rrp::market::generate_trace(vm, 71).hourly(),
          rrp::market::generate_trace(vm, 72).hourly()};
      static const std::vector<MarkovPriceModel> models = {
          MarkovPriceModel::fit(histories[0]),
          MarkovPriceModel::fit(histories[1])};
      const std::vector<double>& hourly = histories[seed % 2];
      const MarkovPriceModel& model = models[seed % 2];
      const double lambda = rrp::market::info(vm).on_demand_hourly;
      std::vector<double> bids;
      for (std::size_t s = 0; s < T; ++s)
        bids.push_back(rrp::stats::quantile(
            hourly, 0.3 + 0.4 * static_cast<double>(s) /
                              static_cast<double>(T)));
      inst.tree = model.build_tree(hourly.back(), bids, lambda, sc.widths);
      break;
    }
    case TreeKind::Joint: {
      std::vector<std::vector<JointPoint>> supports;
      for (std::size_t s = 0; s < T; ++s) {
        std::vector<JointPoint> stage;
        for (const PricePoint& p :
             random_support(rng, sc.widths[s], sc.tied)) {
          double demand =
              generate_demand(1, DemandConfig{}, rng).front();
          if (sc.zero_stages && s % 2 == 1) demand = 0.0;
          stage.push_back(JointPoint{p, demand});
        }
        supports.push_back(std::move(stage));
      }
      auto [tree, vertex_demand] = build_joint_tree(supports);
      inst.tree = std::move(tree);
      inst.vertex_demand = std::move(vertex_demand);
      break;
    }
  }
  if (sc.demand_set) {
    const std::vector<double> ab = generate_demand(2, DemandConfig{}, rng);
    const double set[] = {0.0, ab[0], ab[1]};
    inst.vertex_demand.assign(inst.tree.num_vertices(), 0.0);
    for (std::size_t v = 1; v < inst.vertex_demand.size(); ++v)
      inst.vertex_demand[v] =
          set[std::min<std::size_t>(2, static_cast<std::size_t>(
                                           rng.uniform(0.0, 3.0)))];
  }
  double max_path_demand = 0.0;
  for (std::size_t leaf : inst.tree.leaves()) {
    double path = 0.0;
    for (std::size_t v : inst.tree.path_from_root(leaf))
      path += inst.demand_at_vertex(v);
    max_path_demand = std::max(max_path_demand, path);
  }
  if (sc.free_storage) {
    auto params = rrp::market::CostModel::paper_defaults().parameters();
    params.storage_per_gb_slot = 0.0;
    params.io_per_gb_slot = 0.0;
    params.transfer_in_per_gb = 0.0;
    inst.costs = rrp::market::CostModel(params);
  }
  const double first = inst.demand_at_vertex(inst.tree.children(0)[0]);
  inst.initial_storage = sc.storage == 0   ? 0.0
                         : sc.storage == 1 ? 0.6 * first + 0.3 * max_path_demand
                                           : max_path_demand + 0.25;
  return inst;
}

std::vector<SweepCase> sweep_cases() {
  const std::vector<std::vector<std::size_t>> shapes = {
      {4, 3, 2, 1, 1, 1}, {5, 4, 3, 2, 1, 1}, {2, 2, 2, 1, 1},
      {3, 2, 2, 2}, {1, 1, 1, 1, 1, 1, 1, 1}};
  std::vector<SweepCase> cases;
  for (TreeKind kind : {TreeKind::Unconditional, TreeKind::Conditional,
                        TreeKind::Markov, TreeKind::Joint}) {
    for (const auto& widths : shapes) {
      for (int storage = 0; storage < 3; ++storage) {
        for (int flags = 0; flags < 8; ++flags) {
          // Markov supports come from the fitted chain, not random draws.
          if (kind == TreeKind::Markov && (flags & 1) != 0) continue;
          cases.push_back(SweepCase{kind, widths, (flags & 1) != 0,
                                    (flags & 2) != 0, storage,
                                    (flags & 4) != 0});
        }
      }
    }
  }
  // Appended, so the cases above keep their indices and seeds.
  for (TreeKind kind : {TreeKind::Unconditional, TreeKind::Conditional,
                        TreeKind::Markov, TreeKind::Joint}) {
    for (const auto& widths : shapes) {
      for (int storage = 0; storage < 3; ++storage) {
        for (bool free_storage : {false, true})
          cases.push_back(SweepCase{kind, widths, false, false, storage,
                                    free_storage, /*demand_set=*/true});
      }
    }
  }
  return cases;
}

std::string describe(const SweepCase& sc, std::uint64_t seed) {
  std::string s = std::string(to_string(sc.kind)) + " {";
  for (std::size_t w : sc.widths) s += std::to_string(w) + ",";
  s += "} tied=" + std::to_string(sc.tied) +
       " zero=" + std::to_string(sc.zero_stages) +
       " storage=" + std::to_string(sc.storage) +
       " free=" + std::to_string(sc.free_storage) +
       " set=" + std::to_string(sc.demand_set) +
       " seed=" + std::to_string(seed);
  return s;
}

/// Pairs of vertices under one stage-1 vertex whose root-path demands
/// are bit-equal, so that some vertex lists them as one production
/// level; split by whether the two are siblings.
struct EqualLevels {
  std::size_t siblings = 0;
  std::size_t others = 0;
};

EqualLevels equal_levels(const SrrpInstance& inst) {
  const ScenarioTree& tree = inst.tree;
  const std::size_t V = tree.num_vertices();
  std::vector<double> cum(V, 0.0);
  std::vector<std::size_t> top(V, 0);
  for (std::size_t v = 1; v < V; ++v) {
    const std::size_t parent = tree.vertex(v).parent;
    cum[v] = (parent == tree.root() ? 0.0 : cum[parent]) +
             inst.demand_at_vertex(v);
    top[v] = parent == tree.root() ? v : top[parent];
  }
  EqualLevels eq;
  for (std::size_t a = 1; a < V; ++a) {
    for (std::size_t b = a + 1; b < V; ++b) {
      if (top[a] != top[b] || bits(cum[a]) != bits(cum[b])) continue;
      if (tree.vertex(a).parent == tree.vertex(b).parent)
        ++eq.siblings;
      else
        ++eq.others;
    }
  }
  return eq;
}

TEST(TreeDpDifferential, BitIdenticalToHashMapDpOverSeededSweep) {
  std::size_t solves = 0, inexact_hits = 0, produce_free = 0;
  EqualLevels set_levels;
  const auto cases = sweep_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    for (std::uint64_t rep = 0; rep < 2; ++rep) {
      const std::uint64_t seed = 7100 + 2 * i + rep;
      const SrrpInstance inst = sweep_instance(cases[i], seed);
      frozen::Stats stats;
      const SrrpPolicy want =
          frozen::solve(inst, rrp::common::Deadline::unlimited(), &stats);
      const SrrpPolicy got = solve_srrp_tree_dp(inst);
      expect_bit_identical(got, want, describe(cases[i], seed));
      inexact_hits += stats.inexact_hits;
      if (std::none_of(got.chi.begin(), got.chi.end(),
                       [](char c) { return c != 0; }))
        ++produce_free;
      if (cases[i].demand_set) {
        const EqualLevels eq = equal_levels(inst);
        set_levels.siblings += eq.siblings;
        set_levels.others += eq.others;
      }
      ++solves;
    }
  }
  // The sweep must exercise what the memo layout could get wrong:
  // inventories that share a key without being bit-equal, storage
  // covering every path, and repeated production levels, both between
  // siblings and between other vertices of one subtree.
  EXPECT_GT(inexact_hits, 0u);
  EXPECT_GT(produce_free, 0u);
  EXPECT_GT(set_levels.siblings, 0u);
  EXPECT_GT(set_levels.others, 0u);
  std::printf("differential sweep: %zu solves, %zu inexact memo hits, "
              "%zu plans without production, %zu + %zu equal sibling + "
              "other levels in the demand-set cases\n",
              solves, inexact_hits, produce_free, set_levels.siblings,
              set_levels.others);
}

TEST(TreeDpDeadline, PollsOncePerUncachedStateLikeTheReference) {
  for (const SweepCase& sc :
       {SweepCase{TreeKind::Unconditional, {4, 3, 2, 1, 1, 1}, false, false, 1},
        SweepCase{TreeKind::Joint, {3, 2, 2, 2}, true, true, 0},
        SweepCase{TreeKind::Markov, {5, 4, 3, 2, 1, 1}, false, false, 2}}) {
    const SrrpInstance inst = sweep_instance(sc, 7300);
    rrp::common::FakeClock clock;
    const auto deadline = rrp::common::Deadline::after(1e9, clock);
    frozen::Stats stats;
    const std::uint64_t r0 = clock.reads();
    const SrrpPolicy want = frozen::solve(inst, deadline, &stats);
    const std::uint64_t r1 = clock.reads();
    const SrrpPolicy got = solve_srrp_tree_dp(inst, deadline);
    const std::uint64_t r2 = clock.reads();
    EXPECT_EQ(r1 - r0, stats.states) << describe(sc, 7300);
    EXPECT_EQ(r2 - r1, r1 - r0) << describe(sc, 7300);
    expect_bit_identical(got, want, describe(sc, 7300));
  }
}

TEST(TreeDpDeadline, MidSolveExpiryThrowsAtTheReferencePoll) {
  const SrrpInstance inst = sweep_instance(
      SweepCase{TreeKind::Unconditional, {4, 3, 2, 1, 1, 1}, false, false, 0},
      7301);
  frozen::Stats stats;
  (void)frozen::solve(inst, rrp::common::Deadline::unlimited(), &stats);
  ASSERT_GT(stats.states, 4u);
  // Every read advances the clock one second; the deadline falls half
  // way through the states, so the solve must stop mid-recursion.
  const double budget = static_cast<double>(stats.states / 2);
  std::uint64_t reads_at_throw[2] = {0, 0};
  for (int impl = 0; impl < 2; ++impl) {
    rrp::common::FakeClock clock;
    clock.set_auto_advance(1.0);
    const auto deadline = rrp::common::Deadline::after(budget, clock);
    if (impl == 0) {
      EXPECT_THROW(frozen::solve(inst, deadline), rrp::TimeLimitExceeded);
    } else {
      EXPECT_THROW(solve_srrp_tree_dp(inst, deadline),
                   rrp::TimeLimitExceeded);
    }
    reads_at_throw[impl] = clock.reads();
  }
  EXPECT_EQ(reads_at_throw[1], reads_at_throw[0]);
  EXPECT_LT(reads_at_throw[1], stats.states);
}

TEST(TreeDpWork, CountersPinStatesAndCandidates) {
  // Stage demand on a {2,2,2,1,1} tree: every vertex lists at most one
  // production level per remaining stage.
  constexpr std::size_t kPinnedStates = 94;
  constexpr std::size_t kPinnedCandidates = 128;
  const SrrpInstance inst = sweep_instance(
      SweepCase{TreeKind::Unconditional, {2, 2, 2, 1, 1}, false, false, 1},
      7500);
  frozen::Stats stats;
  const SrrpPolicy want =
      frozen::solve(inst, rrp::common::Deadline::unlimited(), &stats);
  const auto& registry = rrp::obs::global_registry();
  const rrp::obs::MetricsSnapshot before = registry.scrape();
  const SrrpPolicy got = solve_srrp_tree_dp(inst);
  const rrp::obs::MetricsSnapshot after = registry.scrape();
  const auto delta = [&](const char* name) {
    return static_cast<std::size_t>(after.counter(name) -
                                    before.counter(name));
  };
  expect_bit_identical(got, want, "counter instance");
  EXPECT_EQ(delta("rrp.dp.tree_states"), stats.states);
  EXPECT_EQ(delta("rrp.dp.tree_states"), kPinnedStates);
  EXPECT_EQ(delta("rrp.dp.tree_candidates"), kPinnedCandidates);
  std::printf("tree DP work: %zu vertices, %zu states, %zu candidates\n",
              inst.tree.num_vertices(), delta("rrp.dp.tree_states"),
              delta("rrp.dp.tree_candidates"));
}

TEST(TreeDpMemoKey, RoundHalfAwayMatchesLlround) {
  // The memo key rounds x * 1e9 inline; it must give std::llround's
  // integer on exact halves, on the doubles either side of them, on
  // integers and on both zeros.  (0.49999999999999994 is the double
  // just below 0.5, which y + 0.5 truncation would round up.)
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> ys = {0.0, -0.0, 0.49999999999999994, 1e9 * 0.1};
  for (double k : {0.0, 1.0, 2.0, 7.0, 1e3, 123456789.0, 1e15}) {
    for (double sign : {1.0, -1.0}) {
      const double half = sign * (k + 0.5);
      ys.insert(ys.end(), {sign * k, half, std::nextafter(half, kInf),
                           std::nextafter(half, -kInf)});
    }
  }
  for (double y : ys)
    EXPECT_EQ(rrp::core::detail::round_half_away(y), std::llround(y))
        << std::hexfloat << y;
}

TEST(TreeDpConcurrent, PoolSolvesEqualSerialSolves) {
  std::vector<SrrpInstance> instances;
  const auto cases = sweep_cases();
  for (std::size_t i = 0; i < cases.size(); i += 7)
    instances.push_back(sweep_instance(cases[i], 7400 + i));
  std::vector<SrrpPolicy> serial;
  for (const SrrpInstance& inst : instances)
    serial.push_back(solve_srrp_tree_dp(inst));
  std::vector<SrrpPolicy> pooled(instances.size());
  rrp::global_pool().parallel_for(instances.size(), [&](std::size_t i) {
    pooled[i] = solve_srrp_tree_dp(instances[i]);
  });
  for (std::size_t i = 0; i < instances.size(); ++i)
    expect_bit_identical(pooled[i], serial[i], "instance " + std::to_string(i));
}

}  // namespace
