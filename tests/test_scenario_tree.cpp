#include "core/scenario_tree.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace {

using namespace rrp::core;

std::vector<PricePoint> support(std::initializer_list<std::pair<double, double>>
                                    price_probs) {
  std::vector<PricePoint> out;
  for (const auto& [price, prob] : price_probs)
    out.push_back(PricePoint{price, prob, false});
  return out;
}

TEST(ScenarioTree, SingleStageStructure) {
  std::vector<std::vector<PricePoint>> supports = {
      support({{0.05, 0.7}, {0.2, 0.3}})};
  const auto tree = ScenarioTree::build(supports);
  EXPECT_EQ(tree.num_stages(), 1u);
  EXPECT_EQ(tree.num_vertices(), 3u);  // root + 2
  EXPECT_EQ(tree.children(0).size(), 2u);
  EXPECT_EQ(tree.leaves().size(), 2u);
  EXPECT_NEAR(tree.stage_probability_mass(1), 1.0, 1e-12);
}

TEST(ScenarioTree, TwoStageCartesianGrowth) {
  std::vector<std::vector<PricePoint>> supports = {
      support({{0.05, 0.5}, {0.06, 0.5}}),
      support({{0.05, 0.3}, {0.06, 0.3}, {0.07, 0.4}})};
  const auto tree = ScenarioTree::build(supports);
  EXPECT_EQ(tree.stage_vertices(1).size(), 2u);
  EXPECT_EQ(tree.stage_vertices(2).size(), 6u);
  EXPECT_EQ(tree.leaves().size(), 6u);
  EXPECT_NEAR(tree.stage_probability_mass(2), 1.0, 1e-12);
}

TEST(ScenarioTree, PathProbabilitiesMultiply) {
  std::vector<std::vector<PricePoint>> supports = {
      support({{0.05, 0.4}, {0.06, 0.6}}),
      support({{0.05, 0.5}, {0.07, 0.5}})};
  const auto tree = ScenarioTree::build(supports);
  // First stage-2 vertex: child of first stage-1 vertex with prob 0.5.
  const std::size_t v = tree.stage_vertices(2)[0];
  EXPECT_NEAR(tree.vertex(v).path_prob, 0.4 * 0.5, 1e-12);
  EXPECT_NEAR(tree.vertex(v).branch_prob, 0.5, 1e-12);
}

TEST(ScenarioTree, ParentChildConsistency) {
  std::vector<std::vector<PricePoint>> supports = {
      support({{0.05, 1.0}}), support({{0.06, 0.5}, {0.07, 0.5}}),
      support({{0.05, 1.0}})};
  const auto tree = ScenarioTree::build(supports);
  for (std::size_t v = 1; v < tree.num_vertices(); ++v) {
    const auto& vert = tree.vertex(v);
    EXPECT_EQ(tree.vertex(vert.parent).stage + 1, vert.stage);
    bool found = false;
    for (std::size_t c : tree.children(vert.parent))
      if (c == v) found = true;
    EXPECT_TRUE(found);
  }
}

TEST(ScenarioTree, PathFromRootOrdering) {
  std::vector<std::vector<PricePoint>> supports = {
      support({{0.05, 1.0}}), support({{0.06, 1.0}}),
      support({{0.07, 1.0}})};
  const auto tree = ScenarioTree::build(supports);
  const std::size_t leaf = tree.leaves()[0];
  const auto path = tree.path_from_root(leaf);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(tree.vertex(path[0]).stage, 1u);
  EXPECT_EQ(tree.vertex(path[2]).stage, 3u);
  EXPECT_EQ(path[2], leaf);
  EXPECT_NEAR(tree.vertex(path[0]).price, 0.05, 1e-12);
  EXPECT_NEAR(tree.vertex(path[2]).price, 0.07, 1e-12);
}

TEST(ScenarioTree, BalancedDepthAllLeavesAtFinalStage) {
  std::vector<std::vector<PricePoint>> supports = {
      support({{0.05, 0.5}, {0.06, 0.5}}),
      support({{0.05, 0.5}, {0.06, 0.5}}),
      support({{0.05, 1.0}})};
  const auto tree = ScenarioTree::build(supports);
  for (std::size_t leaf : tree.leaves())
    EXPECT_EQ(tree.vertex(leaf).stage, 3u);
}

TEST(ScenarioTree, OutOfBidFlagPropagates) {
  std::vector<PricePoint> stage1 = {{0.05, 0.8, false}, {0.2, 0.2, true}};
  std::vector<std::vector<PricePoint>> supports = {stage1};
  const auto tree = ScenarioTree::build(supports);
  const auto& s1 = tree.stage_vertices(1);
  EXPECT_FALSE(tree.vertex(s1[0]).out_of_bid);
  EXPECT_TRUE(tree.vertex(s1[1]).out_of_bid);
}

TEST(ScenarioTree, ValidationRejectsBadSupports) {
  std::vector<std::vector<PricePoint>> empty_stage = {{}};
  EXPECT_THROW(ScenarioTree::build(empty_stage), rrp::ContractViolation);
  std::vector<std::vector<PricePoint>> bad_mass = {
      support({{0.05, 0.5}, {0.06, 0.4}})};
  EXPECT_THROW(ScenarioTree::build(bad_mass), rrp::ContractViolation);
  std::vector<std::vector<PricePoint>> zero_price = {
      support({{0.0, 1.0}})};
  EXPECT_THROW(ScenarioTree::build(zero_price), rrp::ContractViolation);
}

TEST(ScenarioTree, ConditionalTreeChildRangesTileEachStage) {
  // Per-parent widths of 1 and 2: the child ranges of each stage's
  // vertices, taken in id order, are exactly the next stage's range.
  const std::vector<PricePoint> initial = {{0.05, 0.6, false},
                                           {0.08, 0.4, false}};
  const auto tree = ScenarioTree::build_conditional(
      initial, 3, [](const ScenarioVertex& parent, std::size_t) {
        if (parent.price > 0.065)
          return std::vector<PricePoint>{{parent.price - 0.03, 1.0, false}};
        return std::vector<PricePoint>{{parent.price, 0.5, false},
                                       {parent.price + 0.02, 0.5, false}};
      });
  ASSERT_EQ(tree.num_stages(), 3u);
  for (std::size_t stage = 0; stage < tree.num_stages(); ++stage) {
    SCOPED_TRACE(stage);
    std::size_t next = tree.stage_vertices(stage + 1).front();
    for (std::size_t v : tree.stage_vertices(stage)) {
      for (std::size_t c : tree.children(v)) {
        EXPECT_EQ(c, next++);
        EXPECT_EQ(tree.vertex(c).parent, v);
      }
    }
    EXPECT_EQ(next, tree.stage_vertices(stage + 1).back() + 1);
  }
  // Widths differ across stage 2's parents, so the layout is not a
  // uniform product.
  EXPECT_EQ(tree.stage_vertices(2).size(), 3u);
  EXPECT_EQ(tree.leaves().size(), 5u);
  for (std::size_t leaf : tree.leaves())
    EXPECT_TRUE(tree.children(leaf).empty());
  tree.validate();
}

// --- In-place repair ------------------------------------------------
//
// A successful repair must leave the tree EXACTLY equal to a fresh
// build() on the new supports — same vertices, same probabilities to
// the last bit — because the rolling-horizon incremental mode feeds
// repaired trees to the same solver that consumed built ones.

void expect_equals_fresh_build(
    const ScenarioTree& repaired,
    const std::vector<std::vector<PricePoint>>& supports) {
  const auto fresh = ScenarioTree::build(supports);
  ASSERT_EQ(repaired.num_vertices(), fresh.num_vertices());
  ASSERT_EQ(repaired.num_stages(), fresh.num_stages());
  for (std::size_t v = 0; v < fresh.num_vertices(); ++v) {
    SCOPED_TRACE(v);
    EXPECT_EQ(repaired.vertex(v).parent, fresh.vertex(v).parent);
    EXPECT_EQ(repaired.vertex(v).stage, fresh.vertex(v).stage);
    EXPECT_EQ(repaired.vertex(v).price, fresh.vertex(v).price);
    EXPECT_EQ(repaired.vertex(v).out_of_bid, fresh.vertex(v).out_of_bid);
    EXPECT_EQ(repaired.vertex(v).branch_prob, fresh.vertex(v).branch_prob);
    EXPECT_EQ(repaired.vertex(v).path_prob, fresh.vertex(v).path_prob);
    ASSERT_EQ(repaired.children(v).size(), fresh.children(v).size());
    for (std::size_t c = 0; c < fresh.children(v).size(); ++c)
      EXPECT_EQ(repaired.children(v)[c], fresh.children(v)[c]);
  }
  repaired.validate();
}

TEST(ScenarioTreeRepair, ReweightSameShapeMatchesBuild) {
  std::vector<std::vector<PricePoint>> before = {
      support({{0.05, 0.4}, {0.06, 0.6}}),
      support({{0.05, 0.3}, {0.07, 0.7}})};
  auto tree = ScenarioTree::build(before);
  std::vector<std::vector<PricePoint>> after = {
      support({{0.04, 0.5}, {0.08, 0.5}}),
      support({{0.06, 0.2}, {0.09, 0.8}})};
  EXPECT_TRUE(tree.repair(after));
  expect_equals_fresh_build(tree, after);
}

TEST(ScenarioTreeRepair, ExtendAddsStages) {
  std::vector<std::vector<PricePoint>> before = {
      support({{0.05, 1.0}}), support({{0.06, 0.5}, {0.07, 0.5}})};
  auto tree = ScenarioTree::build(before);
  std::vector<std::vector<PricePoint>> after = {
      support({{0.05, 1.0}}), support({{0.06, 0.4}, {0.07, 0.6}}),
      support({{0.05, 0.3}, {0.06, 0.3}, {0.08, 0.4}})};
  EXPECT_TRUE(tree.repair(after));
  expect_equals_fresh_build(tree, after);
  EXPECT_EQ(tree.num_stages(), 3u);
}

TEST(ScenarioTreeRepair, RetireDropsTrailingStages) {
  // The rolling horizon shrinks near the end of the evaluation window:
  // w = min(lookahead, T - t) retires trailing stages every replan.
  std::vector<std::vector<PricePoint>> before = {
      support({{0.05, 0.5}, {0.06, 0.5}}),
      support({{0.05, 0.5}, {0.07, 0.5}}),
      support({{0.06, 1.0}})};
  auto tree = ScenarioTree::build(before);
  std::vector<std::vector<PricePoint>> after = {
      support({{0.04, 0.6}, {0.09, 0.4}})};
  EXPECT_TRUE(tree.repair(after));
  expect_equals_fresh_build(tree, after);
  EXPECT_EQ(tree.num_stages(), 1u);
  // ...and a horizon that grows again extends the retired tree past its
  // original depth.
  std::vector<std::vector<PricePoint>> regrown = {
      support({{0.05, 0.3}, {0.08, 0.7}}), support({{0.06, 1.0}}),
      support({{0.05, 0.2}, {0.06, 0.8}}),
      support({{0.04, 0.5}, {0.07, 0.25}, {0.09, 0.25}})};
  EXPECT_TRUE(tree.repair(regrown));
  expect_equals_fresh_build(tree, regrown);
  EXPECT_EQ(tree.num_stages(), 4u);
}

TEST(ScenarioTreeRepair, RepeatedRepairsStayIdentical) {
  // Replan after replan, the same tree object is repaired over and
  // over; drift would compound, so every step must equal a fresh build.
  std::vector<std::vector<PricePoint>> initial = {
      support({{0.05, 0.5}, {0.06, 0.5}}),
      support({{0.07, 0.5}, {0.09, 0.5}})};
  auto tree = ScenarioTree::build(initial);
  for (int step = 0; step < 6; ++step) {
    const double shift = 0.01 * step;
    std::vector<std::vector<PricePoint>> supports = {
        support({{0.05 + shift, 0.4}, {0.06 + shift, 0.6}}),
        support({{0.05 + shift, 0.7}, {0.08 + shift, 0.3}})};
    ASSERT_TRUE(tree.repair(supports));
    expect_equals_fresh_build(tree, supports);
  }
}

TEST(ScenarioTreeRepair, WidthMismatchRefusesAndLeavesTreeIntact) {
  std::vector<std::vector<PricePoint>> before = {
      support({{0.05, 0.4}, {0.06, 0.6}})};
  auto tree = ScenarioTree::build(before);
  std::vector<std::vector<PricePoint>> wider = {
      support({{0.05, 0.3}, {0.06, 0.3}, {0.07, 0.4}})};
  EXPECT_FALSE(tree.repair(wider));
  // Untouched: still the original tree.
  expect_equals_fresh_build(tree, before);
}

TEST(ScenarioTreeRepair, ConditionalTreeRefusesRepair) {
  // Conditional trees have per-parent supports (widths can differ
  // across a stage), which repair's uniform-support contract cannot
  // represent; it must decline rather than guess.
  const std::vector<PricePoint> initial = {{0.05, 0.6, false},
                                           {0.08, 0.4, false}};
  auto tree = ScenarioTree::build_conditional(
      initial, 2,
      [](const ScenarioVertex& parent, std::size_t) {
        // Width depends on the parent price: 1 or 2 children.
        if (parent.price > 0.06)
          return std::vector<PricePoint>{{parent.price, 1.0, false}};
        return std::vector<PricePoint>{{parent.price, 0.5, false},
                                       {parent.price + 0.01, 0.5, false}};
      });
  std::vector<std::vector<PricePoint>> supports = {
      support({{0.05, 0.6}, {0.08, 0.4}}), support({{0.05, 1.0}})};
  EXPECT_FALSE(tree.repair(supports));
}

TEST(ScenarioTreeRepair, RejectsInvalidSupportsLikeBuild) {
  std::vector<std::vector<PricePoint>> initial = {support({{0.05, 1.0}})};
  auto tree = ScenarioTree::build(initial);
  std::vector<std::vector<PricePoint>> bad_mass = {
      support({{0.05, 0.5}, {0.06, 0.4}})};
  EXPECT_THROW(tree.repair(bad_mass), rrp::ContractViolation);
  std::vector<std::vector<PricePoint>> empty_stage = {{}};
  EXPECT_THROW(tree.repair(empty_stage), rrp::ContractViolation);
}

}  // namespace
