#include "lp/model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace {

using namespace rrp::lp;

TEST(LpModel, AddVariableValidatesBounds) {
  LinearProgram lp;
  EXPECT_THROW(lp.add_variable(2.0, 1.0, 0.0), rrp::ContractViolation);
  const auto v = lp.add_variable(0.0, 1.0, 3.0);
  EXPECT_EQ(v, 0u);
  EXPECT_DOUBLE_EQ(lp.variable(v).objective, 3.0);
}

TEST(LpModel, AddRowMergesDuplicateColumns) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 10.0, 1.0);
  lp.add_row({{x, 1.0}, {x, 2.0}}, 0.0, 5.0);
  ASSERT_EQ(lp.row(0).entries.size(), 1u);
  EXPECT_DOUBLE_EQ(lp.row(0).entries[0].coeff, 3.0);
}

TEST(LpModel, AddRowDropsCancelledColumns) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 10.0, 1.0);
  const auto y = lp.add_variable(0.0, 10.0, 1.0);
  lp.add_row({{x, 1.0}, {x, -1.0}, {y, 2.0}}, 0.0, 5.0);
  ASSERT_EQ(lp.row(0).entries.size(), 1u);
  EXPECT_EQ(lp.row(0).entries[0].col, y);
}

TEST(LpModel, AddRowRejectsUnknownColumn) {
  LinearProgram lp;
  lp.add_variable(0.0, 1.0, 0.0);
  EXPECT_THROW(lp.add_row({{5, 1.0}}, 0.0, 1.0), rrp::ContractViolation);
}

TEST(LpModel, AddRowRejectsInvertedBounds) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 1.0, 0.0);
  EXPECT_THROW(lp.add_row({{x, 1.0}}, 2.0, 1.0), rrp::ContractViolation);
}

TEST(LpModel, ObjectiveValueComputes) {
  LinearProgram lp;
  lp.add_variable(0.0, kInfinity, 2.0);
  lp.add_variable(0.0, kInfinity, -1.0);
  EXPECT_DOUBLE_EQ(lp.objective_value({3.0, 4.0}), 2.0);
}

TEST(LpModel, MaxViolationDetectsBoundAndRowBreaches) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 1.0, 0.0);
  lp.add_row({{x, 1.0}}, 0.5, 0.8);
  EXPECT_DOUBLE_EQ(lp.max_violation({0.6}), 0.0);
  EXPECT_NEAR(lp.max_violation({2.0}), 1.2, 1e-12);  // row breach dominates
  EXPECT_NEAR(lp.max_violation({-0.5}), 1.0, 1e-12);
}

TEST(LpModel, SetBoundsAndObjectiveMutators) {
  LinearProgram lp;
  const auto x = lp.add_variable(0.0, 1.0, 0.0);
  lp.set_variable_bounds(x, -2.0, 2.0);
  lp.set_objective(x, 7.0);
  EXPECT_DOUBLE_EQ(lp.variable(x).lo, -2.0);
  EXPECT_DOUBLE_EQ(lp.variable(x).objective, 7.0);
}

TEST(LpModel, StatusToString) {
  EXPECT_STREQ(to_string(SolveStatus::Optimal), "optimal");
  EXPECT_STREQ(to_string(SolveStatus::Infeasible), "infeasible");
  EXPECT_STREQ(to_string(SolveStatus::Unbounded), "unbounded");
}

}  // namespace
