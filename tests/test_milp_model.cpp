#include "milp/model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace {

using namespace rrp::milp;

TEST(MilpModel, VariableKindsTracked) {
  Model m;
  const Var x = m.add_continuous(0.0, 5.0);
  const Var y = m.add_integer(0.0, 10.0);
  const Var z = m.add_binary();
  EXPECT_FALSE(m.is_integral(x.id));
  EXPECT_TRUE(m.is_integral(y.id));
  EXPECT_TRUE(m.is_integral(z.id));
  EXPECT_EQ(m.num_integer_variables(), 2u);
  EXPECT_DOUBLE_EQ(m.variable(z.id).lo, 0.0);
  EXPECT_DOUBLE_EQ(m.variable(z.id).hi, 1.0);
}

TEST(MilpModel, ConstraintConstantFoldedIntoBounds) {
  Model m;
  const Var x = m.add_continuous(0.0, 10.0);
  // x + 2 <= 7  ->  x <= 5.
  m.add_constraint(LinExpr(x) + 2.0 <= 7.0);
  const auto& lp = m.lp();
  EXPECT_DOUBLE_EQ(lp.row(0).hi, 5.0);
}

TEST(MilpModel, RejectsForeignVariables) {
  Model m;
  m.add_continuous(0.0, 1.0);
  Var foreign{42};
  EXPECT_THROW(m.add_constraint(LinExpr(foreign) <= 1.0),
               rrp::ContractViolation);
}

TEST(MilpModel, ToLpPreservesIndexingAndObjective) {
  Model m;
  const Var x = m.add_continuous(0.0, 4.0);
  const Var b = m.add_binary();
  m.set_objective(3.0 * LinExpr(x) - 2.0 * LinExpr(b) + 10.0,
                  Objective::Minimize);
  m.add_constraint(LinExpr(x) + LinExpr(b) <= 4.0);
  const auto& lp = m.lp();
  EXPECT_EQ(lp.num_variables(), 2u);
  EXPECT_DOUBLE_EQ(lp.variable(x.id).objective, 3.0);
  EXPECT_DOUBLE_EQ(lp.variable(b.id).objective, -2.0);
  // The constant is not representable in the LP; objective_value on the
  // model includes it.
  EXPECT_DOUBLE_EQ(m.objective_value({1.0, 1.0}), 11.0);
  EXPECT_DOUBLE_EQ(lp.objective_value({1.0, 1.0}), 1.0);
}

TEST(MilpModel, MaximizeSensePropagates) {
  Model m;
  const Var x = m.add_continuous(0.0, 1.0);
  m.set_objective(LinExpr(x), Objective::Maximize);
  EXPECT_EQ(m.lp().sense(), rrp::lp::Sense::Maximize);
}

TEST(MilpModel, DuplicateTermsMergedInConstraints) {
  Model m;
  const Var x = m.add_continuous(0.0, 10.0);
  m.add_constraint(LinExpr(x) + LinExpr(x) <= 6.0);
  const auto& lp = m.lp();
  ASSERT_EQ(lp.row(0).entries.size(), 1u);
  EXPECT_DOUBLE_EQ(lp.row(0).entries[0].coeff, 2.0);
}

TEST(MilpModel, InvertedVariableBoundsRejected) {
  Model m;
  EXPECT_THROW(m.add_continuous(3.0, 1.0), rrp::ContractViolation);
  EXPECT_THROW(m.add_integer(5.0, 4.0), rrp::ContractViolation);
}

}  // namespace
