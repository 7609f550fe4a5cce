// Tests for the RRP_INVARIANT/RRP_DCHECK framework (common/invariant.hpp):
// violations throw rrp::ContractViolation carrying file/line, evaluated
// checks are counted, disabled macros compile to no-ops (see
// invariant_off_probe.cpp), and a deliberately corrupted simplex basis
// is caught by rrp::lp::verify_basis.

// Capture whether the *library* was built with checks before forcing
// them on for this translation unit.
#if defined(RRP_ENABLE_INVARIANTS)
#define RRP_TEST_LIBRARY_CHECKED 1
#else
#define RRP_TEST_LIBRARY_CHECKED 0
#define RRP_ENABLE_INVARIANTS 1
#endif

#include "common/invariant.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/scenario_tree.hpp"
#include "lp/simplex.hpp"

static_assert(RRP_INVARIANTS_ENABLED,
              "this translation unit must have invariants enabled");

namespace rrp_test {
bool invariant_off_probe_evaluated();  // defined in invariant_off_probe.cpp
}  // namespace rrp_test

namespace {

using rrp::ContractViolation;

TEST(Invariant, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(RRP_INVARIANT(1 + 1 == 2));
  EXPECT_NO_THROW(RRP_DCHECK(true));
  EXPECT_NO_THROW(RRP_INVARIANT_MSG(true, "unused"));
}

TEST(Invariant, ViolationThrowsContractViolationWithFileAndLine) {
  try {
    RRP_INVARIANT_MSG(1 == 2, "deliberate test violation");
    FAIL() << "RRP_INVARIANT_MSG did not throw";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invariant"), std::string::npos) << what;
    EXPECT_NE(what.find("1 == 2"), std::string::npos) << what;
    EXPECT_NE(what.find("test_invariant.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("deliberate test violation"), std::string::npos)
        << what;
    EXPECT_NE(std::string(e.file()).find("test_invariant.cpp"),
              std::string::npos);
    EXPECT_GT(e.line(), 0);
  }
}

TEST(Invariant, DcheckViolationIsLabelled) {
  try {
    RRP_DCHECK(false);
    FAIL() << "RRP_DCHECK did not throw";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("dcheck"), std::string::npos);
  }
}

TEST(Invariant, EvaluatedChecksAreCounted) {
  const std::uint64_t before = rrp::invariant_checks_executed();
  RRP_INVARIANT(true);
  RRP_DCHECK(true);
  EXPECT_GE(rrp::invariant_checks_executed(), before + 2);
}

TEST(Invariant, DisabledMacrosNeverEvaluateTheCondition) {
  // invariant_off_probe.cpp is compiled with RRP_INVARIANTS_FORCE_OFF;
  // if the no-op expansion evaluated (or enforced) its condition this
  // would either return true or throw.
  EXPECT_FALSE(rrp_test::invariant_off_probe_evaluated());
}

TEST(SimplexBasis, ConsistentBasisPasses) {
  const std::vector<std::size_t> basis{2, 0, 5};
  EXPECT_NO_THROW(rrp::lp::verify_basis(3, 6, basis));
}

TEST(SimplexBasis, CorruptedBasisDuplicateEntryCaught) {
  // Position 0 and 1 both claim column 2 as basic.
  const std::vector<std::size_t> basis{2, 2, 5};
  try {
    rrp::lp::verify_basis(3, 6, basis);
    FAIL() << "duplicate basic column not caught";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("distinct"), std::string::npos)
        << e.what();
  }
}

TEST(SimplexBasis, CorruptedBasisOutOfRangeCaught) {
  const std::vector<std::size_t> basis{2, 9, 5};
  EXPECT_THROW(rrp::lp::verify_basis(3, 6, basis), ContractViolation);
}

TEST(SimplexBasis, CorruptedBasisWrongSizeCaught) {
  const std::vector<std::size_t> basis{2, 5};
  EXPECT_THROW(rrp::lp::verify_basis(3, 6, basis), ContractViolation);
}

TEST(ScenarioTreeInvariant, BuiltTreeValidates) {
  using rrp::core::PricePoint;
  const std::vector<std::vector<PricePoint>> supports{
      {{0.1, 0.5, false}, {0.3, 0.5, false}},
      {{0.1, 0.25, false}, {0.2, 0.25, false}, {0.4, 0.5, true}},
  };
  const auto tree = rrp::core::ScenarioTree::build(supports);
  EXPECT_NO_THROW(tree.validate());
}

#if RRP_TEST_LIBRARY_CHECKED
TEST(InvariantIntegration, SolverExercisesInvariants) {
  // In RRP_CHECK_INVARIANTS builds a simplex solve must actually run
  // its internal checks, observable through the process-wide counter.
  const std::uint64_t before = rrp::invariant_checks_executed();
  rrp::lp::LinearProgram lp;
  const auto x = lp.add_variable(0.0, 10.0, 1.0);
  const auto y = lp.add_variable(0.0, 10.0, 2.0);
  lp.add_row({{x, 1.0}, {y, 1.0}}, 4.0, rrp::lp::kInfinity);
  const auto sol = rrp::lp::solve(lp);
  EXPECT_EQ(sol.status, rrp::lp::SolveStatus::Optimal);
  EXPECT_GT(rrp::invariant_checks_executed(), before);
}
#endif

}  // namespace
