// Heap allocations of model lowering, counted by replacing the global
// operator new/delete of this executable (hence a test binary of its
// own).  Lowering a 16-slot facility-location DRRP (the perfbench
// drrp_fl shape) is the builder and the SimplexSolver constructor over
// the model's LP; the counts are deterministic, so the bounds are work
// gates: a return of per-row or per-column heap vectors, LinExpr
// temporaries or formatted names shows up as hundreds of allocations.
// The nested lowering these replaced made 1,795 allocations on this
// instance (builder, LP copy and solver constructor), and 1,926 for a
// whole solve_drrp.  A one-node solve must allocate as much at jobs 8
// as at jobs 1: the extra workers are only built when the root leaves
// nodes to search.
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "common/invariant.hpp"
#include "common/rng.hpp"
#include "core/demand.hpp"
#include "core/drrp.hpp"
#include "lp/simplex.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Kept out of line: GCC's -Wmismatched-new-delete misreads the free()
// of an inlined replacement delete as freeing a new-expression's block.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace rrp::core;

/// The flat lowering makes 78 allocations here; the bound leaves 2x.
constexpr std::size_t kLoweringBound = 156;
/// A whole solve_drrp makes 181; the bound leaves 2x.
constexpr std::size_t kSolveBound = 362;

DrrpInstance fig10_instance() {
  rrp::Rng rng(16);
  const std::size_t T = 16;
  DrrpInstance inst;
  inst.demand = generate_demand(T, DemandConfig{}, rng);
  inst.compute_price.assign(T, 0.4);
  return inst;
}

template <class F>
std::size_t allocations(F&& f) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(LoweringAllocations, CountingOperatorNewSeesAllocations) {
  const std::size_t n = allocations([] {
    std::vector<int> v(3);
    v.resize(1000);
  });
  EXPECT_EQ(n, 2u);
}

TEST(LoweringAllocations, FacilityLocationLoweringStaysFlat) {
  const DrrpInstance inst = fig10_instance();
  // Once before counting, so first-use statics (registry entries, trace
  // state) are not counted.
  {
    DrrpFlVariables vars;
    rrp::lp::SimplexSolver solver(
        build_drrp_facility_location(inst, &vars).lp());
  }
  std::size_t rows = 0;
  const std::size_t n = allocations([&] {
    DrrpFlVariables vars;
    const rrp::milp::Model model = build_drrp_facility_location(inst, &vars);
    rrp::lp::SimplexSolver solver(model.lp());
    rows = solver.num_rows();
  });
  EXPECT_GT(rows, 100u);
  EXPECT_LE(n, kLoweringBound) << "allocations to build, lower and load a "
                               << rows << "-row DRRP";
  std::printf("lowering allocations: %zu (bound %zu)\n", n, kLoweringBound);
}

TEST(LoweringAllocations, WholeDrrpSolveStaysBounded) {
#if RRP_INVARIANTS_ENABLED
  GTEST_SKIP() << "invariant checks allocate";
#else
  const DrrpInstance inst = fig10_instance();
  const RentalPlan warmup = solve_drrp(inst);
  ASSERT_EQ(warmup.status, rrp::milp::MipStatus::Optimal);
  RentalPlan plan;
  const std::size_t n = allocations([&] { plan = solve_drrp(inst); });
  ASSERT_EQ(plan.status, rrp::milp::MipStatus::Optimal);
  EXPECT_LE(n, kSolveBound) << "allocations of one solve_drrp";
  std::printf("solve_drrp allocations: %zu (bound %zu)\n", n, kSolveBound);
#endif
}

TEST(LoweringAllocations, RootClosedSolveAllocatesAsAtOneJob) {
#if RRP_INVARIANTS_ENABLED
  GTEST_SKIP() << "invariant checks allocate";
#else
  // The root node closes this B&B, so the extra workers of jobs=8 have
  // nothing to search: neither their solvers nor their pool tasks may
  // cost an allocation.
  const DrrpInstance inst = fig10_instance();
  std::size_t counts[2] = {0, 0};
  const std::size_t jobs[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    rrp::milp::BnbOptions opt;
    opt.jobs = jobs[i];
    (void)solve_drrp(inst, opt);  // first-use statics, pool threads
    RentalPlan plan;
    counts[i] = allocations([&] { plan = solve_drrp(inst, opt); });
    ASSERT_EQ(plan.status, rrp::milp::MipStatus::Optimal);
    ASSERT_EQ(plan.work.nodes_explored, 1u);
  }
  EXPECT_EQ(counts[1], counts[0]);
  std::printf("root-closed solve_drrp allocations: %zu at jobs 1, %zu at "
              "jobs 8\n",
              counts[0], counts[1]);
#endif
}

}  // namespace
