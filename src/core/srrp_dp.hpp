// Exact dynamic program for the stochastic uncapacitated lot-sizing
// structure of SRRP (the tree analogue of Wagner-Whitin; cf. Guan &
// Miller's polynomial algorithms for stochastic ULS).
//
// Structural property (extreme-point argument on the fixed-chi min-cost
// flow, plus "alpha cannot be reduced" optimality): some optimal
// solution has, for every producing vertex v, a descendant w such that
// the post-production inventory level equals the exact demand of the
// path v..w.  Consequently the inventory entering any vertex v takes a
// value from the O(|V|) candidate set { D(path to w) - D(path to
// parent(v)) } plus the initial-storage offset, and a memoised DP over
// (vertex, entering inventory) solves SRRP exactly.
//
// Cost.  Descendants with the same root-path demand give the same
// level, so each vertex keeps one production candidate per distinct
// D(path to w): at most its subtree size, and at most one per
// remaining stage when demand is per stage (SrrpInstance::demand, no
// vertex_demand).  Every uncached state scans its vertex's candidates
// once; a candidate's child values are computed once per vertex, not
// once per state.  A replan tree of ~95 vertices has ~345 states and
// ~2.9 candidates per vertex: microseconds, versus seconds-to-hours
// for branch & bound on the deterministic equivalent.
//
// Requires an uncapacitated instance (like Wagner-Whitin for DRRP).
//
// Memo layout.  A state is keyed by x * 1e9 rounded half away from zero
// (std::llround's rule, detail::round_half_away below) of its entering
// inventory x; the first x that misses a key computes the entry, and
// later inventories rounding to that key read it.  Each key is computed
// once per request and passed to every child.  Storage is flat and
// local to one solve:
//   * per vertex u, a candidate list of root-path demands, built
//     bottom-up: u's own, then each child's list in child order, less
//     any value bit-equal to one already listed, so the list holds the
//     first vertex of each distinct level in u's pre-order;
//   * every memoised state in one pool of (key, entry, next) slots,
//     chained per vertex;
//   * a per-(vertex, candidate, child) cache of the child's value at the
//     candidate's outgoing inventory, which does not depend on x: filled
//     on the first state that uses it, read by every later one;
//   * per-vertex demand, root-path demand and probability-weighted unit
//     prices.
// Nothing is static or thread_local, so concurrent solves share nothing.
// Each completed solve adds its uncached states (= deadline polls) to
// the counter rrp.dp.tree_states and its evaluated production levels
// (candidates above the entering inventory) to rrp.dp.tree_candidates.
//
// Bit-identity contract.  The recursion, its DFS evaluation order, the
// strict-< tie-break (the first candidate in pre-order wins a tie), the
// summation order of every cost and the deadline polls (once per
// uncached state) are those of the hash-map DP this replaced, so
// policies, expected cost and the representative x of each rounded key
// are bit-identical to it.  Dropping a repeated level changes none of
// them: a bit-equal level gives a bit-equal outgoing inventory and
// cost, it never wins the strict-< scan against its first occurrence,
// and its child look-ups could only hit states that the first
// occurrence created.  tests/test_srrp_dp.cpp keeps the hash-map DP as
// a frozen reference and compares the two bit for bit.
#pragma once

#include <cstdint>

#include "common/deadline.hpp"
#include "core/srrp.hpp"

namespace rrp::core {

namespace detail {

/// std::llround(y) for |y| < 2^52, inline instead of a libm call: y -
/// trunc(y) is exact there, so comparing it with +-0.5 rounds halves
/// away from zero (y + 0.5 truncation would round 0.49999999999999994
/// up).
inline std::int64_t round_half_away(double y) {
  const auto t = static_cast<std::int64_t>(y);
  const double frac = y - static_cast<double>(t);
  return t + (frac >= 0.5) - (frac <= -0.5);
}

}  // namespace detail

/// Solves SRRP exactly by dynamic programming over the scenario tree.
/// Throws InvalidArgument when the bottleneck constraint is active.
/// The deadline is polled once per uncached (vertex, inventory) state;
/// on expiry the solve throws rrp::TimeLimitExceeded (the memo table
/// holds no sound partial policy).
SrrpPolicy solve_srrp_tree_dp(
    const SrrpInstance& instance,
    const common::Deadline& deadline = common::Deadline::unlimited());

}  // namespace rrp::core
