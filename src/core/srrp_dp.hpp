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
// (vertex, entering inventory) solves SRRP exactly in roughly
// O(|V|^3) time — microseconds at the paper's tree sizes, versus
// seconds-to-hours for branch & bound on the deterministic equivalent.
//
// Requires an uncapacitated instance (like Wagner-Whitin for DRRP).
//
// Memo layout.  A state is keyed by x * 1e9 rounded half away from zero
// (std::llround's rule, detail::round_half_away below) of its entering
// inventory x; the first x that misses a key computes the entry, and
// later inventories rounding to that key read it.  Storage is flat and
// local to one solve:
//   * the vertices in one pre-order array, so the production candidates
//     of u (its subtree) are the contiguous range [begin(u), +size(u));
//   * every memoised state in one pool of (key, entry, next) slots,
//     chained per vertex;
//   * a per-(vertex, candidate, child) cache of the child's value at the
//     candidate's outgoing inventory, which does not depend on x: filled
//     on the first state that uses it, read by every later one;
//   * per-vertex demand, root-path demand and probability-weighted unit
//     prices.
// Nothing is static or thread_local, so concurrent solves share nothing.
//
// Bit-identity contract.  The recursion, its DFS evaluation order, the
// strict-< tie-break (the first candidate in pre-order wins a tie), the
// summation order of every cost and the deadline polls (once per
// uncached state) are those of the hash-map DP this replaced, so
// policies, expected cost and the representative x of each rounded key
// are bit-identical to it.  tests/test_srrp_dp.cpp keeps that DP as a
// frozen reference and compares the two bit for bit.
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
