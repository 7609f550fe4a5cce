// Valid-inequality generation for the branch & bound root node.
//
// DRRP's acquire/hold structure is single-item uncapacitated lot-sizing:
// reserved capacity acquired in slot t (alpha_t, with a fixed-charge
// indicator chi_t) serves demand in t and later slots.  The classic
// (l,S) inequalities of Barany, Van Roy and Wolsey,
//
//   sum_{t in S} alpha_t + sum_{t in L\S} delta_{tl} chi_t >= Delta_l,
//   L = {1..l},  delta_{tl} = min(D_t + ... + D_l, Delta_l),
//
// are valid for every S subseteq L and describe the convex hull of the
// uncapacitated problem.  Exact separation is O(T^2) per chain: at a
// fractional point, period t joins S exactly when
// alpha*_t < delta_{tl} chi*_t.
//
// The SRRP deterministic equivalent is a lot-sizing problem per
// root-to-leaf path of the scenario tree (each path is one demand
// chain; cuts per path are valid because they only constrain that
// scenario's variables), so the generator works over explicit "chains"
// that the model builders in rrp::core register.
//
// milp::branch_and_bound drives separation in rounds at the root node
// only; CutPool keeps the added rows duplicate-free across rounds and
// across chains that share a tree prefix.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "lp/model.hpp"

namespace rrp::milp {

/// A globally valid inequality `lo <= sum coeff_j x_j <= hi` over the
/// model's variables (1:1 with LP-relaxation columns).
struct Cut {
  std::vector<lp::Entry> entries;
  double lo = -lp::kInfinity;
  double hi = lp::kInfinity;

  /// Amount by which point `x` violates the cut (<= 0 means satisfied).
  double violation(const std::vector<double>& x) const;
};

/// Interface for root-node cut separators.  Implementations must be
/// const-callable (branch & bound may hold the generator by pointer
/// across a multi-round loop) and must only return inequalities valid
/// for every integer-feasible point of the model.
class CutGenerator {
 public:
  virtual ~CutGenerator() = default;

  /// Returns cuts violated by more than `min_violation` at `x` (the
  /// current LP-relaxation optimum, one value per model variable).
  virtual std::vector<Cut> separate(const std::vector<double>& x,
                                    double min_violation) const = 0;
};

/// One period of a lot-sizing chain: the acquire quantity variable, its
/// fixed-charge indicator (alpha_t > 0 forces chi_t = 1 in the model),
/// and the demand served in the period.
struct LotSlot {
  std::size_t alpha = 0;  ///< continuous acquisition variable index
  std::size_t chi = 0;    ///< binary setup indicator variable index
  double demand = 0.0;    ///< demand of this period
};

/// Exact (l,S) separation over registered demand chains.
class LotSizingCutGenerator : public CutGenerator {
 public:
  /// Registers one lot-sizing chain (periods in time order).  Inventory
  /// carried into the first period reduces the cumulative demands.
  void add_chain(std::vector<LotSlot> slots, double initial_inventory = 0.0);

  std::size_t num_chains() const { return chains_.size(); }

  std::vector<Cut> separate(const std::vector<double>& x,
                            double min_violation) const override;

 private:
  struct Chain {
    std::vector<LotSlot> slots;
    double initial_inventory = 0.0;
  };
  std::vector<Chain> chains_;
};

/// Duplicate filter over cut support: two cuts with the same rounded
/// coefficient pattern and bounds are the same row.  Chains sharing a
/// scenario-tree prefix separate identical cuts; the pool admits one.
class CutPool {
 public:
  /// True when the cut is new (and now recorded), false for duplicates.
  bool add(const Cut& cut);

  /// The dedup key: the cut's (column, coefficient) pairs sorted by
  /// column, then its bounds, every double printed as "%.9g" would.
  static std::string key(const Cut& cut);

  std::size_t size() const { return keys_.size(); }

 private:
  std::set<std::string> keys_;
};

}  // namespace rrp::milp
