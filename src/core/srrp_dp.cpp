#include "core/srrp_dp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace rrp::core {

namespace {

constexpr double kEps = 1e-9;

/// DP engine over (vertex, entering inventory), on flat storage (see the
/// header for the layout).
class TreeDp {
 public:
  TreeDp(const SrrpInstance& inst, const common::Deadline& deadline)
      : deadline_(deadline),
        tree_(inst.tree),
        V_(tree_.num_vertices()),
        initial_storage_(inst.initial_storage) {
    const market::CostModel& costs = inst.costs;
    vertex_.resize(V_);
    for (std::size_t u = 1; u < V_; ++u) {
      const ScenarioVertex& vert = tree_.vertex(u);
      RRP_EXPECTS(vert.parent < u);  // the layouts below rely on it
      const double d = inst.demand_at_vertex(u);
      const double p = vert.path_prob;
      const std::size_t slot = vert.stage - 1;
      VertexCosts& vc = vertex_[u];
      vc.demand = d;
      const double parent_cum =
          vert.parent == tree_.root() ? 0.0 : vertex_[vert.parent].cum;
      vc.cum = parent_cum + d;
      vc.delivery = p * costs.delivery_cost(d, slot);
      vc.hold_price = p * costs.holding(slot);
      vc.gen_unit = p * costs.transfer_in(slot) * costs.input_output_ratio();
      vc.rent = p * vert.price;
    }

    // Pre-order layout: vertex u's subtree is order_[begin_[u], +size_[u]),
    // u first, then each child's subtree in child order.  As parents
    // precede their children, sizes accumulate bottom-up and positions
    // are handed out top-down.
    size_.assign(V_, 1);
    for (std::size_t u = V_; u-- > 1;)
      size_[tree_.vertex(u).parent] += size_[u];
    begin_.assign(V_, 0);
    order_.assign(V_, tree_.root());
    cache_begin_.assign(V_, 0);
    std::size_t cache_size = 0;
    for (std::size_t u = 0; u < V_; ++u) {
      order_[begin_[u]] = u;
      std::size_t next = begin_[u] + 1;
      const auto children = tree_.children(u);
      for (std::size_t c : children) {
        begin_[c] = next;
        next += size_[c];
      }
      if (u != tree_.root()) {
        cache_begin_[u] = cache_size;
        cache_size += size_[u] * children.size();
      }
    }
    child_value_.assign(cache_size, std::numeric_limits<double>::quiet_NaN());
    head_.assign(V_, kNoSlot);
    pool_.reserve(4 * V_);
  }

  SrrpPolicy run() {
    SrrpPolicy policy;
    policy.status = milp::MipStatus::Optimal;
    policy.alpha.assign(V_, 0.0);
    policy.beta.assign(V_, 0.0);
    policy.chi.assign(V_, 0);

    double total = 0.0;
    for (std::size_t c : tree_.children(tree_.root()))
      total += value(c, initial_storage_);
    policy.expected_cost = total;

    for (std::size_t c : tree_.children(tree_.root()))
      extract(c, initial_storage_, policy);
    return policy;
  }

 private:
  static std::int64_t key_of(double x) {
    return detail::round_half_away(x * 1e9);
  }

  /// Per-vertex constants of the state evaluation: the demand, the
  /// demand summed along the root path, and the probability-weighted
  /// unit prices.
  struct VertexCosts {
    double demand = 0.0;
    double cum = 0.0;
    double delivery = 0.0;
    double hold_price = 0.0;
    double gen_unit = 0.0;
    double rent = 0.0;
  };

  struct Entry {
    double value = std::numeric_limits<double>::infinity();
    // Decision: produce up to level `level` (chi = 1) or pass through
    // (produce = false; requires x >= demand).
    bool produce = false;
    double level = 0.0;
  };

  /// One memoised state in the pool, chained to its vertex's other states.
  struct Slot {
    std::int64_t key = 0;
    std::uint32_t next = 0;
    Entry entry;
  };
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();

  const Entry* find(std::size_t u, std::int64_t key) const {
    for (std::uint32_t s = head_[u]; s != kNoSlot; s = pool_[s].next) {
      if (pool_[s].key == key) return &pool_[s].entry;
    }
    return nullptr;
  }

  /// Cost of serving vertex u's subtree given entering inventory x.
  double value(std::size_t u, double x) {
    const std::int64_t key = key_of(x);
    if (const Entry* hit = find(u, key)) return hit->value;

    // One poll per uncached state, the unit of real DP work (cache hits
    // stay poll-free so a memo-heavy solve costs no clock reads).
    if (deadline_.expired()) {
      throw TimeLimitExceeded(
          "solve_srrp_tree_dp: deadline expired while evaluating vertex " +
          std::to_string(u));
    }

    const VertexCosts& vc = vertex_[u];
    const double d = vc.demand;
    const auto children = tree_.children(u);

    Entry best;
    // Option 1: no production; feasible when inventory covers demand.
    if (x + kEps >= d) {
      const double out = std::max(x - d, 0.0);
      double cost = vc.delivery + vc.hold_price * out;
      for (std::size_t c : children) cost += value(c, out);
      if (cost < best.value) {
        best.value = cost;
        best.produce = false;
        best.level = out;
      }
    }
    // Option 2: produce up to an exact path-demand level D(u..w).  The
    // outgoing inventory depends on w alone, so each child's value at it
    // is looked up once and read from the cache by later states.
    const std::size_t first = begin_[u];
    const std::size_t width = children.size();
    for (std::size_t j = 0; j < size_[u]; ++j) {
      const std::size_t w = order_[first + j];
      const double level = vertex_[w].cum - (vc.cum - d);  // D(path u..w)
      if (level <= x + kEps) continue;  // nothing to produce
      const double out = level - d;
      double cost = vc.delivery + vc.rent + vc.gen_unit * (level - x) +
                    vc.hold_price * out;
      const std::size_t cached = cache_begin_[u] + j * width;
      for (std::size_t k = 0; k < width; ++k) {
        double& child = child_value_[cached + k];
        if (std::isnan(child)) child = value(children[k], out);
        cost += child;
      }
      if (cost < best.value) {
        best.value = cost;
        best.produce = true;
        best.level = level;
      }
    }
    RRP_ENSURES(best.value < std::numeric_limits<double>::infinity());
    RRP_ENSURES(pool_.size() < kNoSlot);
    // Children never touch u's chain, so the key is still absent.
    pool_.push_back(Slot{key, head_[u], best});
    head_[u] = static_cast<std::uint32_t>(pool_.size() - 1);
    return best.value;
  }

  void extract(std::size_t u, double x, SrrpPolicy& policy) const {
    const Entry* e = find(u, key_of(x));
    RRP_ENSURES(e != nullptr);
    const double d = vertex_[u].demand;
    double out;
    if (e->produce) {
      policy.chi[u] = 1;
      policy.alpha[u] = e->level - x;
      out = e->level - d;
    } else {
      policy.alpha[u] = 0.0;
      out = std::max(x - d, 0.0);
    }
    policy.beta[u] = out;
    for (std::size_t c : tree_.children(u)) extract(c, out, policy);
  }

  const common::Deadline& deadline_;
  const ScenarioTree& tree_;
  std::size_t V_;
  double initial_storage_;
  std::vector<VertexCosts> vertex_;
  std::vector<std::size_t> order_;        ///< vertices in pre-order
  std::vector<std::size_t> begin_;        ///< position of u in order_
  std::vector<std::size_t> size_;         ///< vertices in u's subtree
  std::vector<std::size_t> cache_begin_;  ///< u's block of child_value_
  /// value(child k, out of candidate j) at cache_begin_[u] + j*width + k;
  /// NaN until first used (value() never returns NaN).
  std::vector<double> child_value_;
  std::vector<std::uint32_t> head_;  ///< newest memo slot of u, or kNoSlot
  std::vector<Slot> pool_;           ///< every vertex's memoised states
};

}  // namespace

SrrpPolicy solve_srrp_tree_dp(const SrrpInstance& inst,
                              const common::Deadline& deadline) {
  RRP_TRACE_SPAN("dp.tree");
  inst.validate();
  if (inst.bottleneck_rate > 0.0 && !inst.bottleneck_capacity.empty()) {
    throw InvalidArgument(
        "the tree DP requires an uncapacitated instance; use the MILP "
        "for bottleneck-constrained planning");
  }
  TreeDp dp(inst, deadline);
  return dp.run();
}

}  // namespace rrp::core
