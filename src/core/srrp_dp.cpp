#include "core/srrp_dp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
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

    // Candidate lists (see the header), bottom-up: children follow their
    // parent.  A vertex is listed at most once per ancestor, so the lists
    // hold at most V*T entries and the reserve below is never exceeded.
    cand_.assign(V_, Candidates{});
    cand_cum_.reserve(V_ * tree_.num_stages());
    std::size_t cache_size = 0;
    for (std::size_t u = V_; u-- > 1;) {
      Candidates& cu = cand_[u];
      cu.begin = cand_cum_.size();
      cand_cum_.push_back(vertex_[u].cum);
      const auto children = tree_.children(u);
      for (std::size_t c : children) {
        const Candidates& cc = cand_[c];
        for (std::size_t j = cc.begin; j < cc.begin + cc.count; ++j) {
          const auto bits = std::bit_cast<std::uint64_t>(cand_cum_[j]);
          const bool listed = std::any_of(
              cand_cum_.begin() + static_cast<std::ptrdiff_t>(cu.begin),
              cand_cum_.end(), [bits](double cum) {
                return std::bit_cast<std::uint64_t>(cum) == bits;
              });
          if (!listed) cand_cum_.push_back(cand_cum_[j]);
        }
      }
      cu.count = cand_cum_.size() - cu.begin;
      cu.cache = cache_size;
      cache_size += cu.count * children.size();
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

    const std::int64_t key = key_of(initial_storage_);
    double total = 0.0;
    for (std::size_t c : tree_.children(tree_.root()))
      total += value(c, initial_storage_, key);
    policy.expected_cost = total;

    for (std::size_t c : tree_.children(tree_.root()))
      extract(c, initial_storage_, key, policy);
    // Tallied locally, published once per solve.
    RRP_COUNTER_ADD("rrp.dp.tree_states", states_);
    RRP_COUNTER_ADD("rrp.dp.tree_candidates", candidates_);
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

  /// Production candidates of one vertex: root-path demands
  /// cand_cum_[begin, +count), and its block of child_value_.
  struct Candidates {
    std::size_t begin = 0;
    std::size_t count = 0;
    std::size_t cache = 0;
  };

  /// Cost of serving vertex u's subtree given entering inventory x, whose
  /// memo key is `key`.
  double value(std::size_t u, double x, std::int64_t key) {
    if (const Entry* hit = find(u, key)) return hit->value;

    // One poll per uncached state, the unit of real DP work (cache hits
    // stay poll-free so a memo-heavy solve costs no clock reads).
    if (deadline_.expired()) {
      throw TimeLimitExceeded(
          "solve_srrp_tree_dp: deadline expired while evaluating vertex " +
          std::to_string(u));
    }
    ++states_;

    const VertexCosts& vc = vertex_[u];
    const double d = vc.demand;
    const auto children = tree_.children(u);
    const std::size_t width = children.size();

    Entry best;
    // Option 1: no production; feasible when inventory covers demand.
    if (x + kEps >= d) {
      const double out = std::max(x - d, 0.0);
      double cost = vc.delivery + vc.hold_price * out;
      if (width > 0) {
        const std::int64_t out_key = key_of(out);
        for (std::size_t c : children) cost += value(c, out, out_key);
      }
      if (cost < best.value) {
        best.value = cost;
        best.produce = false;
        best.level = out;
      }
    }
    // Option 2: produce up to an exact path-demand level D(u..w), one
    // candidate per distinct level.  The outgoing inventory depends on w
    // alone, so the children's values at it are computed by the first
    // state that reaches the candidate and read from the cache by later
    // ones.
    const Candidates& cand = cand_[u];
    const double base = vc.cum - d;  // D(path to parent(u))
    for (std::size_t j = 0; j < cand.count; ++j) {
      const double level = cand_cum_[cand.begin + j] - base;  // D(u..w)
      if (level <= x + kEps) continue;  // nothing to produce
      ++candidates_;
      const double out = level - d;
      double cost = vc.delivery + vc.rent + vc.gen_unit * (level - x) +
                    vc.hold_price * out;
      double* child = child_value_.data() + cand.cache + j * width;
      if (width > 0 && std::isnan(child[0])) {
        const std::int64_t out_key = key_of(out);
        for (std::size_t k = 0; k < width; ++k)
          child[k] = value(children[k], out, out_key);
      }
      for (std::size_t k = 0; k < width; ++k) cost += child[k];
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

  void extract(std::size_t u, double x, std::int64_t key,
               SrrpPolicy& policy) const {
    const Entry* e = find(u, key);
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
    const auto children = tree_.children(u);
    if (children.empty()) return;
    const std::int64_t out_key = key_of(out);
    for (std::size_t c : children) extract(c, out, out_key, policy);
  }

  const common::Deadline& deadline_;
  const ScenarioTree& tree_;
  std::size_t V_;
  double initial_storage_;
  std::vector<VertexCosts> vertex_;
  std::vector<Candidates> cand_;  ///< per vertex; the root's is unused
  std::vector<double> cand_cum_;  ///< every vertex's candidate list
  /// value(child k, out of candidate j) at cand_[u].cache + j*width + k;
  /// NaN until first used (value() never returns NaN).
  std::vector<double> child_value_;
  std::vector<std::uint32_t> head_;  ///< newest memo slot of u, or kNoSlot
  std::vector<Slot> pool_;           ///< every vertex's memoised states
  std::uint64_t states_ = 0;         ///< uncached states (deadline polls)
  std::uint64_t candidates_ = 0;     ///< production levels evaluated
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
