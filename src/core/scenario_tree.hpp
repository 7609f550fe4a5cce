// Multistage scenario tree (paper Section IV-D, Figure 9).
//
// Stage 0 is the root ("the current state of the world"); each stage
// t in {1..T} corresponds to time slot t, and a vertex at stage t is a
// distinguishable price state reachable at that slot.  Every non-root
// vertex stores the slot's realised compute price (a spot support
// point, or the on-demand price for an out-of-bid state) together with
// its conditional branch probability; path probabilities multiply down
// the tree and sum to 1 within each stage.
//
// Layout.  Vertex ids are stage-contiguous, parent-major and
// support-minor: the vertices of stage s are the consecutive ids that
// follow stage s-1's, and within a stage each parent's children are
// consecutive, parents in id order and each parent's children in
// support order.  So children(v), stage_vertices(s) and leaves() are
// contiguous id ranges, every parent precedes its children, and under a
// stage-uniform support a vertex's position in its stage range modulo
// the support width is its support index.  build(), build_conditional()
// and repair() all produce this layout; it is the only one the class
// can represent.
#pragma once

#include <cstddef>
#include <functional>
#include <ranges>
#include <span>
#include <vector>

#include "core/price_distribution.hpp"

namespace rrp::core {

struct ScenarioVertex {
  std::size_t parent = 0;       ///< root points to itself
  std::size_t stage = 0;        ///< tau(v); root is stage 0
  double price = 0.0;           ///< Cp realisation (unused at the root)
  bool out_of_bid = false;
  double branch_prob = 1.0;     ///< conditional probability given parent
  double path_prob = 1.0;       ///< p_v: product along the root path
};

class ScenarioTree {
 public:
  /// A contiguous run of vertex ids (see the layout above).
  using IdRange = std::ranges::iota_view<std::size_t, std::size_t>;

  /// Builds a tree with `stage_supports.size()` decision stages; every
  /// vertex at stage t-1 branches into stage_supports[t-1]'s points.
  /// Each stage's probabilities must sum to 1.
  static ScenarioTree build(
      std::span<const std::vector<PricePoint>> stage_supports);

  /// Builds a tree whose branch distributions are *conditional on the
  /// parent state*: stage-1 vertices come from `initial`, and every
  /// other vertex's children come from `conditional(parent_point,
  /// stage)` — e.g. a Markov price model where tomorrow's distribution
  /// depends on today's price bucket.  Each returned support must be
  /// non-empty with probabilities summing to 1.
  using ConditionalSupport = std::function<std::vector<PricePoint>(
      const ScenarioVertex& parent, std::size_t stage)>;
  static ScenarioTree build_conditional(
      const std::vector<PricePoint>& initial, std::size_t stages,
      const ConditionalSupport& conditional);

  /// Incremental repair: reshapes this tree in place so it represents
  /// `stage_supports` — rewrites prices and probabilities in stage
  /// order, retires trailing stages, extends new ones — instead of
  /// reallocating the whole tree.  Requires every overlapping stage to
  /// branch with its new support's width; returns false with the tree
  /// untouched when it does not (e.g. conditional trees with per-parent
  /// widths, or changed stage widths), in which case the caller
  /// rebuilds.  A successful repair is arithmetically identical to
  /// build(stage_supports) — the same products in the same order — and
  /// RRP_CHECK_INVARIANTS builds verify that field by field against a
  /// fresh build.
  bool repair(std::span<const std::vector<PricePoint>> stage_supports);

  std::size_t num_vertices() const { return vertices_.size(); }
  std::size_t num_stages() const {  ///< T (0 for an unbuilt tree)
    return stage_begin_.empty() ? 0 : stage_begin_.size() - 2;
  }
  const ScenarioVertex& vertex(std::size_t v) const { return vertices_[v]; }
  std::size_t root() const { return 0; }

  /// Children of a vertex, in support order.
  IdRange children(std::size_t v) const;

  /// All vertices at a given stage (stage 0 = {root}).
  IdRange stage_vertices(std::size_t stage) const;

  /// Leaves (= scenarios, paper's set S): the last stage.
  IdRange leaves() const { return stage_vertices(num_stages()); }

  /// Root-to-v path, excluding the root (P(v) in the paper).
  std::vector<std::size_t> path_from_root(std::size_t v) const;

  /// Sum of path probabilities over a stage (should be ~1; exposed for
  /// validation and tests).
  double stage_probability_mass(std::size_t stage) const;

  /// Full structural validation: parent/child pointers agree, stages
  /// layer correctly (child stage = parent stage + 1), every non-leaf's
  /// branch probabilities sum to 1, path probabilities multiply down the
  /// tree, and each stage's probability mass is ~1.  Throws
  /// rrp::ContractViolation on the first inconsistency.  Runs
  /// automatically after build()/build_conditional() in
  /// RRP_CHECK_INVARIANTS builds; callable directly from tests.
  void validate() const;

 private:
  /// Throws rrp::ContractViolation unless `support` is non-empty with
  /// positive prices and probabilities summing to 1.
  static void check_support(std::span<const PricePoint> support);

  /// Appends stage `stage` below the vertices of stage `stage` - 1 (the
  /// current last stage): each parent, in id order, gets one child per
  /// point of `support_of(parent)`, in support order.
  template <class SupportOf>
  void grow_stage(std::size_t stage, SupportOf&& support_of);

  std::vector<ScenarioVertex> vertices_;
  /// children(v) = [first_child_[v], first_child_[v+1]); size V+1.
  std::vector<std::size_t> first_child_;
  /// stage_vertices(s) = [stage_begin_[s], stage_begin_[s+1]); size T+2.
  std::vector<std::size_t> stage_begin_;
};

}  // namespace rrp::core
