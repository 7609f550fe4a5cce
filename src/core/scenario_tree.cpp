#include "core/scenario_tree.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/invariant.hpp"
#include "obs/obs.hpp"

namespace rrp::core {

void ScenarioTree::check_support(std::span<const PricePoint> support) {
  RRP_EXPECTS(!support.empty());
  double total = 0.0;
  for (const PricePoint& p : support) {
    RRP_EXPECTS(p.price > 0.0);
    RRP_EXPECTS(p.prob > 0.0);
    total += p.prob;
  }
  RRP_EXPECTS(std::fabs(total - 1.0) < 1e-6);
}

template <class SupportOf>
void ScenarioTree::grow_stage(std::size_t stage, SupportOf&& support_of) {
  const std::size_t end = stage_begin_[stage];
  first_child_.pop_back();  // the old sentinel becomes a new vertex's slot
  for (std::size_t parent = stage_begin_[stage - 1]; parent < end; ++parent) {
    first_child_[parent] = vertices_.size();
    const auto& support = support_of(parent);
    for (const PricePoint& p : support)
      vertices_.push_back(ScenarioVertex{parent, stage, p.price, p.out_of_bid,
                                         p.prob,
                                         vertices_[parent].path_prob * p.prob});
  }
  // The new stage's vertices are leaves: empty ranges at the end.
  first_child_.resize(vertices_.size() + 1, vertices_.size());
  stage_begin_.push_back(vertices_.size());
}

ScenarioTree ScenarioTree::build(
    std::span<const std::vector<PricePoint>> stage_supports) {
  RRP_TRACE_SPAN("tree.build");
  RRP_EXPECTS(!stage_supports.empty());
  for (const auto& support : stage_supports) check_support(support);

  ScenarioTree tree;
  tree.vertices_.push_back(ScenarioVertex{});  // root
  tree.first_child_ = {1, 1};
  tree.stage_begin_ = {0, 1};
  for (std::size_t stage = 1; stage <= stage_supports.size(); ++stage)
    tree.grow_stage(stage, [&](std::size_t) -> const std::vector<PricePoint>& {
      return stage_supports[stage - 1];
    });
#if RRP_INVARIANTS_ENABLED
  tree.validate();
#endif
  return tree;
}

ScenarioTree ScenarioTree::build_conditional(
    const std::vector<PricePoint>& initial, std::size_t stages,
    const ConditionalSupport& conditional) {
  RRP_EXPECTS(stages >= 1);
  check_support(initial);

  ScenarioTree tree;
  tree.vertices_.push_back(ScenarioVertex{});  // root
  tree.first_child_ = {1, 1};
  tree.stage_begin_ = {0, 1};
  tree.grow_stage(1, [&](std::size_t) -> const std::vector<PricePoint>& {
    return initial;
  });
  for (std::size_t stage = 2; stage <= stages; ++stage)
    tree.grow_stage(stage, [&](std::size_t parent) {
      std::vector<PricePoint> support =
          conditional(tree.vertices_[parent], stage);
      check_support(support);
      return support;
    });
#if RRP_INVARIANTS_ENABLED
  tree.validate();
#endif
  return tree;
}

bool ScenarioTree::repair(
    std::span<const std::vector<PricePoint>> stage_supports) {
  RRP_EXPECTS(!stage_supports.empty());
  for (const auto& support : stage_supports) check_support(support);

  const std::size_t old_stages = num_stages();
  const std::size_t new_stages = stage_supports.size();
  const std::size_t keep = std::min(old_stages, new_stages);

  // Shape check first, so a refusal leaves the tree untouched: every
  // overlapping stage must branch with the new support's width
  // (conditional trees with per-parent supports fail here).
  for (std::size_t stage = 1; stage <= keep; ++stage) {
    const std::size_t width = stage_supports[stage - 1].size();
    for (std::size_t parent : stage_vertices(stage - 1))
      if (children(parent).size() != width) return false;
  }

  RRP_TRACE_SPAN("tree.repair");
  RRP_TRACE_ARG("stages", new_stages);
  RRP_COUNTER_ADD("rrp.tree.repairs", 1);

  if (new_stages < old_stages) {
    // Retiring stages slices every array: the stage-contiguous layout
    // puts the surviving vertices first.
    const std::size_t retained = stage_begin_[new_stages + 1];
    vertices_.resize(retained);
    stage_begin_.resize(new_stages + 2);
    first_child_.resize(stage_begin_[new_stages]);
    first_child_.resize(retained + 1, retained);
  }

  // Rewrite the surviving stages in build order: a parent's path
  // probability is final before any child is touched, so every product
  // below is the exact multiplication build() would perform.
  for (std::size_t stage = 1; stage <= keep; ++stage) {
    const auto& support = stage_supports[stage - 1];
    for (std::size_t parent : stage_vertices(stage - 1)) {
      for (std::size_t j = 0; j < support.size(); ++j) {
        const PricePoint& p = support[j];
        ScenarioVertex& v = vertices_[first_child_[parent] + j];
        v.price = p.price;
        v.out_of_bid = p.out_of_bid;
        v.branch_prob = p.prob;
        v.path_prob = vertices_[parent].path_prob * p.prob;
      }
    }
  }

  for (std::size_t stage = old_stages + 1; stage <= new_stages; ++stage)
    grow_stage(stage, [&](std::size_t) -> const std::vector<PricePoint>& {
      return stage_supports[stage - 1];
    });

#if RRP_INVARIANTS_ENABLED
  validate();
  // The repair-vs-rebuild contract, checked literally: the repaired
  // tree must be the tree a fresh build would produce.
  const ScenarioTree rebuilt = build(stage_supports);
  auto fail = [](const char* cond, const std::string& detail) {
    ::rrp::detail::invariant_fail("invariant", cond, __FILE__, __LINE__,
                                  detail);
  };
  if (first_child_ != rebuilt.first_child_ ||
      stage_begin_ != rebuilt.stage_begin_)
    fail("repaired tree has rebuild's shape",
         std::to_string(vertices_.size()) + " vs " +
             std::to_string(rebuilt.vertices_.size()) + " vertices");
  for (std::size_t v = 0; v < vertices_.size(); ++v) {
    const ScenarioVertex& a = vertices_[v];
    const ScenarioVertex& b = rebuilt.vertices_[v];
    if (a.parent != b.parent || a.stage != b.stage ||
        a.out_of_bid != b.out_of_bid ||
        std::fabs(a.price - b.price) > 1e-12 ||
        std::fabs(a.branch_prob - b.branch_prob) > 1e-12 ||
        std::fabs(a.path_prob - b.path_prob) > 1e-12)
      fail("repaired vertex matches rebuilt vertex",
           "vertex " + std::to_string(v));
  }
#endif
  return true;
}

ScenarioTree::IdRange ScenarioTree::children(std::size_t v) const {
  RRP_EXPECTS(v < vertices_.size());
  return IdRange(first_child_[v], first_child_[v + 1]);
}

ScenarioTree::IdRange ScenarioTree::stage_vertices(std::size_t stage) const {
  RRP_EXPECTS(stage + 1 < stage_begin_.size());
  return IdRange(stage_begin_[stage], stage_begin_[stage + 1]);
}

std::vector<std::size_t> ScenarioTree::path_from_root(std::size_t v) const {
  RRP_EXPECTS(v < vertices_.size());
  std::vector<std::size_t> path;
  while (v != 0) {
    path.push_back(v);
    v = vertices_[v].parent;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

double ScenarioTree::stage_probability_mass(std::size_t stage) const {
  double mass = 0.0;
  for (std::size_t v : stage_vertices(stage)) mass += vertices_[v].path_prob;
  return mass;
}

void ScenarioTree::validate() const {
  auto fail = [](const char* cond, const std::string& detail) {
    ::rrp::detail::invariant_fail("invariant", cond, __FILE__, __LINE__,
                                  detail);
  };
  // Sorted offsets make the child ranges tile the ids 1..V-1, so each
  // non-root vertex is listed under exactly one vertex: its parent, once
  // every listed child points back (checked below).
  const std::size_t V = vertices_.size();
  if (V == 0 || first_child_.size() != V + 1 || first_child_.front() != 1 ||
      first_child_.back() != V || !std::ranges::is_sorted(first_child_) ||
      stage_begin_.size() < 3 || stage_begin_[0] != 0 ||
      stage_begin_[1] != 1 || stage_begin_.back() != V ||
      !std::ranges::is_sorted(stage_begin_))
    fail("offset arrays are consistent", "vertex count " + std::to_string(V));
  for (std::size_t stage = 0; stage <= num_stages(); ++stage)
    for (std::size_t v : stage_vertices(stage))
      if (vertices_[v].stage != stage)
        fail("stage ranges hold their stage's vertices",
             "vertex " + std::to_string(v));

  for (std::size_t v = 1; v < V; ++v) {
    const ScenarioVertex& vert = vertices_[v];
    if (vert.parent >= v)
      fail("vertex parent is a valid earlier vertex",
           "vertex " + std::to_string(v));
    const ScenarioVertex& par = vertices_[vert.parent];
    if (vert.stage != par.stage + 1)
      fail("child stage == parent stage + 1",
           "vertex " + std::to_string(v) + " at stage " +
               std::to_string(vert.stage) + " under stage " +
               std::to_string(par.stage));
    if (!(vert.branch_prob > 0.0) || vert.branch_prob > 1.0 + 1e-9)
      fail("branch probability in (0, 1]", "vertex " + std::to_string(v));
    if (std::fabs(vert.path_prob - par.path_prob * vert.branch_prob) >
        1e-12 + 1e-9 * par.path_prob)
      fail("path_prob == parent.path_prob * branch_prob",
           "vertex " + std::to_string(v));
  }
  // Branch probabilities of every expanded vertex sum to 1.
  for (std::size_t v = 0; v < V; ++v) {
    if (children(v).empty()) continue;
    double total = 0.0;
    for (std::size_t c : children(v)) {
      if (vertices_[c].parent != v)
        fail("children point back to their parent",
             "vertex " + std::to_string(c));
      total += vertices_[c].branch_prob;
    }
    if (std::fabs(total - 1.0) > 1e-6)
      fail("branch probabilities sum to 1",
           "vertex " + std::to_string(v) + " sums to " +
               std::to_string(total));
  }
  // Every fully-expanded stage carries unit probability mass.
  for (std::size_t stage = 0; stage <= num_stages(); ++stage) {
    const double mass = stage_probability_mass(stage);
    if (std::fabs(mass - 1.0) > 1e-6)
      fail("stage probability mass is 1", "stage " + std::to_string(stage) +
                                              " has mass " +
                                              std::to_string(mass));
  }
}

}  // namespace rrp::core
