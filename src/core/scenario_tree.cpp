#include "core/scenario_tree.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/invariant.hpp"
#include "obs/obs.hpp"

namespace rrp::core {

ScenarioTree ScenarioTree::build(
    std::span<const std::vector<PricePoint>> stage_supports) {
  RRP_TRACE_SPAN("tree.build");
  RRP_EXPECTS(!stage_supports.empty());
  for (const auto& support : stage_supports) {
    RRP_EXPECTS(!support.empty());
    double total = 0.0;
    for (const PricePoint& p : support) {
      RRP_EXPECTS(p.price > 0.0);
      RRP_EXPECTS(p.prob > 0.0);
      total += p.prob;
    }
    RRP_EXPECTS(std::fabs(total - 1.0) < 1e-6);
  }

  ScenarioTree tree;
  tree.num_stages_ = stage_supports.size();
  tree.vertices_.push_back(ScenarioVertex{});  // root
  tree.by_stage_.assign(tree.num_stages_ + 1, {});
  tree.by_stage_[0].push_back(0);

  std::vector<std::size_t> frontier = {0};
  for (std::size_t stage = 1; stage <= tree.num_stages_; ++stage) {
    const auto& support = stage_supports[stage - 1];
    std::vector<std::size_t> next;
    next.reserve(frontier.size() * support.size());
    for (std::size_t parent : frontier) {
      for (const PricePoint& p : support) {
        ScenarioVertex v;
        v.parent = parent;
        v.stage = stage;
        v.price = p.price;
        v.out_of_bid = p.out_of_bid;
        v.branch_prob = p.prob;
        v.path_prob = tree.vertices_[parent].path_prob * p.prob;
        tree.vertices_.push_back(v);
        next.push_back(tree.vertices_.size() - 1);
        tree.by_stage_[stage].push_back(tree.vertices_.size() - 1);
      }
    }
    frontier = std::move(next);
  }

  tree.children_.assign(tree.vertices_.size(), {});
  for (std::size_t v = 1; v < tree.vertices_.size(); ++v)
    tree.children_[tree.vertices_[v].parent].push_back(v);
#if RRP_INVARIANTS_ENABLED
  tree.validate();
#endif
  return tree;
}

ScenarioTree ScenarioTree::build_conditional(
    const std::vector<PricePoint>& initial, std::size_t stages,
    const ConditionalSupport& conditional) {
  RRP_EXPECTS(stages >= 1);
  auto check = [](const std::vector<PricePoint>& support) {
    RRP_EXPECTS(!support.empty());
    double total = 0.0;
    for (const PricePoint& p : support) {
      RRP_EXPECTS(p.price > 0.0);
      RRP_EXPECTS(p.prob > 0.0);
      total += p.prob;
    }
    RRP_EXPECTS(std::fabs(total - 1.0) < 1e-6);
  };
  check(initial);

  ScenarioTree tree;
  tree.num_stages_ = stages;
  tree.vertices_.push_back(ScenarioVertex{});  // root
  tree.by_stage_.assign(stages + 1, {});
  tree.by_stage_[0].push_back(0);

  std::vector<std::size_t> frontier = {0};
  for (std::size_t stage = 1; stage <= stages; ++stage) {
    std::vector<std::size_t> next;
    for (std::size_t parent : frontier) {
      const std::vector<PricePoint> support =
          stage == 1 ? initial
                     : conditional(tree.vertices_[parent], stage);
      if (stage > 1) check(support);
      for (const PricePoint& p : support) {
        ScenarioVertex v;
        v.parent = parent;
        v.stage = stage;
        v.price = p.price;
        v.out_of_bid = p.out_of_bid;
        v.branch_prob = p.prob;
        v.path_prob = tree.vertices_[parent].path_prob * p.prob;
        tree.vertices_.push_back(v);
        next.push_back(tree.vertices_.size() - 1);
        tree.by_stage_[stage].push_back(tree.vertices_.size() - 1);
      }
    }
    frontier = std::move(next);
  }

  tree.children_.assign(tree.vertices_.size(), {});
  for (std::size_t v = 1; v < tree.vertices_.size(); ++v)
    tree.children_[tree.vertices_[v].parent].push_back(v);
#if RRP_INVARIANTS_ENABLED
  tree.validate();
#endif
  return tree;
}

bool ScenarioTree::repair(
    std::span<const std::vector<PricePoint>> stage_supports) {
  RRP_EXPECTS(!stage_supports.empty());
  for (const auto& support : stage_supports) {
    RRP_EXPECTS(!support.empty());
    double total = 0.0;
    for (const PricePoint& p : support) {
      RRP_EXPECTS(p.price > 0.0);
      RRP_EXPECTS(p.prob > 0.0);
      total += p.prob;
    }
    RRP_EXPECTS(std::fabs(total - 1.0) < 1e-6);
  }

  const std::size_t new_stages = stage_supports.size();
  const std::size_t keep = std::min(num_stages_, new_stages);

  // Shape checks first, so a refusal leaves the tree untouched.  Every
  // overlapping stage must branch with the new support's width
  // (conditional trees with per-parent supports fail here)...
  for (std::size_t stage = 1; stage <= keep; ++stage) {
    const std::size_t width = stage_supports[stage - 1].size();
    for (std::size_t parent : by_stage_[stage - 1])
      if (children_[parent].size() != width) return false;
  }
  // ...and retiring stages slices the vertex array, which needs the
  // stage-contiguous id layout build() produces.
  std::size_t retained = 0;
  for (std::size_t stage = 0; stage <= keep; ++stage) {
    for (std::size_t v : by_stage_[stage])
      if (v != retained++) return false;
  }

  RRP_TRACE_SPAN("tree.repair");
  RRP_TRACE_ARG("stages", new_stages);
  RRP_COUNTER_ADD("rrp.tree.repairs", 1);

  if (new_stages < num_stages_) {
    vertices_.resize(retained);
    by_stage_.resize(new_stages + 1);
  }

  // Rewrite the surviving stages in build order: a parent's path
  // probability is final before any child is touched, so every product
  // below is the exact multiplication build() would perform.
  for (std::size_t stage = 1; stage <= keep; ++stage) {
    const auto& support = stage_supports[stage - 1];
    for (std::size_t parent : by_stage_[stage - 1]) {
      for (std::size_t j = 0; j < support.size(); ++j) {
        const PricePoint& p = support[j];
        ScenarioVertex& v = vertices_[children_[parent][j]];
        v.price = p.price;
        v.out_of_bid = p.out_of_bid;
        v.branch_prob = p.prob;
        v.path_prob = vertices_[parent].path_prob * p.prob;
      }
    }
  }

  // Extend with the frontier loop build() uses for brand-new stages.
  if (new_stages > num_stages_) {
    by_stage_.resize(new_stages + 1);
    std::vector<std::size_t> frontier = by_stage_[num_stages_];
    for (std::size_t stage = num_stages_ + 1; stage <= new_stages;
         ++stage) {
      const auto& support = stage_supports[stage - 1];
      std::vector<std::size_t> next;
      next.reserve(frontier.size() * support.size());
      for (std::size_t parent : frontier) {
        for (const PricePoint& p : support) {
          ScenarioVertex v;
          v.parent = parent;
          v.stage = stage;
          v.price = p.price;
          v.out_of_bid = p.out_of_bid;
          v.branch_prob = p.prob;
          v.path_prob = vertices_[parent].path_prob * p.prob;
          vertices_.push_back(v);
          next.push_back(vertices_.size() - 1);
          by_stage_[stage].push_back(vertices_.size() - 1);
        }
      }
      frontier = std::move(next);
    }
  }

  num_stages_ = new_stages;
  children_.assign(vertices_.size(), {});
  for (std::size_t v = 1; v < vertices_.size(); ++v)
    children_[vertices_[v].parent].push_back(v);

#if RRP_INVARIANTS_ENABLED
  validate();
  // The repair-vs-rebuild contract, checked literally: the repaired
  // tree must be the tree a fresh build would produce.
  const ScenarioTree rebuilt = build(stage_supports);
  auto fail = [](const char* cond, const std::string& detail) {
    ::rrp::detail::invariant_fail("invariant", cond, __FILE__, __LINE__,
                                  detail);
  };
  if (vertices_.size() != rebuilt.vertices_.size())
    fail("repaired tree has rebuild's vertex count",
         std::to_string(vertices_.size()) + " vs " +
             std::to_string(rebuilt.vertices_.size()));
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

std::span<const std::size_t> ScenarioTree::children(std::size_t v) const {
  RRP_EXPECTS(v < vertices_.size());
  return children_[v];
}

const std::vector<std::size_t>& ScenarioTree::stage_vertices(
    std::size_t stage) const {
  RRP_EXPECTS(stage < by_stage_.size());
  return by_stage_[stage];
}

const std::vector<std::size_t>& ScenarioTree::leaves() const {
  return by_stage_[num_stages_];
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
  if (vertices_.empty() || children_.size() != vertices_.size())
    fail("tree arrays are consistent", "vertex/children size mismatch");

  for (std::size_t v = 1; v < vertices_.size(); ++v) {
    const ScenarioVertex& vert = vertices_[v];
    if (vert.parent >= vertices_.size() || vert.parent == v)
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
    const auto& sibs = children_[vert.parent];
    if (std::find(sibs.begin(), sibs.end(), v) == sibs.end())
      fail("child is listed under its parent", "vertex " + std::to_string(v));
  }
  // Branch probabilities of every expanded vertex sum to 1.
  for (std::size_t v = 0; v < vertices_.size(); ++v) {
    if (children_[v].empty()) continue;
    double total = 0.0;
    for (std::size_t c : children_[v]) {
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
  for (std::size_t stage = 0; stage <= num_stages_; ++stage) {
    const double mass = stage_probability_mass(stage);
    if (std::fabs(mass - 1.0) > 1e-6)
      fail("stage probability mass is 1", "stage " + std::to_string(stage) +
                                              " has mass " +
                                              std::to_string(mass));
  }
}

}  // namespace rrp::core
