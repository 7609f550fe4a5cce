#include "layers.hpp"

#include <cstring>

#include "obs/registry.hpp"

namespace perfbench {

void SelfTime::add(const std::vector<rrp::obs::SpanRecord>& spans,
                   const char* root) {
  // children[tid][d] = summed duration of closed depth-d spans whose
  // parent has not closed yet.  A span closes after all its children,
  // so when a depth-d span closes, children[tid][d + 1] holds exactly
  // its children.
  std::map<std::uint32_t, std::vector<double>> children;
  for (const rrp::obs::SpanRecord& s : spans) {
    std::vector<double>& open = children[s.tid];
    if (open.size() < s.depth + 2) open.resize(s.depth + 2, 0.0);
    const double self = s.dur_seconds - open[s.depth + 1];
    open[s.depth + 1] = 0.0;
    open[s.depth] += s.dur_seconds;
    self_[s.name] += self;
    if (std::strcmp(s.name, root) == 0) {
      root_seconds_ += s.dur_seconds;
      root_self_seconds_ += self;
    }
  }
}

double SelfTime::self_seconds(const std::string& name) const {
  const auto it = self_.find(name);
  return it == self_.end() ? 0.0 : it->second;
}

Counters read_counters() {
  static const char* const names[] = {
      "rrp.lp.pivots.primal",     "rrp.lp.pivots.dual",
      "rrp.lp.refactorizations",  "rrp.lp.eta_updates",
      "rrp.bnb.nodes",            "rrp.bnb.cuts_added",
      "rrp.bnb.lp_recoveries",    "rrp.bnb.warm_nodes",
      "rrp.bnb.cold_nodes",       "rrp.rh.replans",
      "rrp.rh.fallback_reused_tail", "rrp.rh.fallback_heuristic",
      "rrp.rh.fallback_on_demand", "rrp.tree.repairs",
      "rrp.ts.sarima_fit_evaluations", "rrp.ts.refits_kept",
      "rrp.ts.warm_refits",       "rrp.ts.scratch_refits"};
  Counters values;
  for (const char* name : names)
    values[name] = rrp::obs::global_registry().counter(name).value();
  return values;
}

Counters work_between(const Counters& before, const Counters& after) {
  Counters work;
  for (const auto& [name, value] : after) work[name] = value - before.at(name);
  return work;
}

}  // namespace perfbench
