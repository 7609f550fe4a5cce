// Ablation — MILP formulation strength (DESIGN.md decisions 1 & 2).
//
// Compares, on identical DRRP instances, (a) the paper's aggregated
// formulation with a loose big-B, (b) the same with the lot-sizing
// tightened per-slot bound, (c) the facility-location reformulation,
// and (d) the Wagner-Whitin dynamic program.  All four are exact; the
// point is the orders-of-magnitude difference in search effort.
#include <iostream>

#include "bench_util.hpp"
#include "common/deadline.hpp"
#include "common/table.hpp"
#include "core/demand.hpp"
#include "core/wagner_whitin.hpp"

namespace {

using namespace rrp;

double now() { return common::real_clock().now_seconds(); }

struct Outcome {
  double cost = 0.0;
  double seconds = 0.0;
  std::size_t nodes = 0;
};

Outcome run(const core::DrrpInstance& inst, core::DrrpFormulation form) {
  const double t0 = now();
  const auto plan = core::solve_drrp(inst, {}, form);
  return {plan.cost.total(), now() - t0, plan.work.nodes_explored};
}

}  // namespace

int main() {
  Rng rng(2222);
  // A modest horizon keeps the weakest variant finishable.
  const std::size_t kHorizon = 14;
  core::DrrpInstance inst;
  inst.demand = core::generate_demand(kHorizon, core::DemandConfig{}, rng);
  inst.compute_price.assign(kHorizon, 0.4);

  Table table("Ablation: DRRP formulation strength (T=" +
              std::to_string(kHorizon) + ")");
  table.set_header({"variant", "optimal cost", "B&B nodes", "time"});

  core::DrrpInstance loose = inst;
  loose.tighten_forcing_bound = false;
  const Outcome agg_loose = run(loose, core::DrrpFormulation::Aggregated);
  table.add_row({"aggregated, loose big-B", Table::num(agg_loose.cost, 4),
                 std::to_string(agg_loose.nodes),
                 Table::num(agg_loose.seconds * 1e3, 1) + " ms"});

  const Outcome agg_tight = run(inst, core::DrrpFormulation::Aggregated);
  table.add_row({"aggregated, tight big-B", Table::num(agg_tight.cost, 4),
                 std::to_string(agg_tight.nodes),
                 Table::num(agg_tight.seconds * 1e3, 1) + " ms"});

  const Outcome fl = run(inst, core::DrrpFormulation::FacilityLocation);
  table.add_row({"facility location", Table::num(fl.cost, 4),
                 std::to_string(fl.nodes),
                 Table::num(fl.seconds * 1e3, 1) + " ms"});

  const double t0 = now();
  const auto ww = core::solve_drrp_wagner_whitin(inst);
  const double ww_seconds = now() - t0;
  table.add_row({"Wagner-Whitin DP", Table::num(ww.cost.total(), 4), "-",
                 Table::num(ww_seconds * 1e3, 3) + " ms"});
  table.print(std::cout);

  const bool all_equal =
      std::abs(agg_loose.cost - fl.cost) < 1e-5 &&
      std::abs(agg_tight.cost - fl.cost) < 1e-5 &&
      std::abs(ww.cost.total() - fl.cost) < 1e-5;
  std::cout << "all variants optimal-equal: "
            << (all_equal ? "yes" : "NO (bug!)") << "\n"
            << "takeaway: the paper's formulation is exact but needs a "
               "strong solver; the FL reformulation/DP close the gap at "
               "the root\n";
  return 0;
}
