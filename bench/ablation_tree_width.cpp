// Ablation — scenario-tree branching width (DESIGN.md decision 3).
//
// Two questions per width configuration:
//  (a) model value: how much does a richer tree improve the *expected*
//      plan cost of a single SRRP instance (solved exactly by the tree
//      DP)?
//  (b) tractability: how large does the deterministic-equivalent MILP
//      get, and how long does branch & bound need — the reason the
//      paper keeps SRRP horizons short and we keep trees lean?
// Plus the end-to-end check: realised rolling-horizon cost, averaged
// over several demand streams.
#include <iostream>

#include "bench_util.hpp"
#include "common/deadline.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/srrp_dp.hpp"

namespace {

using namespace rrp;

double now() { return common::real_clock().now_seconds(); }

}  // namespace

int main() {
  const market::VmClass vm = market::VmClass::M1Xlarge;
  const auto base_inputs = bench::make_inputs(vm, 48);
  const double lambda = market::info(vm).on_demand_hourly;
  const auto dist = core::EmpiricalPriceDistribution::from_history(
      base_inputs.history, 12);
  // Bid low enough that the out-of-bid state carries real probability:
  // hedging quality is what tree width buys.
  const double bid = rrp::stats::quantile(base_inputs.history, 0.5);

  struct WidthConfig {
    const char* label;
    std::vector<std::size_t> widths;
  };
  const WidthConfig configs[] = {
      {"{2,1,1,1,1,1}", {2, 1, 1, 1, 1, 1}},
      {"{2,2,1,1,1,1}", {2, 2, 1, 1, 1, 1}},
      {"{3,2,2,1,1,1}", {3, 2, 2, 1, 1, 1}},
      {"{4,3,2,1,1,1}", {4, 3, 2, 1, 1, 1}},
      {"{4,3,2,2,1,1}", {4, 3, 2, 2, 1, 1}},
      {"{5,4,3,2,1,1}", {5, 4, 3, 2, 1, 1}},
  };

  Table model_table("Ablation (a): expected plan cost & MILP effort per "
                    "width (m1.xlarge, bid at the median price)");
  model_table.set_header({"stage widths", "vertices", "E[plan cost] (DP)",
                          "DP time", "MILP rows", "MILP nodes",
                          "MILP time"});
  rrp::Rng demand_rng(777);
  const auto demand = core::generate_demand(6, core::DemandConfig{},
                                            demand_rng);
  for (const auto& cfg : configs) {
    std::vector<double> bids(6, bid);
    core::SrrpInstance inst;
    inst.vm = vm;
    inst.demand = demand;
    inst.tree = core::ScenarioTree::build(
        core::make_stage_supports(dist, bids, lambda, cfg.widths));

    const double t0 = now();
    const auto dp = core::solve_srrp_tree_dp(inst);
    const double dp_seconds = now() - t0;

    core::SrrpFlVariables vars;
    const auto model = core::build_srrp_facility_location(inst, &vars);
    // MILP effort grows steeply with tree width; cap the node budget
    // and skip the largest trees entirely (the DP column is exact
    // either way).
    std::string milp_nodes = "-", milp_time = "skipped";
    if (inst.tree.num_vertices() <= 60) {
      milp::BnbOptions opt;
      opt.relative_gap = 1e-4;
      opt.max_nodes = 200;
      const double t2 = now();
      const auto milp_result = core::solve_srrp(
          inst, opt, core::SrrpFormulation::FacilityLocation);
      const double milp_seconds = now() - t2;
      milp_nodes = std::to_string(milp_result.work.nodes_explored) +
                   (milp_result.status == milp::MipStatus::Optimal
                        ? ""
                        : "+ (node limit)");
      milp_time = Table::num(milp_seconds, 2) + " s";
    }
    model_table.add_row(
        {cfg.label, std::to_string(inst.tree.num_vertices()),
         Table::num(dp.expected_cost, 4),
         Table::num(dp_seconds * 1e6, 1) + " us",
         std::to_string(model.num_constraints()), milp_nodes, milp_time});
  }
  model_table.print(std::cout);

  Table sim_table("Ablation (b): realised 48h rolling cost (mean of 4 "
                  "demand streams)");
  sim_table.set_header({"stage widths", "realised cost", "out-of-bid"});
  for (const auto& cfg : configs) {
    double cost = 0.0;
    double oob = 0.0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      auto inputs = bench::make_inputs(vm, 48, 60, seed);
      core::PolicyConfig policy = core::sto_exp_mean_policy();
      policy.name = "sto-width";
      policy.stage_widths = cfg.widths;
      const auto result = core::simulate_policy(inputs, policy);
      cost += result.total_cost() / 4.0;
      oob += static_cast<double>(result.out_of_bid_events()) / 4.0;
    }
    sim_table.add_row({cfg.label, Table::num(cost, 3),
                       Table::num(oob, 1)});
  }
  sim_table.print(std::cout);

  std::cout << "takeaway: expected plan cost stabilises after a bushy "
               "first stage or two, while the MILP deterministic "
               "equivalent grows sharply with width — the DP makes the "
               "width knob nearly free\n";
  return 0;
}
