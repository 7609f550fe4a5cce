// Stochastic vs deterministic planning under spot-price uncertainty
// (paper Section V-C).
//
// Simulates two days of hourly rentals for one VM class under every
// Figure 12(a) policy, against a synthetic spot market, and reports
// realised cost and overpay relative to the perfect-foresight oracle.
//
//   ./examples/stochastic_planning [vm-class] [seed]
//   e.g. ./examples/stochastic_planning m1.large 7
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/demand.hpp"
#include "core/rolling_horizon.hpp"
#include "market/trace_generator.hpp"

int main(int argc, char** argv) {
  using namespace rrp;

  const market::VmClass vm =
      argc > 1 ? market::from_name(argv[1]) : market::VmClass::M1Large;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

  // Market history feeds the price distribution and the SARIMA bids;
  // the following 48 hours are the evaluation window.
  const auto trace = market::generate_trace(vm, seed);
  const auto hourly = trace.hourly();
  const std::size_t history_hours = 24 * 60;
  const std::size_t eval_hours = 48;

  core::SimulationInputs inputs;
  inputs.vm = vm;
  inputs.history.assign(hourly.begin(),
                        hourly.begin() + static_cast<long>(history_hours));
  inputs.actual_spot.assign(
      hourly.begin() + static_cast<long>(history_hours),
      hourly.begin() + static_cast<long>(history_hours + eval_hours));
  Rng rng(seed * 31 + 1);
  inputs.demand = core::generate_demand(eval_hours, core::DemandConfig{},
                                        rng);

  std::cout << "class " << market::info(vm).name << ", " << eval_hours
            << "h evaluation window, spot range ["
            << Table::num(*std::min_element(inputs.actual_spot.begin(),
                                            inputs.actual_spot.end()),
                          3)
            << ", "
            << Table::num(*std::max_element(inputs.actual_spot.begin(),
                                            inputs.actual_spot.end()),
                          3)
            << "]\n\n";

  const double ideal = core::ideal_case_cost(inputs);

  Table table("Policy comparison (vs ideal-case cost " +
              Table::num(ideal, 3) + ")");
  table.set_header({"policy", "total", "compute", "holding", "out-of-bid",
                    "overpay"});
  auto report = [&](const core::PolicyConfig& policy) {
    const auto result = core::simulate_policy(inputs, policy);
    table.add_row(
        {policy.name, Table::num(result.total_cost(), 3),
         Table::num(result.cost.compute, 3),
         Table::num(result.cost.holding, 3),
         std::to_string(result.out_of_bid_events()),
         Table::pct(core::overpay_fraction(result.total_cost(), ideal))});
  };
  for (const auto& policy : core::figure12a_policies()) report(policy);
  table.print(std::cout);

  std::cout << "Expected ordering: on-demand overpays most; each sto-* "
               "policy beats its det-* counterpart.\n";
  return 0;
}
