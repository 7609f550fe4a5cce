#include "core/wagner_whitin.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace rrp::core {

RentalPlan solve_drrp_wagner_whitin(const DrrpInstance& inst,
                                    const common::Deadline& deadline) {
  RRP_TRACE_SPAN("dp.wagner_whitin");
  inst.validate();
  if (inst.bottleneck_rate > 0.0 && !inst.bottleneck_capacity.empty()) {
    throw InvalidArgument(
        "Wagner-Whitin requires an uncapacitated instance; use the MILP "
        "for bottleneck-constrained planning");
  }
  const std::size_t T = inst.horizon();

  // Net the initial storage against the earliest demand (optimal since
  // holding costs are non-negative: epsilon serves demand as early as
  // possible or is held — both accounted below).
  std::vector<double> net = inst.demand;
  double eps = inst.initial_storage;
  for (std::size_t t = 0; t < T && eps > 0.0; ++t) {
    const double used = std::min(eps, net[t]);
    net[t] -= used;
    eps -= used;
  }

  // Prefix sums of the per-slot holding price: H(t, s) = sum_{u=t}^{s-1}
  // holding(u) is the cost of carrying one unit from slot t to slot s.
  std::vector<double> hold_prefix(T + 1, 0.0);
  for (std::size_t u = 0; u < T; ++u)
    hold_prefix[u + 1] = hold_prefix[u] + inst.costs.holding(u);

  // f[t] = cheapest way to serve net demand of slots t..T-1 starting
  // with zero inventory; choice[t] = k > t when renting at t to cover
  // slots [t, k), or t when slot t is skipped (possible only if
  // net[t] == 0).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> f(T + 1, kInf);
  std::vector<std::size_t> choice(T, 0);
  f[T] = 0.0;
  for (std::size_t t = T; t-- > 0;) {
    // One poll per stage: O(T) clock reads against O(T^2) DP work.
    if (deadline.expired()) {
      throw TimeLimitExceeded(
          "solve_drrp_wagner_whitin: deadline expired at stage " +
          std::to_string(t) + " of " + std::to_string(T));
    }
    if (net[t] == 0.0) {
      f[t] = f[t + 1];
      choice[t] = t;  // skip
    }
    const double gen_unit =
        inst.costs.transfer_in(t) * inst.costs.input_output_ratio();
    double block = 0.0;  // generation + carrying cost of the block
    for (std::size_t k = t + 1; k <= T; ++k) {
      block += net[k - 1] *
               (gen_unit + hold_prefix[k - 1] - hold_prefix[t]);
      const double candidate = inst.compute_price[t] + block + f[k];
      if (candidate < f[t]) {
        f[t] = candidate;
        choice[t] = k;
      }
    }
  }

  RentalPlan plan;
  plan.status = milp::MipStatus::Optimal;
  plan.alpha.assign(T, 0.0);
  plan.beta.assign(T, 0.0);
  plan.chi.assign(T, 0);
  std::size_t t = 0;
  while (t < T) {
    if (choice[t] == t) {
      ++t;
      continue;
    }
    const std::size_t k = choice[t];
    double block_demand = 0.0;
    for (std::size_t s = t; s < k; ++s) block_demand += net[s];
    plan.alpha[t] = block_demand;
    plan.chi[t] = 1;
    t = k;
  }
  // Reconstruct beta from the balance equation with the original
  // demand and epsilon, and account the exact cost decomposition.
  plan.cost = evaluate_schedule(inst, plan.alpha, plan.chi);
  double store = inst.initial_storage;
  for (std::size_t s = 0; s < T; ++s) {
    store += plan.alpha[s] - inst.demand[s];
    store = std::max(store, 0.0);
    plan.beta[s] = store;
  }
  return plan;
}

}  // namespace rrp::core
