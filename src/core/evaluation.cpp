#include "core/evaluation.hpp"

#include <cmath>
#include <functional>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "market/trace_generator.hpp"

namespace rrp::core {

const PolicyStats& EvaluationResult::by_name(const std::string& name) const {
  for (const PolicyStats& p : policies) {
    if (p.policy == name) return p;
  }
  throw InvalidArgument("no such policy in the evaluation: " + name);
}

SimulationInputs make_trial_inputs(const EvaluationConfig& cfg,
                                   std::size_t trial) {
  RRP_EXPECTS(cfg.eval_hours >= 1);
  RRP_EXPECTS(cfg.history_hours >= 48);
  const auto trace = market::generate_trace(cfg.vm, cfg.seed);
  const auto hourly = trace.hourly();
  const std::size_t start = cfg.window_shift_hours * trial;
  RRP_EXPECTS(start + cfg.history_hours + cfg.eval_hours <= hourly.size());

  SimulationInputs in;
  in.vm = cfg.vm;
  in.history.assign(
      hourly.begin() + static_cast<long>(start),
      hourly.begin() + static_cast<long>(start + cfg.history_hours));
  in.actual_spot.assign(
      hourly.begin() + static_cast<long>(start + cfg.history_hours),
      hourly.begin() +
          static_cast<long>(start + cfg.history_hours + cfg.eval_hours));
  Rng rng(cfg.seed * 1315423911ULL + trial * 2654435761ULL);
  in.demand = generate_demand(cfg.eval_hours, cfg.demand, rng);
  in.initial_storage = cfg.initial_storage;

  // Revocation wiring: each trial gets its own hazard/storm draws, and
  // every policy within the trial shares them (paired comparisons).
  in.revocation = cfg.revocation;
  in.revocation.seed =
      cfg.revocation.seed ^ (cfg.seed + trial * 0x9e3779b97f4a7c15ULL);
  if (cfg.revocation.enabled) {
    const auto first = static_cast<long>(start + cfg.history_hours);
    const auto last =
        static_cast<long>(start + cfg.history_hours + cfg.eval_hours);
    in.intra_slot_max = trace.hourly_max(first, last);
    in.trace_revocations = trace.hourly_revocations(first, last);
  }
  return in;
}

EvaluationResult evaluate_policies(
    const EvaluationConfig& cfg, const std::vector<PolicyConfig>& policies) {
  RRP_EXPECTS(cfg.trials >= 2);
  RRP_EXPECTS(!policies.empty());
  for (const PolicyConfig& p : policies) p.validate();

  const std::size_t P = policies.size();
  std::vector<std::vector<double>> costs(P,
                                         std::vector<double>(cfg.trials));
  std::vector<std::vector<double>> overpays(
      P, std::vector<double>(cfg.trials));
  std::vector<std::vector<double>> oob(P, std::vector<double>(cfg.trials));
  std::vector<std::vector<double>> revoked(P,
                                           std::vector<double>(cfg.trials));
  std::vector<std::vector<double>> lost(P, std::vector<double>(cfg.trials));
  std::vector<std::vector<double>> interruption(
      P, std::vector<double>(cfg.trials));
  std::vector<double> ideals(cfg.trials);

  global_pool().parallel_for(cfg.trials, [&](std::size_t trial) {
    const SimulationInputs in = make_trial_inputs(cfg, trial);
    const double ideal = ideal_case_cost(in);
    ideals[trial] = ideal;
    for (std::size_t p = 0; p < P; ++p) {
      const SimulationResult r = simulate_policy(in, policies[p]);
      costs[p][trial] = r.total_cost();
      overpays[p][trial] = overpay_fraction(r.total_cost(), ideal);
      oob[p][trial] = static_cast<double>(r.out_of_bid_events());
      revoked[p][trial] = static_cast<double>(r.revoked_slots());
      lost[p][trial] = r.work_lost();
      interruption[p][trial] = r.interruption_cost();
    }
  });

  EvaluationResult result;
  result.mean_ideal_cost = stats::mean(ideals);
  const double z95 = 1.959963984540054;
  for (std::size_t p = 0; p < P; ++p) {
    PolicyStats s;
    s.policy = policies[p].name;
    s.per_trial_cost = costs[p];
    s.mean_cost = stats::mean(costs[p]);
    s.stddev_cost = stats::stddev(costs[p]);
    s.ci_half_width =
        z95 * s.stddev_cost / std::sqrt(static_cast<double>(cfg.trials));
    s.mean_overpay = stats::mean(overpays[p]);
    s.mean_out_of_bid = stats::mean(oob[p]);
    s.mean_revocations = stats::mean(revoked[p]);
    s.mean_work_lost = stats::mean(lost[p]);
    s.mean_interruption_cost = stats::mean(interruption[p]);
    result.policies.push_back(std::move(s));
  }
  return result;
}

std::vector<InterruptionRegime> standard_interruption_regimes() {
  return {
      {"calm", market::RevocationConfig::calm()},
      {"bid-cross", market::RevocationConfig::bid_crossing()},
      {"storm", market::RevocationConfig::storm()},
  };
}

std::vector<RegimeResult> evaluate_under_regimes(
    const EvaluationConfig& cfg, const std::vector<PolicyConfig>& policies,
    const std::vector<InterruptionRegime>& regimes) {
  RRP_EXPECTS(!regimes.empty());
  std::vector<RegimeResult> results;
  results.reserve(regimes.size());
  for (const InterruptionRegime& regime : regimes) {
    EvaluationConfig rcfg = cfg;
    rcfg.revocation = regime.config;
    // Keep the derived per-trial model seeds distinct per regime even
    // when a caller leaves every regime config's own seed at 0.
    rcfg.revocation.seed ^= std::hash<std::string>{}(regime.name);
    results.push_back(RegimeResult{regime.name,
                                   evaluate_policies(rcfg, policies)});
  }
  return results;
}

}  // namespace rrp::core
