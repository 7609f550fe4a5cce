// rrp — command-line front end to the resource rental planning library.
//
//   rrp trace       generate a synthetic spot-price trace (CSV)
//   rrp analyze     run the predictability study on a trace
//   rrp plan        plan a DRRP schedule for one class
//   rrp simulate    run a rental policy against the spot market
//   rrp availability  profile a fixed bid against a trace
//
// Run `rrp <command> --help` for per-command flags.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/demand.hpp"
#include "core/evaluation.hpp"
#include "core/rolling_horizon.hpp"
#include "core/wagner_whitin.hpp"
#include "market/auction.hpp"
#include "market/trace_generator.hpp"
#include "obs/obs.hpp"
#include "timeseries/acf.hpp"
#include "timeseries/auto_arima.hpp"
#include "timeseries/diagnostics.hpp"

namespace {

using namespace rrp;

/// Tiny flag parser: --key value pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        std::cerr << "unexpected argument: " << key << "\n";
        std::exit(2);
      }
      key = key.substr(2);
      if (key == "help") {
        help_ = true;
        continue;
      }
      if (i + 1 >= argc) {
        std::cerr << "missing value for --" << key << "\n";
        std::exit(2);
      }
      values_[key] = argv[++i];
    }
  }

  bool help() const { return help_; }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoull(it->second);
  }
  bool has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
  bool help_ = false;
};

/// Arms the observability layer from the global flags (valid on every
/// subcommand) and flushes the outputs when the command finishes:
///   --metrics-out FILE  write a registry snapshot, one `name value`
///                       per line
///   --trace-out FILE    record trace spans, write Chrome trace JSON
///                       (load in Perfetto / chrome://tracing)
///   --events-out FILE   stream structured events as JSONL
class ObsSession {
 public:
  explicit ObsSession(const Args& args)
      : metrics_out_(args.get("metrics-out", "")),
        trace_out_(args.get("trace-out", "")) {
    if (!trace_out_.empty()) obs::TraceRecorder::instance().enable();
    const std::string events_out = args.get("events-out", "");
    if (!events_out.empty()) {
      auto sink = std::make_shared<obs::JsonlFileSink>(events_out);
      if (!sink->ok())
        std::cerr << "rrp: cannot open " << events_out
                  << " for --events-out; events disabled\n";
      else
        obs::EventLog::instance().set_sink(std::move(sink));
    }
  }

  ~ObsSession() {
    if (!trace_out_.empty()) {
      obs::TraceRecorder::instance().disable();
      std::ofstream out(trace_out_);
      if (!out)
        std::cerr << "rrp: cannot open " << trace_out_ << " for --trace-out\n";
      else
        obs::TraceRecorder::instance().write_chrome_trace(out);
    }
    if (!metrics_out_.empty()) {
      std::ofstream out(metrics_out_);
      if (!out)
        std::cerr << "rrp: cannot open " << metrics_out_
                  << " for --metrics-out\n";
      else
        out << obs::global_registry().scrape().to_text();
    }
    obs::EventLog::instance().set_sink(nullptr);
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  std::string metrics_out_;
  std::string trace_out_;
};

market::SpotTrace load_or_generate(const Args& args, market::VmClass vm) {
  if (args.has("trace"))
    return market::SpotTrace::load_csv(args.get("trace", ""), vm);
  return market::generate_trace(vm, args.get_u64("seed", 2012));
}

int cmd_trace(const Args& args) {
  if (args.help()) {
    std::cout << "rrp trace --out FILE [--class c1.medium] [--seed N] "
                 "[--days N]\n";
    return 0;
  }
  const market::VmClass vm = market::from_name(args.get("class",
                                                        "c1.medium"));
  market::TraceGeneratorConfig cfg = market::default_config(vm);
  cfg.days = args.get_double("days", cfg.days);
  Rng rng(args.get_u64("seed", 2012));
  const auto trace = market::generate_trace(vm, cfg, rng);
  const std::string out = args.get("out", "");
  if (out.empty()) {
    std::cerr << "rrp trace: --out is required\n";
    return 2;
  }
  trace.save_csv(out);
  std::cout << "wrote " << trace.ticks().size() << " updates ("
            << Table::num(trace.duration_hours() / 24.0, 1) << " days) to "
            << out << "\n";
  return 0;
}

int cmd_analyze(const Args& args) {
  if (args.help()) {
    std::cout << "rrp analyze [--trace FILE] [--class c1.medium] "
                 "[--seed N]\n";
    return 0;
  }
  const market::VmClass vm = market::from_name(args.get("class",
                                                        "c1.medium"));
  const auto trace = load_or_generate(args, vm);
  const auto prices = trace.prices();
  const auto box = stats::box_summary(prices);

  Table summary("Trace summary (" + std::string(market::info(vm).name) +
                ")");
  summary.set_header({"metric", "value"});
  summary.add_row({"updates", std::to_string(prices.size())});
  summary.add_row({"days",
                   Table::num(trace.duration_hours() / 24.0, 1)});
  summary.add_row({"mean price", Table::num(stats::mean(prices), 4)});
  summary.add_row({"median", Table::num(box.median, 4)});
  summary.add_row({"outliers", Table::pct(box.outlier_fraction, 2)});
  summary.add_row(
      {"vs on-demand",
       Table::pct(stats::mean(prices) / market::info(vm).on_demand_hourly)});
  summary.print(std::cout);

  const auto hourly = trace.hourly();
  const std::size_t window = std::min<std::size_t>(hourly.size(), 24 * 61);
  std::vector<double> recent(hourly.end() - static_cast<long>(window),
                             hourly.end());
  const auto sw = ts::shapiro_wilk(
      std::span(recent).subspan(0, std::min<std::size_t>(recent.size(),
                                                         5000)));
  const auto kpss = ts::kpss_level(recent);
  const auto r = ts::acf(recent, 3);
  Table tests("Predictability");
  tests.set_header({"check", "value", "reading"});
  tests.add_row({"Shapiro-Wilk p", Table::num(sw.p_value, 5),
                 sw.p_value < 0.05 ? "not normal" : "normal-ish"});
  tests.add_row({"KPSS statistic", Table::num(kpss.statistic, 3),
                 ts::is_level_stationary(recent) ? "stationary"
                                                 : "non-stationary"});
  tests.add_row({"lag-1 ACF", Table::num(r[1], 3),
                 std::abs(r[1]) > 0.9 ? "highly persistent"
                                      : "weakly autocorrelated"});
  tests.print(std::cout);
  return 0;
}

int cmd_plan(const Args& args) {
  if (args.help()) {
    std::cout << "rrp plan [--class m1.large] [--hours 24] [--price P] "
                 "[--demand-mean 0.4] [--demand-sd 0.2] [--storage E] "
                 "[--solver dp|milp] [--jobs N] [--seed N]\n"
                 "  --solver milp solves the exact DRRP MILP by branch & "
                 "bound (--jobs worker\n  threads, 0 = all cores); the "
                 "default dp backend is the Wagner-Whitin recursion.\n";
    return 0;
  }
  const market::VmClass vm = market::from_name(args.get("class",
                                                        "m1.large"));
  const auto hours = static_cast<std::size_t>(args.get_u64("hours", 24));
  core::DrrpInstance inst;
  inst.vm = vm;
  core::DemandConfig demand;
  demand.mean = args.get_double("demand-mean", 0.4);
  demand.sd = args.get_double("demand-sd", 0.2);
  Rng rng(args.get_u64("seed", 42));
  inst.demand = core::generate_demand(hours, demand, rng);
  inst.compute_price.assign(
      hours,
      args.get_double("price", market::info(vm).on_demand_hourly));
  inst.initial_storage = args.get_double("storage", 0.0);

  const std::string solver_name = args.get("solver", "dp");
  core::RentalPlan plan;
  if (solver_name == "milp") {
    milp::BnbOptions solver;
    solver.jobs = static_cast<std::size_t>(args.get_u64("jobs", 0));
    plan = core::solve_drrp(inst, solver);
  } else if (solver_name == "dp") {
    plan = core::solve_drrp_wagner_whitin(inst);
  } else {
    std::cerr << "unknown solver: " << solver_name << " (want dp|milp)\n";
    return 2;
  }
  if (!plan.feasible()) {
    std::cerr << "rrp plan: solver returned " << milp::to_string(plan.status)
              << "\n";
    return 1;
  }
  const auto naive = core::no_plan_schedule(inst);

  Table table("Plan for " + std::string(market::info(vm).name) + ", " +
              std::to_string(hours) + "h");
  table.set_header({"hour", "demand", "rent", "generate", "inventory"});
  for (std::size_t t = 0; t < hours; ++t) {
    table.add_row({std::to_string(t), Table::num(inst.demand[t], 3),
                   plan.chi[t] ? "yes" : "-", Table::num(plan.alpha[t], 3),
                   Table::num(plan.beta[t], 3)});
  }
  table.print(std::cout);
  std::cout << "cost " << Table::num(plan.cost.total(), 3) << " vs no-plan "
            << Table::num(naive.cost.total(), 3) << " (saving "
            << Table::pct(1.0 - plan.cost.total() / naive.cost.total())
            << ")\n";
  if (solver_name == "milp") {
    const milp::SolveWork& work = plan.work;
    const std::size_t total_lps =
        work.warm_started_nodes + work.cold_solved_nodes;
    std::cout << "b&b nodes " << work.nodes_explored << ", warm-started LPs "
              << work.warm_started_nodes << "/" << total_lps;
    if (work.cuts_added > 0) {
      std::cout << ", root cuts " << work.cuts_added << " (gap closed "
                << Table::pct(plan.root_gap_closed) << ")";
    }
    std::cout << "\n";
  }
  return 0;
}

/// Applies the revocation flags on top of a named regime's defaults.
market::RevocationConfig revocation_from_args(const Args& args,
                                              const std::string& regime) {
  market::RevocationConfig cfg = market::RevocationConfig::regime(regime);
  cfg.checkpoint_overhead =
      args.get_double("checkpoint-cost", cfg.checkpoint_overhead);
  cfg.storm_rate = args.get_double("storm-rate", cfg.storm_rate);
  cfg.hazard_per_slot = args.get_double("hazard", cfg.hazard_per_slot);
  cfg.seed = args.get_u64("seed", 42);
  cfg.validate();
  return cfg;
}

/// `rrp simulate --revocations REGIME` without --policy: the paper's
/// policy comparison re-run under hostile market regimes, on realised
/// cost AND work lost.
int simulate_regime_table(const Args& args, market::VmClass vm,
                          std::size_t hours) {
  const std::string regime = args.get("revocations", "storm");
  core::EvaluationConfig cfg;
  cfg.vm = vm;
  cfg.eval_hours = hours;
  cfg.trials = static_cast<std::size_t>(args.get_u64("trials", 4));
  cfg.seed = args.get_u64("seed", 2012);

  std::vector<core::InterruptionRegime> regimes;
  if (regime == "all") {
    regimes = core::standard_interruption_regimes();
    for (core::InterruptionRegime& r : regimes) {
      core::InterruptionRegime overridden{r.name,
                                          revocation_from_args(args, r.name)};
      r = std::move(overridden);
    }
  } else {
    regimes.push_back(
        core::InterruptionRegime{regime, revocation_from_args(args, regime)});
  }

  const auto policies = core::interruption_policies();
  const auto results = core::evaluate_under_regimes(cfg, policies, regimes);
  for (const core::RegimeResult& rr : results) {
    Table table("Regime \"" + rr.regime + "\" on " +
                std::string(market::info(vm).name) + " (" +
                std::to_string(cfg.trials) + " trials, " +
                std::to_string(hours) + "h)");
    table.set_header({"policy", "cost", "overpay", "revoked", "work lost",
                      "interruption $"});
    for (const core::PolicyStats& s : rr.result.policies) {
      table.add_row({s.policy, Table::num(s.mean_cost, 3),
                     Table::pct(s.mean_overpay),
                     Table::num(s.mean_revocations, 1),
                     Table::num(s.mean_work_lost, 2),
                     Table::num(s.mean_interruption_cost, 3)});
    }
    table.print(std::cout);
  }
  return 0;
}

int cmd_simulate(const Args& args) {
  if (args.help()) {
    std::cout << "rrp simulate [--class c1.medium] [--hours 48] "
                 "[--policy sto-exp-mean|det-exp-mean|sto-predict|"
                 "det-predict|on-demand|no-plan] [--replan N] "
                 "[--replan-mode rebuild|incremental] [--model-update N] "
                 "[--time-limit SECONDS] [--jobs N] [--seed N] "
                 "[--trace FILE]\n"
                 "            [--revocations calm|bid-cross|storm|all] "
                 "[--hazard P] [--storm-rate P]\n"
                 "            [--checkpoint-cost F] [--trials N]\n"
                 "  --time-limit caps each re-plan solve (0 = unlimited); "
                 "on expiry the best\n  incumbent is used and failed "
                 "re-plans degrade via the recovery ladder.\n"
                 "  --model-update refreshes the price models every N "
                 "re-plans (0 = fit once\n  at start, the default); "
                 "--replan-mode picks how: incremental (sliding\n  "
                 "distributions, warm SARIMA refits, scenario-tree "
                 "repair; default) or\n  rebuild (recompute from the "
                 "full window, the equivalence oracle).\n"
                 "  --jobs sets the branch & bound worker threads per "
                 "re-plan solve\n  (0 = all cores; only the MILP backend "
                 "parallelises).\n"
                 "  --revocations turns on mid-slot spot interruptions. "
                 "Without --policy it\n  prints the policy comparison "
                 "table under the chosen regime(s) (--trials\n  windows, "
                 "<= 10); with --policy it runs one interruption-aware "
                 "simulation.\n  --hazard / --storm-rate / "
                 "--checkpoint-cost override the regime defaults.\n";
    return 0;
  }
  const market::VmClass vm = market::from_name(args.get("class",
                                                        "c1.medium"));
  const auto hours = static_cast<std::size_t>(args.get_u64("hours", 48));
  if (args.has("revocations") && !args.has("policy"))
    return simulate_regime_table(args, vm, hours);
  const auto trace = load_or_generate(args, vm);
  const auto hourly = trace.hourly();
  const std::size_t history = std::min<std::size_t>(
      hourly.size() > hours ? hourly.size() - hours : 0, 24 * 60);
  if (history < 48) {
    std::cerr << "trace too short for " << hours << "h of evaluation\n";
    return 2;
  }
  core::SimulationInputs in;
  in.vm = vm;
  in.history.assign(hourly.end() - static_cast<long>(history + hours),
                    hourly.end() - static_cast<long>(hours));
  in.actual_spot.assign(hourly.end() - static_cast<long>(hours),
                        hourly.end());
  Rng rng(args.get_u64("seed", 42));
  in.demand = core::generate_demand(hours, core::DemandConfig{}, rng);
  if (args.has("revocations")) {
    const std::string regime = args.get("revocations", "storm");
    if (regime == "all") {
      std::cerr << "--revocations all needs the comparison table; drop "
                   "--policy\n";
      return 2;
    }
    in.revocation = revocation_from_args(args, regime);
    const auto last = static_cast<long>(hourly.size());
    const auto first = last - static_cast<long>(hours);
    in.intra_slot_max = trace.hourly_max(first, last);
    in.trace_revocations = trace.hourly_revocations(first, last);
  }

  const std::string name = args.get("policy", "sto-exp-mean");
  core::PolicyConfig policy;
  if (name == "sto-exp-mean") policy = core::sto_exp_mean_policy();
  else if (name == "det-exp-mean") policy = core::det_exp_mean_policy();
  else if (name == "sto-predict") policy = core::sto_predict_policy();
  else if (name == "det-predict") policy = core::det_predict_policy();
  else if (name == "on-demand") policy = core::on_demand_policy();
  else if (name == "no-plan") policy = core::no_plan_policy();
  else {
    std::cerr << "unknown policy: " << name << "\n";
    return 2;
  }
  if (args.has("replan"))
    policy.replan_every = static_cast<std::size_t>(args.get_u64("replan",
                                                                1));
  const double time_limit = args.get_double("time-limit", 0.0);
  if (time_limit < 0.0) {
    std::cerr << "--time-limit must be >= 0\n";
    return 2;
  }
  policy.replan_time_limit = time_limit;
  if (args.has("model-update"))
    policy.model_update_every =
        static_cast<std::size_t>(args.get_u64("model-update", 0));
  const std::string mode = args.get("replan-mode", "incremental");
  if (mode == "rebuild") policy.replan_mode = core::ReplanMode::Rebuild;
  else if (mode == "incremental")
    policy.replan_mode = core::ReplanMode::Incremental;
  else {
    std::cerr << "unknown --replan-mode: " << mode
              << " (want rebuild|incremental)\n";
    return 2;
  }
  const auto jobs = static_cast<std::size_t>(args.get_u64("jobs", 0));
  policy.solver.jobs = jobs;

  const auto result = core::simulate_policy(in, policy);
  const double ideal = core::ideal_case_cost(in);
  Table table("Simulation: " + name + " on " +
              std::string(market::info(vm).name));
  table.set_header({"metric", "value"});
  table.add_row({"realised cost", Table::num(result.total_cost(), 3)});
  table.add_row({"ideal-case cost", Table::num(ideal, 3)});
  table.add_row({"overpay", Table::pct(core::overpay_fraction(
                                result.total_cost(), ideal))});
  table.add_row({"rentals", std::to_string(result.rentals())});
  table.add_row({"out-of-bid events",
                 std::to_string(result.out_of_bid_events())});
  table.add_row({"compute", Table::num(result.cost.compute, 3)});
  table.add_row({"I/O+storage", Table::num(result.cost.holding, 3)});
  table.add_row({"transfer", Table::num(result.cost.transfer(), 3)});
  table.add_row({"solver jobs",
                 jobs == 0 ? "auto" : std::to_string(jobs)});
  const milp::SolveWork& work = result.solver;
  if (work.nodes_explored > 0) {
    table.add_row({"b&b nodes explored",
                   std::to_string(work.nodes_explored)});
    const std::size_t total_lps =
        work.warm_started_nodes + work.cold_solved_nodes;
    if (total_lps > 0)
      table.add_row(
          {"warm-started LPs",
           Table::pct(static_cast<double>(work.warm_started_nodes) /
                      static_cast<double>(total_lps))});
    if (work.cuts_added > 0)
      table.add_row({"root cuts added", std::to_string(work.cuts_added)});
  }
  table.add_row({"degraded re-plans",
                 std::to_string(result.degraded_replans())});
  if (result.degraded_replans() > 0) {
    using core::FallbackAction;
    using core::FallbackReason;
    table.add_row(
        {"  re-plan timeouts",
         std::to_string(result.count(FallbackReason::SolverTimeout))});
    table.add_row(
        {"  numerical failures",
         std::to_string(result.count(FallbackReason::NumericalFailure))});
    table.add_row(
        {"  plans rejected",
         std::to_string(result.count(FallbackReason::PlanRejected))});
    table.add_row(
        {"  served by plan tail",
         std::to_string(result.count(FallbackAction::ReusedPlanTail))});
    table.add_row(
        {"  served by heuristic",
         std::to_string(result.count(FallbackAction::HeuristicPlan))});
    table.add_row({"  served on demand",
                   std::to_string(result.count(FallbackAction::OnDemand))});
  }
  if (!result.price_faults.empty())
    table.add_row({"price-feed faults",
                   std::to_string(result.price_faults.size())});
  // Re-plan latency footer (ISSUE 10): wall-clock per executed re-plan,
  // with the model-maintenance share split out from solving.
  if (!result.replan_seconds.empty()) {
    table.add_row({"re-plans executed",
                   std::to_string(result.replan_seconds.size())});
    table.add_row(
        {"re-plan latency p50 (ms)",
         Table::num(stats::quantile(result.replan_seconds, 0.50) * 1e3, 3)});
    table.add_row(
        {"re-plan latency p95 (ms)",
         Table::num(stats::quantile(result.replan_seconds, 0.95) * 1e3, 3)});
    if (result.model_refreshes > 0) {
      table.add_row({"model refreshes (" + std::string(core::to_string(
                         policy.replan_mode)) + ")",
                     std::to_string(result.model_refreshes)});
      table.add_row({"model maintenance (ms)",
                     Table::num(result.model_maintenance_seconds * 1e3, 3)});
      if (result.sarima_refits_kept + result.sarima_warm_refits +
              result.sarima_scratch_refits > 0)
        table.add_row(
            {"  sarima kept/warm/scratch",
             std::to_string(result.sarima_refits_kept) + "/" +
                 std::to_string(result.sarima_warm_refits) + "/" +
                 std::to_string(result.sarima_scratch_refits)});
      if (result.tree_repairs + result.tree_rebuilds > 0)
        table.add_row({"  trees repaired/rebuilt",
                       std::to_string(result.tree_repairs) + "/" +
                           std::to_string(result.tree_rebuilds)});
    }
  }
  if (in.revocation.enabled || result.revoked_slots() > 0) {
    table.add_row({"revoked slots",
                   std::to_string(result.revoked_slots())});
    using core::RevocationRecovery;
    using market::RevocationKind;
    table.add_row({"  bid-cross",
                   std::to_string(result.count(RevocationKind::BidCross))});
    table.add_row({"  hazard",
                   std::to_string(result.count(RevocationKind::Hazard))});
    table.add_row({"  storm",
                   std::to_string(result.count(RevocationKind::Storm))});
    table.add_row(
        {"  re-acquired spot",
         std::to_string(result.count(RevocationRecovery::ReacquiredSpot))});
    table.add_row(
        {"  migrated type",
         std::to_string(result.count(RevocationRecovery::MigratedType))});
    table.add_row(
        {"  on-demand backstop",
         std::to_string(result.count(RevocationRecovery::OnDemandBackstop))});
    table.add_row({"work lost (slots)", Table::num(result.work_lost(), 2)});
    table.add_row({"checkpoint overhead",
                   Table::num(result.checkpoint_overhead_cost, 3)});
    table.add_row({"interruption cost",
                   Table::num(result.interruption_cost(), 3)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_availability(const Args& args) {
  if (args.help()) {
    std::cout << "rrp availability --bid B [--class c1.medium] "
                 "[--trace FILE] [--seed N]\n";
    return 0;
  }
  const market::VmClass vm = market::from_name(args.get("class",
                                                        "c1.medium"));
  if (!args.has("bid")) {
    std::cerr << "rrp availability: --bid is required\n";
    return 2;
  }
  const double bid = args.get_double("bid", 0.0);
  const auto trace = load_or_generate(args, vm);
  const auto hourly = trace.hourly();
  const auto report = market::analyze_availability(hourly, bid);
  Table table("Availability of bid " + Table::num(bid, 4) + " (" +
              std::string(market::info(vm).name) + ")");
  table.set_header({"metric", "value"});
  table.add_row({"uptime", Table::pct(report.uptime_fraction)});
  table.add_row({"interruptions", std::to_string(report.interruptions)});
  table.add_row({"mean up-run (h)", Table::num(report.mean_uptime_run, 1)});
  table.add_row(
      {"mean down-run (h)", Table::num(report.mean_downtime_run, 1)});
  table.add_row(
      {"mean price paid", Table::num(report.mean_price_paid, 4)});
  table.print(std::cout);
  return 0;
}

void usage() {
  std::cout <<
      "rrp — resource rental planning for elastic cloud applications\n"
      "\n"
      "usage: rrp <command> [flags]   (rrp <command> --help for flags)\n"
      "\n"
      "  trace         generate a synthetic spot-price trace CSV\n"
      "  analyze       summarise a trace and its predictability\n"
      "  plan          optimal DRRP schedule for one VM class\n"
      "  simulate      run a rental policy against the spot market\n"
      "  availability  profile a fixed bid against a trace\n"
      "\n"
      "observability flags (any command):\n"
      "  --metrics-out FILE   write the metrics registry on exit, one\n"
      "                       `name value` line per series\n"
      "  --trace-out FILE     record spans, write Chrome trace JSON\n"
      "                       (open in Perfetto or chrome://tracing)\n"
      "  --events-out FILE    stream structured events as JSONL\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    ObsSession obs_session(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "plan") return cmd_plan(args);
    if (cmd == "simulate") return cmd_simulate(args);
    if (cmd == "availability") return cmd_availability(args);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "rrp " << cmd << ": " << e.what() << "\n";
    return 1;
  }
}
