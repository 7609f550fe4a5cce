// Micro-benchmarks (google-benchmark) for the solver substrates:
// simplex pricing rules, branch & bound on knapsacks, DRRP formulation
// scaling with the horizon, SARIMA fitting, and scenario-tree SRRP.
#include <benchmark/benchmark.h>

#include <memory>

#include "common/deadline.hpp"
#include "common/rng.hpp"
#include "core/demand.hpp"
#include "core/drrp.hpp"
#include "core/srrp.hpp"
#include "core/srrp_dp.hpp"
#include "core/wagner_whitin.hpp"
#include "lp/simplex.hpp"
#include "milp/branch_and_bound.hpp"
#include "obs/obs.hpp"
#include "timeseries/arima.hpp"

namespace {

using namespace rrp;

lp::LinearProgram random_lp(std::size_t vars, std::size_t rows,
                            std::uint64_t seed) {
  Rng rng(seed);
  lp::LinearProgram prog;
  for (std::size_t j = 0; j < vars; ++j)
    prog.add_variable(0.0, rng.uniform(1.0, 5.0), rng.uniform(-2.0, 2.0));
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<lp::Entry> entries;
    for (std::size_t j = 0; j < vars; ++j)
      if (rng.bernoulli(0.4)) entries.push_back({j, rng.uniform(-1.0, 1.0)});
    if (entries.empty()) entries.push_back({0, 1.0});
    prog.add_row(std::move(entries), -rng.uniform(0.5, 3.0),
                 rng.uniform(0.5, 3.0));
  }
  return prog;
}

void BM_SimplexDantzig(benchmark::State& state) {
  const auto prog = random_lp(static_cast<std::size_t>(state.range(0)),
                              static_cast<std::size_t>(state.range(0)) / 2,
                              42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve(prog));
  }
}
BENCHMARK(BM_SimplexDantzig)->Arg(20)->Arg(60)->Arg(120);

void BM_SimplexBland(benchmark::State& state) {
  const auto prog = random_lp(static_cast<std::size_t>(state.range(0)),
                              static_cast<std::size_t>(state.range(0)) / 2,
                              42);
  lp::SimplexOptions opt;
  opt.pricing = lp::Pricing::Bland;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solve(prog, opt));
  }
}
BENCHMARK(BM_SimplexBland)->Arg(20)->Arg(60)->Arg(120);

void BM_KnapsackBnB(benchmark::State& state) {
  Rng rng(7);
  milp::Model model;
  milp::LinExpr value, weight;
  for (int i = 0; i < state.range(0); ++i) {
    const milp::Var b = model.add_binary();
    value += rng.uniform(1.0, 20.0) * milp::LinExpr(b);
    weight += rng.uniform(1.0, 10.0) * milp::LinExpr(b);
  }
  model.set_objective(value, milp::Objective::Maximize);
  model.add_constraint(std::move(weight) <=
                       2.5 * static_cast<double>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(milp::solve(model));
  }
}
BENCHMARK(BM_KnapsackBnB)->Arg(10)->Arg(16)->Arg(22);

core::DrrpInstance drrp_instance(std::size_t horizon) {
  Rng rng(11);
  core::DrrpInstance inst;
  inst.demand = core::generate_demand(horizon, core::DemandConfig{}, rng);
  inst.compute_price.assign(horizon, 0.4);
  return inst;
}

void BM_DrrpFacilityLocation(benchmark::State& state) {
  const auto inst = drrp_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve_drrp(inst, {}, core::DrrpFormulation::FacilityLocation));
  }
}
BENCHMARK(BM_DrrpFacilityLocation)->Arg(12)->Arg(24)->Arg(48);

// Deadline-polling overhead (ISSUE 2 acceptance: <2% vs. no deadline).
// Same MILP solve as BM_DrrpFacilityLocation but with a generous armed
// deadline, so every node and pivot pays the poll against the real
// monotonic clock without ever expiring.
void BM_DrrpFacilityLocationDeadline(benchmark::State& state) {
  const auto inst = drrp_instance(static_cast<std::size_t>(state.range(0)));
  milp::BnbOptions opt;
  for (auto _ : state) {
    opt.deadline = common::Deadline::after(3600.0);
    benchmark::DoNotOptimize(
        core::solve_drrp(inst, opt, core::DrrpFormulation::FacilityLocation));
  }
}
BENCHMARK(BM_DrrpFacilityLocationDeadline)->Arg(12)->Arg(24)->Arg(48);

// Warm-start lever (ISSUE 5): the aggregated formulation's weak
// relaxation forces a real tree, so per-node LP cost dominates and the
// parent-basis dual re-optimisation shows up directly.  Arg is the
// warm_start switch.
void BM_DrrpAggregatedWarmStart(benchmark::State& state) {
  const auto inst = drrp_instance(24);
  milp::BnbOptions opt;
  opt.warm_start = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve_drrp(inst, opt, core::DrrpFormulation::Aggregated));
  }
}
BENCHMARK(BM_DrrpAggregatedWarmStart)->Arg(0)->Arg(1);

// Parallel tree search: Arg is the jobs count (1 = inline worker).
void BM_DrrpAggregatedJobs(benchmark::State& state) {
  const auto inst = drrp_instance(24);
  milp::BnbOptions opt;
  opt.jobs = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve_drrp(inst, opt, core::DrrpFormulation::Aggregated));
  }
}
BENCHMARK(BM_DrrpAggregatedJobs)->Arg(1)->Arg(2)->Arg(4);

void BM_DrrpWagnerWhitin(benchmark::State& state) {
  const auto inst = drrp_instance(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_drrp_wagner_whitin(inst));
  }
}
BENCHMARK(BM_DrrpWagnerWhitin)->Arg(12)->Arg(24)->Arg(48)->Arg(96);

void BM_SrrpFacilityLocation(benchmark::State& state) {
  Rng rng(13);
  std::vector<double> history;
  for (int i = 0; i < 1000; ++i)
    history.push_back(0.05 + 0.03 * rng.uniform());
  const auto base = core::EmpiricalPriceDistribution::from_history(history,
                                                                   12);
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  std::vector<std::size_t> widths = {width, 2, 2, 1, 1, 1};
  std::vector<double> bids(6, 0.065);
  core::SrrpInstance inst;
  inst.demand = core::generate_demand(6, core::DemandConfig{}, rng);
  inst.tree = core::ScenarioTree::build(
      core::make_stage_supports(base, bids, 0.2, widths));
  milp::BnbOptions opt;
  opt.relative_gap = 1e-3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve_srrp(inst, opt, core::SrrpFormulation::FacilityLocation));
  }
}
BENCHMARK(BM_SrrpFacilityLocation)->Arg(2)->Arg(3)->Arg(4);

void BM_SrrpTreeDp(benchmark::State& state) {
  Rng rng(13);
  std::vector<double> history;
  for (int i = 0; i < 1000; ++i)
    history.push_back(0.05 + 0.03 * rng.uniform());
  const auto base = core::EmpiricalPriceDistribution::from_history(history,
                                                                   12);
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  std::vector<std::size_t> widths = {width, 2, 2, 1, 1, 1};
  std::vector<double> bids(6, 0.065);
  core::SrrpInstance inst;
  inst.demand = core::generate_demand(6, core::DemandConfig{}, rng);
  inst.tree = core::ScenarioTree::build(
      core::make_stage_supports(base, bids, 0.2, widths));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::solve_srrp_tree_dp(inst));
  }
}
BENCHMARK(BM_SrrpTreeDp)->Arg(2)->Arg(3)->Arg(4)->Arg(8);

// Instrumentation overhead pair (ISSUE 9 acceptance: <2% on warm SRRP
// node throughput).  Both args run the same warm aggregated SRRP solve
// with the macros compiled in; Arg 1 additionally enables span
// recording and installs an event sink, so every RRP_TRACE_SPAN and
// RRP_OBS_EVENT site pays its full armed cost instead of one relaxed
// load, isolating the runtime arming cost.
class DiscardSink final : public obs::EventSink {
 public:
  void write(const obs::Event&) override {}
};

void BM_SrrpAggregatedObs(benchmark::State& state) {
  Rng rng(13);
  std::vector<double> history;
  for (int i = 0; i < 1000; ++i)
    history.push_back(0.05 + 0.03 * rng.uniform());
  const auto base = core::EmpiricalPriceDistribution::from_history(history,
                                                                   12);
  std::vector<std::size_t> widths = {3, 2, 2, 1, 1, 1};
  std::vector<double> bids(6, 0.065);
  core::SrrpInstance inst;
  inst.demand = core::generate_demand(6, core::DemandConfig{}, rng);
  inst.tree = core::ScenarioTree::build(
      core::make_stage_supports(base, bids, 0.2, widths));
  milp::BnbOptions opt;
  opt.relative_gap = 1e-3;
  opt.warm_start = true;
  const bool armed = state.range(0) != 0;
  auto& recorder = obs::TraceRecorder::instance();
  if (armed) {
    recorder.enable();
    obs::EventLog::instance().set_sink(std::make_shared<DiscardSink>());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::solve_srrp(inst, opt, core::SrrpFormulation::Aggregated));
  }
  if (armed) {
    recorder.disable();
    recorder.clear();
    obs::EventLog::instance().set_sink(nullptr);
  }
}
BENCHMARK(BM_SrrpAggregatedObs)->Arg(0)->Arg(1);

void BM_SarimaFit(benchmark::State& state) {
  Rng rng(17);
  std::vector<double> x(static_cast<std::size_t>(state.range(0)), 0.06);
  for (std::size_t t = 1; t < x.size(); ++t)
    x[t] = 0.06 + 0.7 * (x[t - 1] - 0.06) + rng.normal(0.0, 0.002);
  ts::SarimaOrder order;
  order.p = 2;
  order.q = 1;
  order.P = 1;
  order.s = 24;
  ts::SarimaFitOptions opt;
  opt.optimizer.max_evaluations = 2000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ts::fit_sarima(x, order, opt));
  }
}
BENCHMARK(BM_SarimaFit)->Arg(256)->Arg(720)->Arg(1440);

}  // namespace

BENCHMARK_MAIN();
