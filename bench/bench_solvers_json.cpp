// Machine-readable solver benchmark (ISSUE 5): median-of-5 wall times
// for the simplex, DRRP and SRRP solves, branch & bound node
// throughput, and the warm-start hit rate, written to
// BENCH_solvers.json for the CI perf-smoke job (tools/check_perf.py
// compares nodes/sec against the checked-in baseline).
//
// The headline metric is `srrp_warm_speedup`: B&B node throughput with
// warm starts on vs. off (jobs = 1) on the SRRP deterministic
// equivalent — the aggregated formulation, whose weak LP relaxation
// forces a real tree search, so per-node LP cost dominates.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.hpp"
#include "common/rng.hpp"
#include "core/demand.hpp"
#include "core/drrp.hpp"
#include "core/price_distribution.hpp"
#include "core/srrp.hpp"
#include "lp/simplex.hpp"
#include "milp/branch_and_bound.hpp"
#include "obs/obs.hpp"

namespace {

using namespace rrp;

double now() { return common::real_clock().now_seconds(); }

constexpr int kRepeats = 5;

/// Median-of-kRepeats wall time of `f` (seconds).
template <typename F>
double median_seconds(F&& f) {
  std::vector<double> times;
  times.reserve(kRepeats);
  for (int i = 0; i < kRepeats; ++i) {
    const double t0 = now();
    f();
    times.push_back(now() - t0);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

struct Record {
  std::string name;
  double median_seconds = 0.0;
  // B&B-only fields (absent from the JSON for plain LP solves).
  bool has_tree_stats = false;
  std::size_t nodes = 0;
  std::size_t pivots = 0;  ///< node-LP simplex pivots of one solve
  std::size_t refactorizations = 0;  ///< sparse LU rebuilds of one solve
  double nodes_per_second = 0.0;
  double warm_hit_rate = 0.0;
  // Root-cut and sparse-LU factorisation telemetry.
  std::size_t cuts_added = 0;
  double root_gap_closed = 0.0;
  double mean_fill_ratio = 0.0;
  double refactor_cadence = 0.0;
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void write_json(const std::vector<Record>& records, double srrp_warm_speedup,
                std::ostream& out) {
  out << "{\n";
  out << "  \"schema\": \"rrp-bench-solvers-v5\",\n";
  out << "  \"repeats\": " << kRepeats << ",\n";
  // Full registry snapshot after all measured solves: counters for
  // pivots, refactorisations, nodes, cuts, recoveries and friends.
  out << "  \"metrics\": " << obs::global_registry().scrape().to_json()
      << ",\n";
  out << "  \"srrp_warm_speedup\": " << fmt(srrp_warm_speedup) << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    out << "    {\"name\": \"" << r.name << "\", \"median_seconds\": "
        << fmt(r.median_seconds);
    if (r.has_tree_stats) {
      out << ", \"nodes\": " << r.nodes << ", \"pivots\": " << r.pivots
          << ", \"refactorizations\": " << r.refactorizations
          << ", \"nodes_per_second\": " << fmt(r.nodes_per_second)
          << ", \"warm_hit_rate\": " << fmt(r.warm_hit_rate)
          << ", \"cuts_added\": " << r.cuts_added
          << ", \"root_gap_closed\": " << fmt(r.root_gap_closed)
          << ", \"mean_fill_ratio\": " << fmt(r.mean_fill_ratio)
          << ", \"refactor_cadence\": " << fmt(r.refactor_cadence);
    }
    out << "}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

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

core::DrrpInstance drrp_instance(std::size_t horizon) {
  Rng rng(11);
  core::DrrpInstance inst;
  inst.demand = core::generate_demand(horizon, core::DemandConfig{}, rng);
  inst.compute_price.assign(horizon, 0.4);
  return inst;
}

core::SrrpInstance srrp_instance(std::size_t width, std::uint64_t seed = 13) {
  Rng rng(seed);
  std::vector<double> history;
  for (int i = 0; i < 1000; ++i)
    history.push_back(0.05 + 0.03 * rng.uniform());
  const auto base =
      core::EmpiricalPriceDistribution::from_history(history, 12);
  const std::vector<std::size_t> widths = {width, 2, 2, 1, 1};
  const std::vector<double> bids(widths.size(), 0.065);
  core::SrrpInstance inst;
  inst.demand =
      core::generate_demand(widths.size(), core::DemandConfig{}, rng);
  inst.tree = core::ScenarioTree::build(
      core::make_stage_supports(base, bids, 0.2, widths));
  return inst;
}

/// One measured MILP configuration: runs the solve kRepeats times,
/// records the median wall time and the tree stats of the last run.
/// Only jobs = 1 counts are deterministic; a multi-worker row's nodes,
/// pivots and refactorisations vary from run to run, so the baseline
/// gives those rows no work cap.
template <typename Solve>
Record bench_milp(std::string name, Solve&& solve) {
  Record rec;
  rec.name = std::move(name);
  std::size_t nodes = 0, warm = 0, cold = 0;
  rec.median_seconds = median_seconds([&] {
    const auto r = solve();
    const milp::SolveWork& work = r.work;
    rec.pivots = work.lp_iterations;
    nodes = work.nodes_explored;
    warm = work.warm_started_nodes;
    cold = work.cold_solved_nodes;
    rec.cuts_added = work.cuts_added;
    rec.root_gap_closed = r.root_gap_closed;
    rec.refactorizations = work.factor.refactorizations;
    rec.mean_fill_ratio = work.factor.mean_fill_ratio();
    rec.refactor_cadence = work.factor.refactor_cadence();
  });
  rec.has_tree_stats = true;
  rec.nodes = nodes;
  rec.nodes_per_second =
      rec.median_seconds > 0.0 ? static_cast<double>(nodes) /
                                     rec.median_seconds
                               : 0.0;
  const std::size_t lps = warm + cold;
  rec.warm_hit_rate =
      lps > 0 ? static_cast<double>(warm) / static_cast<double>(lps) : 0.0;
  std::cerr << rec.name << ": " << fmt(rec.median_seconds * 1e3) << " ms, "
            << nodes << " nodes, " << rec.pivots << " pivots, "
            << rec.refactorizations << " refactorizations, "
            << fmt(rec.nodes_per_second)
            << " nodes/s, warm " << fmt(100.0 * rec.warm_hit_rate)
            << "%, cuts " << rec.cuts_added << " (gap closed "
            << fmt(100.0 * rec.root_gap_closed) << "%), fill "
            << fmt(rec.mean_fill_ratio) << ", refactor cadence "
            << fmt(rec.refactor_cadence) << "\n";
  return rec;
}

/// Throughput-probe options: node-limited, root cuts off so nodes/sec
/// keeps measuring raw per-node LP cost (cuts would collapse the tree
/// and turn the metric into a cut-quality measurement).
milp::BnbOptions tree_options(bool warm_start, std::size_t jobs) {
  milp::BnbOptions opt;
  opt.warm_start = warm_start;
  opt.jobs = jobs;
  opt.max_nodes = 300;  // throughput probe; optimality not required
  opt.root_cuts = false;
  return opt;
}

/// Solve-to-optimality options for the cut-effectiveness entries: the
/// node counts (not wall time) are the gated metric.
milp::BnbOptions opt_options(bool cuts) {
  milp::BnbOptions opt;
  opt.warm_start = true;
  opt.jobs = 1;
  opt.root_cuts = cuts;
  return opt;
}

/// Accepts and drops every event, so an armed event log pays its full
/// emit cost without any I/O.
class DiscardSink final : public obs::EventSink {
 public:
  void write(const obs::Event&) override {}
};

}  // namespace

int main() {
  std::vector<Record> records;

  // Plain simplex: one dense cold solve.
  {
    const auto prog = random_lp(120, 60, 42);
    Record rec;
    rec.name = "simplex_dense_120x60";
    rec.median_seconds = median_seconds([&] { (void)lp::solve(prog); });
    std::cerr << rec.name << ": " << fmt(rec.median_seconds * 1e3)
              << " ms\n";
    records.push_back(rec);
  }

  // DRRP aggregated (weak relaxation -> real tree), warm on vs off.
  {
    const auto inst = drrp_instance(24);
    for (const bool warm : {true, false}) {
      records.push_back(bench_milp(
          std::string("drrp_aggregated_h24_") + (warm ? "warm" : "cold"),
          [&] {
            return core::solve_drrp(inst, tree_options(warm, 1),
                                    core::DrrpFormulation::Aggregated);
          }));
    }
  }

  // The same h24 aggregated DRRP solved to optimality with the default
  // options at 1, 2 and 4 workers: time to optimum of a real tree.
  // Only the jobs = 1 counts are deterministic.
  {
    const auto inst = drrp_instance(24);
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
      milp::BnbOptions opt;
      opt.jobs = jobs;
      records.push_back(bench_milp(
          "drrp_aggregated_h24_opt_jobs" + std::to_string(jobs), [&] {
            return core::solve_drrp(inst, opt,
                                    core::DrrpFormulation::Aggregated);
          }));
    }
  }

  // Fig. 10's 24-slot facility-location DRRP: an integral relaxation,
  // so one cold node whose pivot count is gated (check_perf.py
  // max_pivots) — a return to a primal first phase multiplies it.  Its
  // _deadline twin arms a one-hour deadline that never expires, so
  // every node and pivot polls the real clock: the time difference is
  // the polling overhead, and the work counts must not move.
  {
    const auto inst = drrp_instance(24);
    records.push_back(bench_milp("drrp_fl_h24_cold", [&] {
      return core::solve_drrp(inst, opt_options(false),
                              core::DrrpFormulation::FacilityLocation);
    }));
    records.push_back(bench_milp("drrp_fl_h24_cold_deadline", [&] {
      milp::BnbOptions opt = opt_options(false);
      opt.deadline = common::Deadline::after(3600.0);
      return core::solve_drrp(inst, opt,
                              core::DrrpFormulation::FacilityLocation);
    }));
  }

  // DRRP aggregated solved to optimality with root (l,S) cuts on vs
  // off: the node counts are the gated metric (check_perf.py enforces
  // per-entry max_nodes caps), demonstrating the cut-driven search
  // collapse on a real lot-sizing tree.
  {
    const auto inst = drrp_instance(16);
    for (const bool cuts : {false, true}) {
      records.push_back(bench_milp(
          std::string("drrp_aggregated_h16_opt_") +
              (cuts ? "cuts" : "nocuts"),
          [&] {
            return core::solve_drrp(inst, opt_options(cuts),
                                    core::DrrpFormulation::Aggregated);
          }));
    }
  }

  // SRRP deterministic equivalent at three tree widths, warm on vs off,
  // plus one parallel configuration.
  double warm_nps = 0.0, cold_nps = 0.0;
  int width_count = 0;
  for (const std::size_t width : {std::size_t{2}, std::size_t{3},
                                  std::size_t{4}}) {
    const auto inst = srrp_instance(width);
    for (const bool warm : {true, false}) {
      Record rec = bench_milp(
          "srrp_aggregated_w" + std::to_string(width) + "_" +
              (warm ? "warm" : "cold"),
          [&] {
            return core::solve_srrp(inst, tree_options(warm, 1),
                                    core::SrrpFormulation::Aggregated);
          });
      (warm ? warm_nps : cold_nps) += rec.nodes_per_second;
      records.push_back(std::move(rec));
    }
    ++width_count;
  }
  // SRRP solved to optimality with the production options (jobs = 1,
  // root cuts on) on an instance whose cuts leave a real tree:
  // deterministic node and refactorisation counts, gated by max_nodes /
  // max_refactorizations caps.  A factor rebuilt for every node solve
  // shows as a multiple of the refactorisation count.
  // Its _obs_armed twin records trace spans and emits events to a
  // discarding sink, so every span and event site pays its armed cost:
  // the time difference is the instrumentation overhead, and the work
  // counts must not move.
  {
    const auto inst = srrp_instance(4, 15);
    const auto solve = [&] {
      return core::solve_srrp(inst, opt_options(true),
                              core::SrrpFormulation::Aggregated);
    };
    records.push_back(bench_milp("srrp_aggregated_w4_opt", solve));
    auto& recorder = obs::TraceRecorder::instance();
    recorder.enable();
    obs::EventLog::instance().set_sink(std::make_shared<DiscardSink>());
    records.push_back(bench_milp("srrp_aggregated_w4_opt_obs_armed", solve));
    recorder.disable();
    recorder.clear();
    obs::EventLog::instance().set_sink(nullptr);
  }
  {
    const auto inst = srrp_instance(3);
    records.push_back(bench_milp("srrp_aggregated_w3_warm_jobs4", [&] {
      return core::solve_srrp(inst, tree_options(true, 4),
                              core::SrrpFormulation::Aggregated);
    }));
  }

  const double srrp_warm_speedup =
      cold_nps > 0.0 ? warm_nps / cold_nps : 0.0;
  std::cerr << "srrp_warm_speedup (mean nodes/s, warm / cold): "
            << fmt(srrp_warm_speedup) << "x\n";

  write_json(records, srrp_warm_speedup, std::cout);
  std::ofstream file("BENCH_solvers.json");
  write_json(records, srrp_warm_speedup, file);
  std::cerr << "wrote BENCH_solvers.json\n";
  return 0;
}
