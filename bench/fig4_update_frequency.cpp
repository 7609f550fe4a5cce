// Figure 4 — Variation of daily spot price update frequency
// (linux-c1-medium).
//
// Paper shape: the update count per day fluctuates substantially from
// day to day (roughly 0-25 updates) rather than being constant, which
// is why the tick stream must be regularised before time-series
// analysis.
//
// The second half turns the update frequency into a planning cost: a
// planner that re-estimates its model at every update pays a per-replan
// maintenance bill, so we time the rolling-horizon pipeline (wall clock
// via common::real_clock(), never the simulation clock) in both replan
// modes and report model-maintenance time separately from solve time.
#include <algorithm>
#include <iostream>
#include <numeric>

#include "bench_util.hpp"
#include "common/deadline.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/policies.hpp"
#include "core/rolling_horizon.hpp"

int main() {
  using namespace rrp;
  const auto trace = bench::shared_trace(market::VmClass::C1Medium);
  const auto counts = trace.daily_update_counts();

  std::vector<double> as_double(counts.begin(), counts.end());
  std::cout << "Figure 4: daily update counts over "
            << counts.size() << " days\n  "
            << sparkline(as_double, 76) << "\n\n";

  Table table("Daily update-frequency summary (c1.medium)");
  table.set_header({"statistic", "value"});
  const double total = static_cast<double>(
      std::accumulate(counts.begin(), counts.end(), std::size_t{0}));
  table.add_row({"days", std::to_string(counts.size())});
  table.add_row({"total updates", Table::num(total, 0)});
  table.add_row({"mean/day",
                 Table::num(total / static_cast<double>(counts.size()), 2)});
  table.add_row({"min/day",
                 std::to_string(*std::min_element(counts.begin(),
                                                  counts.end()))});
  table.add_row({"max/day",
                 std::to_string(*std::max_element(counts.begin(),
                                                  counts.end()))});
  table.print(std::cout);

  // Distribution of daily counts, the histogram behind the figure.
  Table hist("Days by update-count bucket");
  hist.set_header({"updates/day", "days"});
  const std::size_t buckets[] = {0, 5, 10, 15, 20, 25};
  for (std::size_t b = 0; b + 1 < std::size(buckets) + 1; ++b) {
    const std::size_t lo = buckets[b];
    const std::size_t hi =
        b + 1 < std::size(buckets) ? buckets[b + 1] : 1000;
    std::size_t days = 0;
    for (auto c : counts)
      if (c >= lo && c < hi) ++days;
    hist.add_row({std::to_string(lo) + (hi == 1000 ? "+" : "-" +
                                          std::to_string(hi - 1)),
                  std::to_string(days)});
    if (hi == 1000) break;
  }
  hist.print(std::cout);
  std::cout << "paper shape check: irregular, non-constant sampling -> "
               "hourly LOCF regularisation required\n\n";

  // What the update frequency costs the planner: re-plan with a model
  // refresh at every slot (the high-cadence regime the figure
  // motivates) and split wall-clock between model maintenance and the
  // solve itself.  Timings use the real clock — the simulation clock
  // auto-advances on reads and must never time anything.
  const common::Clock& wall = common::real_clock();
  const auto in = bench::make_inputs(market::VmClass::C1Medium, 48, 60);

  Table lat("Per-replan wall-clock at update frequency 1/slot (48 slots)");
  lat.set_header({"replan mode", "p50 (ms)", "p95 (ms)", "maintenance (ms)",
                  "solve+plan (ms)"});
  for (const core::ReplanMode mode :
       {core::ReplanMode::Rebuild, core::ReplanMode::Incremental}) {
    core::PolicyConfig policy = core::det_predict_policy();
    policy.model_update_every = 1;
    policy.replan_mode = mode;
    policy.sarima_refit.scratch.optimizer.max_evaluations = 400;

    const double t0 = wall.now_seconds();
    const auto result = core::simulate_policy(in, policy);
    const double elapsed = wall.now_seconds() - t0;

    double replan_total = 0.0;
    for (double s : result.replan_seconds) replan_total += s;
    lat.add_row(
        {core::to_string(mode),
         Table::num(stats::quantile(result.replan_seconds, 0.50) * 1e3, 3),
         Table::num(stats::quantile(result.replan_seconds, 0.95) * 1e3, 3),
         Table::num(result.model_maintenance_seconds * 1e3, 2),
         Table::num((replan_total - result.model_maintenance_seconds) * 1e3,
                    2)});
    std::cout << "  " << core::to_string(mode) << ": "
              << result.replan_seconds.size() << " replans, "
              << result.model_refreshes
              << " model refreshes, total wall " << Table::num(elapsed, 3)
              << " s\n";
  }
  lat.print(std::cout);
  std::cout << "maintenance dominates rebuild; incremental keeps the "
               "per-update bill bounded by new data\n";
  return 0;
}
