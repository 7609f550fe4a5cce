// Machine-readable re-plan latency suite: writes BENCH_replan.json
// (consumed by tools/check_perf.py in the CI perf-smoke job).
//
// Measures the per-re-plan wall-clock of the rolling-horizon simulator
// with per-replan model refresh (model_update_every = 1) in both
// ReplanMode::Rebuild and ReplanMode::Incremental, across price
// histories 256..4096 hours.  The headline claims (ISSUE 10):
//
//   * incremental latency stays flat (<= 1.3x from 256 to 4096) because
//     every maintenance step is bounded by new data, not total history;
//   * rebuild grows with the window, so incremental wins >= 5x at
//     history = 2048 (gated in CI against BENCH_replan.baseline.json).
//
// The policy is det-predict (DRRP + SARIMA bids): it exercises the full
// maintenance stack — sliding distribution, warm SARIMA refit — with
// the solve itself (Wagner-Whitin) near-free, so the measurement
// isolates model-maintenance cost.
//
// One simulation's mean covers only 48 incremental re-plans of tens of
// microseconds, too few to gate a ratio on, so every (history, mode)
// case runs kRuns times, interleaved, and each row is the run with the
// median mean.  On a shared 4-vCPU container the 4096h/256h incremental
// ratio of 7-run medians still spanned 1.04x-1.58x over 10 runs; 21-run
// medians read 1.07x-1.18x.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/stats.hpp"
#include "core/policies.hpp"
#include "core/rolling_horizon.hpp"
#include "obs/obs.hpp"

namespace {

using namespace rrp;

constexpr std::size_t kEvalHours = 48;
constexpr std::size_t kBoundedWindow = 24 * 7;  // forecast + diagnostics
constexpr std::size_t kRuns = 21;  // odd, so the median is one run

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// Inputs with an exact history length in hours (bench_util's
/// make_inputs rounds to days).
core::SimulationInputs inputs_with_history(market::VmClass vm,
                                           std::size_t history_hours) {
  const auto trace = bench::shared_trace(vm);
  const auto hourly = trace.hourly();
  core::SimulationInputs in;
  in.vm = vm;
  const std::size_t total = history_hours + kEvalHours;
  in.history.assign(hourly.begin(), hourly.begin() + static_cast<long>(
                                        history_hours));
  in.actual_spot.assign(hourly.begin() + static_cast<long>(history_hours),
                        hourly.begin() + static_cast<long>(total));
  Rng rng(0x9e3779b9ULL + static_cast<std::uint64_t>(vm));
  in.demand = core::generate_demand(kEvalHours, core::DemandConfig{}, rng);
  return in;
}

struct Record {
  std::string name;
  std::size_t history = 0;
  std::string mode;
  std::size_t replans = 0;
  double mean_replan_seconds = 0.0;
  double p50_replan_seconds = 0.0;
  double p95_replan_seconds = 0.0;
  double model_maintenance_seconds = 0.0;
  std::size_t model_refreshes = 0;
  std::size_t sarima_kept = 0;
  std::size_t sarima_warm = 0;
  std::size_t sarima_scratch = 0;
  double total_cost = 0.0;
};

Record run_case(std::size_t history, core::ReplanMode mode) {
  const market::VmClass vm = market::VmClass::C1Medium;
  const core::SimulationInputs in = inputs_with_history(vm, history);

  core::PolicyConfig policy = core::det_predict_policy();
  policy.fit_window = history;
  policy.model_update_every = 1;
  policy.replan_mode = mode;
  // Bounded per-replan work for the incremental path; the rebuild path
  // ignores these bounds by design (it refits over the full window).
  policy.forecast_window = kBoundedWindow;
  policy.sarima_refit.diagnostic_window = kBoundedWindow;
  // A 400-evaluation budget keeps the bench wall-clock sane and applies
  // to both modes' cold fits, so the comparison stays fair.
  policy.sarima_refit.scratch.optimizer.max_evaluations = 400;
  policy.sarima_refit.warm_max_evaluations = 200;

  const auto result = core::simulate_policy(in, policy);

  Record rec;
  rec.history = history;
  rec.mode = core::to_string(mode);
  rec.name = "replan_h" + std::to_string(history) + "_" + rec.mode;
  rec.replans = result.replan_seconds.size();
  double total = 0.0;
  for (double s : result.replan_seconds) total += s;
  rec.mean_replan_seconds =
      rec.replans > 0 ? total / static_cast<double>(rec.replans) : 0.0;
  rec.p50_replan_seconds = stats::quantile(result.replan_seconds, 0.50);
  rec.p95_replan_seconds = stats::quantile(result.replan_seconds, 0.95);
  rec.model_maintenance_seconds = result.model_maintenance_seconds;
  rec.model_refreshes = result.model_refreshes;
  rec.sarima_kept = result.sarima_refits_kept;
  rec.sarima_warm = result.sarima_warm_refits;
  rec.sarima_scratch = result.sarima_scratch_refits;
  rec.total_cost = result.total_cost();
  return rec;
}

/// The run with the median mean re-plan latency.
Record median_run(std::vector<Record> runs) {
  const auto mid = runs.begin() + static_cast<long>(runs.size() / 2);
  std::nth_element(runs.begin(), mid, runs.end(),
                   [](const Record& a, const Record& b) {
                     return a.mean_replan_seconds < b.mean_replan_seconds;
                   });
  const Record& rec = *mid;
  std::cerr << rec.name << ": mean " << fmt(rec.mean_replan_seconds * 1e3)
            << " ms, p95 " << fmt(rec.p95_replan_seconds * 1e3)
            << " ms, maintenance "
            << fmt(rec.model_maintenance_seconds * 1e3) << " ms over "
            << rec.model_refreshes << " refreshes (median of "
            << runs.size() << " runs)\n";
  return rec;
}

void write_json(const std::vector<Record>& records, std::ostream& out) {
  out << "{\n";
  out << "  \"schema\": \"rrp-bench-replan-v2\",\n";
  out << "  \"eval_hours\": " << kEvalHours << ",\n";
  out << "  \"results\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    out << "    {\"name\": \"" << r.name << "\", \"history\": " << r.history
        << ", \"mode\": \"" << r.mode << "\""
        << ", \"replans\": " << r.replans
        << ", \"mean_replan_seconds\": " << fmt(r.mean_replan_seconds)
        << ", \"p50_replan_seconds\": " << fmt(r.p50_replan_seconds)
        << ", \"p95_replan_seconds\": " << fmt(r.p95_replan_seconds)
        << ", \"model_maintenance_seconds\": "
        << fmt(r.model_maintenance_seconds)
        << ", \"model_refreshes\": " << r.model_refreshes
        << ", \"sarima_kept\": " << r.sarima_kept
        << ", \"sarima_warm\": " << r.sarima_warm
        << ", \"sarima_scratch\": " << r.sarima_scratch
        << ", \"total_cost\": " << fmt(r.total_cost) << "}"
        << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main() {
  const std::vector<std::size_t> histories = {256, 512, 1024, 2048, 4096};
  const rrp::core::ReplanMode modes[] = {rrp::core::ReplanMode::Rebuild,
                                         rrp::core::ReplanMode::Incremental};
  // runs[case][run]; interleaving the cases spreads any slow spell of
  // the machine over all of them instead of one case's runs.
  std::vector<std::vector<Record>> runs(histories.size() * 2);
  for (std::size_t run = 0; run < kRuns; ++run)
    for (std::size_t i = 0; i < runs.size(); ++i)
      runs[i].push_back(run_case(histories[i / 2], modes[i % 2]));
  std::vector<Record> records;
  for (std::vector<Record>& r : runs)
    records.push_back(median_run(std::move(r)));
  write_json(records, std::cout);
  std::ofstream file("BENCH_replan.json");
  write_json(records, file);
  std::cerr << "wrote BENCH_replan.json\n";
  return 0;
}
