// perfbench_driver — runs one benchmark workload and prints its metrics.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//
// A run generates the workload's fixed call list and the no-planning
// baseline of every call from the seed (set-up), then repeats the whole
// list in rounds until S seconds have passed and at least kMinRounds
// rounds have run.
//
// Each operation's time is its minimum over the rounds: the machine
// alternates between fast and slow phases, and the minimum keeps the
// fast-phase time of every operation while the per-round mean does not.
// Round 0 doubles as the warm-up, which the minimum discards.  Every
// round must do identical work (registry counters) and give identical
// answers, so the minimum can only filter machine noise, never reward a
// cache that turns repetition into a gain.
//
// Rounds rotate over the CPUs the process may use.  On a shared host
// one vCPU can run 1.5 times slower than another for tens of seconds,
// and the kernel seldom moves a lone thread off it, so a run that
// stayed where it started would measure where it happened to land.
// With the rotation every operation's minimum covers every vCPU.
//
// The set-up runs again on a throwaway copy before every round, and
// setup_s is the minimum over these samples, the same statistic over the
// same span of the run as the operations' times.
//
// --trace 0 prints the end-to-end metrics.  --trace 1 alternates
// untraced and traced rounds of the same list, as many of each, and
// prints the per-layer metrics.  The last stdout line is one JSON
// object; the lines before it are a readable report.  Exit 0 when every
// answer is correct, 1 when not, 2 on bad arguments.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.hpp"
#include "common/stats.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kMinRounds = 3;
/// Spans per thread ring: far above the spans one call records (the
/// ring is drained after every call), so the traced run drops none.
constexpr std::size_t kRingCapacity = std::size_t{1} << 16;

double now() { return rrp::common::real_clock().now_seconds(); }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") a.workload = value;
      else if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--seconds") a.seconds = std::stod(value);
      else if (key == "--trace") a.trace = std::stoi(value) != 0;
      else return std::nullopt;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || !(a.seconds > 0.0))
    return std::nullopt;
  return a;
}

/// A fixed integer and floating-point loop that calls nothing in rrp.
/// Its time tells a slow machine phase apart from a slower program; it
/// is reported, never used to scale a metric.
double cpu_probe_seconds() {
  static volatile double sink = 0.0;
  std::uint64_t x = 0x2545f4914f6cdd1dULL;
  double acc = 0.0;
  const double t0 = now();
  for (int i = 0; i < 2'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x >> 11) * 0x1.0p-53;
  }
  const double t = now() - t0;
  sink = sink + acc;
  return t;
}

/// The CPUs this process may run on, in increasing order.
std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Lets the calling thread run on exactly the CPUs in `cpus`.
void run_on(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Per-layer accounting of a traced call list.
struct Tracing {
  SelfTime self;
  std::uint64_t dropped = 0;
};

/// Everything the rounds of one kind, untraced or traced, measured.
struct Rounds {
  explicit Rounds(const Workload& w) {
    for (std::size_t i = 0; i < w.num_calls(); ++i) {
      offset.push_back(op_min.size());
      op_min.resize(op_min.size() + w.ops_in_call(i),
                    std::numeric_limits<double>::infinity());
    }
  }

  std::size_t rounds = 0;
  std::vector<std::size_t> offset;  ///< index of call i's first operation
  std::vector<double> op_min;       ///< per operation, min over rounds
  std::vector<CallResult> first;    ///< round 0's results, for the checks
  Counters work;                    ///< round 0's work
  std::vector<std::string> problems;  ///< guard and determinism failures

  double ops_per_s() const {
    double total = 0.0;
    for (double s : op_min) total += s;
    return static_cast<double>(op_min.size()) / total;
  }
};

/// The set-up: generates the call list and the no-planning baseline
/// cost of each call.
struct Setup {
  std::unique_ptr<Workload> workload;
  std::vector<double> no_plan;
  double seconds = 0.0;
  double trace_seconds = 0.0;  ///< of `seconds`, generating market traces
};

Setup set_up(const Args& args) {
  Setup s;
  const double t0 = now();
  s.workload = make_workload(args.workload);
  s.trace_seconds = s.workload->generate(args.seed);
  for (std::size_t i = 0; i < s.workload->num_calls(); ++i)
    s.no_plan.push_back(s.workload->no_plan_cost(i));
  s.seconds = now() - t0;
  return s;
}

/// Runs the call list once and folds its times, answers and work into
/// `r`; with `tracing`, each call runs under a benchmark span.
void run_round(Workload& w, Tracing* tracing, Rounds& r) {
  auto& recorder = rrp::obs::TraceRecorder::instance();
  const Counters before = read_counters();
  for (std::size_t i = 0; i < w.num_calls(); ++i) {
    CallResult res;
    if (tracing != nullptr) {
      {
        rrp::obs::TraceSpan span(w.span_name());
        res = w.call(i);
      }
      tracing->dropped += recorder.dropped();
      tracing->self.add(recorder.collect(), w.span_name());
      recorder.clear();
    } else {
      res = w.call(i);
    }
    if (res.failed_ops == 0 && res.op_seconds.size() != w.ops_in_call(i)) {
      res.failed_ops = w.ops_in_call(i);
      res.failure = "timed " + std::to_string(res.op_seconds.size()) +
                    " operations, expected " +
                    std::to_string(w.ops_in_call(i));
    }
    for (std::size_t k = 0; k < res.op_seconds.size() &&
                            k < w.ops_in_call(i); ++k) {
      double& m = r.op_min[r.offset[i] + k];
      m = std::min(m, res.op_seconds[k]);
    }
    if (r.rounds == 0) {
      r.first.push_back(std::move(res));
    } else if (res.cost != r.first[i].cost ||
               res.failed_ops != r.first[i].failed_ops) {
      r.problems.push_back("call " + std::to_string(i) + " answered " +
                           "differently in round " +
                           std::to_string(r.rounds));
    }
  }
  const Counters work = work_between(before, read_counters());
  if (r.rounds == 0) {
    r.work = work;
  } else if (work != r.work) {
    r.problems.push_back("round " + std::to_string(r.rounds) +
                         " did different work than round 0");
  }
  ++r.rounds;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int run(const Args& args) {
  auto& recorder = rrp::obs::TraceRecorder::instance();
  recorder.set_ring_capacity(kRingCapacity);
  cpu_probe_seconds();  // fault in the probe before it is timed

  const Setup setup = set_up(args);
  Workload* w = setup.workload.get();
  double setup_seconds = setup.seconds;

  Rounds untraced(*w);
  std::optional<Rounds> traced;
  Tracing tracing;
  if (args.trace) traced.emplace(*w);
  const auto traced_round = [&] {
    recorder.enable();
    run_round(*w, &tracing, *traced);
    recorder.disable();
  };
  std::vector<double> probe_seconds;
  const std::vector<int> cpus = allowed_cpus();
  const double start = now();
  while (untraced.rounds < kMinRounds || now() - start < args.seconds) {
    if (cpus.size() > 1) run_on({cpus[untraced.rounds % cpus.size()]});
    setup_seconds = std::min(setup_seconds, set_up(args).seconds);
    probe_seconds.push_back(cpu_probe_seconds());
    // Traced runs alternate which kind goes first, so neither kind
    // always follows the set-up sample.
    const bool traced_first = traced && untraced.rounds % 2 == 1;
    if (traced_first) traced_round();
    run_round(*w, nullptr, untraced);
    if (traced && !traced_first) traced_round();
  }
  if (cpus.size() > 1) run_on(cpus);
  if (traced) {
    if (traced->work != untraced.work)
      traced->problems.push_back("traced rounds did different work");
    for (std::size_t i = 0; i < w->num_calls(); ++i) {
      if (traced->first[i].cost != untraced.first[i].cost)
        traced->problems.push_back("call " + std::to_string(i) +
                                   " answered differently when traced");
    }
  }

  // Answers: failures, then independent exact solvers (untimed).
  const std::size_t ops = untraced.op_min.size();
  std::size_t failed = 0;
  double cost = 0.0, no_plan_total = 0.0;
  double ww_seconds = 0.0, dp_seconds = 0.0;
  std::vector<std::string> problems = untraced.problems;
  if (traced) {
    problems.insert(problems.end(), traced->problems.begin(),
                    traced->problems.end());
  }
  if (tracing.dropped != 0)
    problems.push_back("trace dropped " + std::to_string(tracing.dropped) +
                       " spans");
  for (std::size_t i = 0; i < w->num_calls(); ++i) {
    const CallResult& res = untraced.first[i];
    cost += res.cost;
    no_plan_total += setup.no_plan[i];
    if (res.failed_ops > 0) {
      failed += res.failed_ops;
      problems.push_back("call " + std::to_string(i) + ": " + res.failure);
      continue;
    }
    const CheckResult c = w->check(i, res);
    ww_seconds += c.wagner_whitin_seconds;
    dp_seconds += c.tree_dp_seconds;
    if (!c.mismatch.empty()) {
      failed += w->ops_in_call(i);
      problems.push_back("call " + std::to_string(i) + ": " + c.mismatch);
    }
  }
  const bool correct = problems.empty();

  const double n = static_cast<double>(ops);
  const auto& mins = untraced.op_min;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double probe_ms = 1e3 * rrp::stats::median(probe_seconds);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"ops_per_s", untraced.ops_per_s(), "1/s"},
        {"op_ms_p50", 1e3 * rrp::stats::quantile(mins, 0.5), "ms"},
        {"op_ms_p90", 1e3 * rrp::stats::quantile(mins, 0.9), "ms"},
        {"cost_pct_of_no_plan", 100.0 * cost / no_plan_total, "%"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
         "MB"},
        {"setup_s", setup_seconds, "s"},
    };
  } else {
    const double traced_ops = n * static_cast<double>(traced->rounds);
    const auto self_ms = [&](const std::string& span) -> Metric {
      return {span + ".self_ms",
              1e3 * tracing.self.self_seconds(span) / traced_ops, "ms"};
    };
    const Counters& work = untraced.work;
    const auto per_op = [&](const std::string& name,
                            const std::string& counter) -> Metric {
      return {name, static_cast<double>(work.at(counter)) / n, "count"};
    };
    const double warm = static_cast<double>(work.at("rrp.bnb.warm_nodes"));
    const double cold = static_cast<double>(work.at("rrp.bnb.cold_nodes"));
    for (const char* span :
         {"lp.cold_solve", "lp.warm_solve", "lp.refactor", "lp.presolve",
          "bnb.solve", "bnb.node", "bnb.root_cuts", "bnb.cut_round",
          "bnb.heuristic", "cuts.separate", "core.solve_drrp",
          "core.solve_srrp", "rh.simulate", "rh.replan",
          "rh.replan_incremental", "tree.repair", "ts.fit_sarima",
          "ts.warm_refit", "ts.auto_arima", "ts.online_regularize"})
      metrics.push_back(self_ms(span));
    metrics.insert(
        metrics.end(),
        {per_op("lp.pivots_primal", "rrp.lp.pivots.primal"),
         per_op("lp.pivots_dual", "rrp.lp.pivots.dual"),
         per_op("lp.refactorizations", "rrp.lp.refactorizations"),
         per_op("lp.eta_updates", "rrp.lp.eta_updates"),
         per_op("bnb.nodes", "rrp.bnb.nodes"),
         per_op("bnb.cuts_added", "rrp.bnb.cuts_added"),
         per_op("bnb.lp_recoveries", "rrp.bnb.lp_recoveries"),
         {"bnb.warm_hit_pct",
          warm + cold > 0 ? 100.0 * warm / (warm + cold) : 0.0, "%"},
         per_op("rh.replans", "rrp.rh.replans"),
         {"rh.fallbacks",
          static_cast<double>(work.at("rrp.rh.fallback_reused_tail") +
                              work.at("rrp.rh.fallback_heuristic") +
                              work.at("rrp.rh.fallback_on_demand")) / n,
          "count"},
         per_op("tree.repairs", "rrp.tree.repairs"),
         per_op("ts.sarima_fit_evaluations", "rrp.ts.sarima_fit_evaluations"),
         per_op("ts.refits_kept", "rrp.ts.refits_kept"),
         per_op("ts.refits_warm", "rrp.ts.warm_refits"),
         per_op("ts.refits_scratch", "rrp.ts.scratch_refits"),
         {"dp.wagner_whitin_ms", 1e3 * ww_seconds / n, "ms"},
         {"dp.tree_ms", 1e3 * dp_seconds / n, "ms"},
         {"market.generate_trace_ms", 1e3 * setup.trace_seconds, "ms"},
         {"obs.trace_overhead_pct",
          100.0 * (untraced.ops_per_s() / traced->ops_per_s() - 1.0), "%"},
         {"unattributed_pct",
          100.0 * tracing.self.root_self_seconds() /
              tracing.self.root_seconds(),
          "%"},
         {"probe.cpu_ms", probe_ms, "ms"}});
  }

  // Readable report, then the result line.
  std::cout << "workload " << args.workload << "  seed " << args.seed
            << "  ops " << ops << "  rounds " << untraced.rounds
            << (traced ? " untraced + " + std::to_string(traced->rounds) +
                             " traced"
                       : std::string())
            << "  cpu probe " << number(probe_ms) << " ms\n";
  std::cout << "failed_pct " << number(100.0 * static_cast<double>(failed) / n)
            << " %\n";
  for (const Metric& m : metrics)
    std::cout << m.name << " " << number(m.value) << " " << m.unit << "\n";
  std::cout << "work_fingerprint cost_pct_of_no_plan="
            << number(100.0 * cost / no_plan_total) << " counters=";
  const char* sep = "";
  for (const auto& [name, value] : untraced.work) {
    std::cout << sep << name << ":" << value;
    sep = ",";
  }
  std::cout << "\n";
  for (const std::string& p : problems) std::cout << "problem: " << p << "\n";

  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << ops << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << "\"" << metrics[i].name
         << "\": {\"value\": " << number(metrics[i].value)
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parse_args(argc, argv);
  if (!args || perfbench::make_workload(args->workload) == nullptr) {
    std::cerr << "usage: perfbench_driver --workload {";
    for (const auto& name : perfbench::workload_names())
      std::cerr << name << (name == perfbench::workload_names().back() ? "" : ",");
    std::cerr << "} [--seed N] [--seconds S] [--trace 0|1]\n";
    return 2;
  }
  return perfbench::run(*args);
}
