// The benchmark's workloads.  Each one is a fixed list of timed calls
// into the rrp public API, generated from the workload seed alone, plus
// the untimed baseline and answer checks for every call.  Why each
// workload exists and what it should stress is in perfbench/WORKLOADS.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// What one timed call produced.
struct CallResult {
  /// Wall time of each operation inside the call, timed around the
  /// public call alone: one entry for a solve or a simulation, one per
  /// re-plan for the replan stream.
  std::vector<double> op_seconds;
  double cost = 0.0;    ///< total (expected) cost of the answer
  /// Operations of this call that failed: an exception, a non-Optimal
  /// status or a rolling-horizon FallbackEvent.
  std::size_t failed_ops = 0;
  std::string failure;  ///< first failure, for the report
};

/// Untimed verdict on one call's answer against an independent exact
/// solver, with the time those reference solvers took.
struct CheckResult {
  std::string mismatch;  ///< empty when the answer agrees
  double wagner_whitin_seconds = 0.0;
  double tree_dp_seconds = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input from the seed (the set-up phase).  Returns the
  /// seconds spent generating market traces.
  virtual double generate(std::uint64_t seed) = 0;
  virtual std::size_t num_calls() const = 0;
  /// Operations in call i (fixed by the inputs).
  virtual std::size_t ops_in_call(std::size_t i) const = 0;
  /// Name of the span the benchmark opens around each traced call; a
  /// string literal, as obs::TraceSpan requires.
  virtual const char* span_name() const = 0;
  /// The timed call.
  virtual CallResult call(std::size_t i) = 0;
  /// No-planning cost of call i's inputs (untimed).
  virtual double no_plan_cost(std::size_t i) const = 0;
  /// Checks call i's answer against an independent exact solver.
  virtual CheckResult check(std::size_t i, const CallResult& result) const = 0;
};

/// The workload of that name, or nullptr.
std::unique_ptr<Workload> make_workload(std::string_view name);
const std::vector<std::string>& workload_names();

}  // namespace perfbench
