// Per-layer accounting for the traced run: span self time by name, and
// the registry work counters the benchmark reads and guards.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

/// Sums span self time by span name.  A span's self time is its
/// duration minus the durations of its children: the spans on the same
/// thread, one depth deeper, that closed inside it.
class SelfTime {
 public:
  /// Adds spans as TraceRecorder::collect() returns them (each thread's
  /// spans in close order).  `root` names the benchmark's own span.
  void add(const std::vector<rrp::obs::SpanRecord>& spans, const char* root);

  double self_seconds(const std::string& name) const;
  /// Summed duration and self time of the benchmark's root spans.
  double root_seconds() const { return root_seconds_; }
  double root_self_seconds() const { return root_self_seconds_; }

 private:
  std::map<std::string, double> self_;
  double root_seconds_ = 0.0;
  double root_self_seconds_ = 0.0;
};

/// Registry counters of deterministic work, by registry name.
using Counters = std::map<std::string, std::uint64_t>;

/// Current value of every counter of deterministic work.  Every round of
/// a run must move each of them by the same amount.
Counters read_counters();

/// Work done between two read_counters() snapshots.
Counters work_between(const Counters& before, const Counters& after);

}  // namespace perfbench
