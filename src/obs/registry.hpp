// Process-wide metrics registry: named counters, gauges and fixed-bucket
// histograms for the solver, simulator and time-series hot paths.
//
// Design (see DESIGN.md "Observability"):
//
//   * Counters are monotone and sharded: each holds kShards cache-line-
//     padded atomic cells, and a thread adds to the cell picked by its
//     round-robin-assigned shard index, so concurrent workers (parallel
//     branch & bound, the ThreadPool) never contend on one cache line.
//     `value()` aggregates the cells on scrape with relaxed loads —
//     scrapes are wait-free and race-free (TSan-clean) but see a
//     point-in-time-ish sum, which is all a monitoring read needs.
//   * Gauges are last-writer-wins doubles (plus an additive CAS mode).
//   * Histograms have fixed upper bounds declared at registration;
//     observation is one relaxed fetch_add on the matching bucket.
//
// Registration (name -> metric) is the only locked path and uses the
// annotated rrp::Mutex from PR 6; instrumentation sites cache the
// returned reference (metrics are never deleted, so references stay
// valid for the process lifetime).  The hot-path macros that feed this
// registry live in obs/obs.hpp; scrapes (--metrics-out, the bench JSON)
// talk to it directly.  It is a process-wide sum: a solve's or a
// simulation's own counts live in its result struct, which feeds it.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.hpp"

namespace rrp::obs {

namespace detail {

/// Number of counter cells; covers the worker counts used by the
/// parallel branch & bound and the ThreadPool without contention.
inline constexpr std::size_t kCounterShards = 16;

/// Stable per-thread shard index in [0, kCounterShards): assigned
/// round-robin on first use so the first kCounterShards threads get
/// distinct cells.
std::size_t shard_index() noexcept;

struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> value{0};
};

/// Relaxed add for atomic<double> via CAS (portable; avoids relying on
/// the C++20 floating fetch_add across toolchains).
void atomic_add(std::atomic<double>& target, double delta) noexcept;

}  // namespace detail

/// Monotone counter.  add() is wait-free on the caller's shard cell.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    cells_[detail::shard_index()].value.fetch_add(n,
                                                  std::memory_order_relaxed);
  }

  /// Sum across shards (relaxed; concurrent adds may or may not be seen).
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& cell : cells_)
      total += cell.value.load(std::memory_order_relaxed);
    return total;
  }

 private:
  std::array<detail::CounterCell, detail::kCounterShards> cells_;
};

/// Last-writer-wins double, with an additive mode for accumulated sums.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept { detail::atomic_add(value_, delta); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i],
/// with an implicit +inf overflow bucket, plus a running sum/count so
/// scrapes can report means.
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Per-bucket counts; size is upper_bounds().size() + 1 (overflow last).
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One metric's value at scrape time.
struct MetricSample {
  enum class Kind { Counter, Gauge, Histogram };
  Kind kind = Kind::Counter;
  std::string name;
  double value = 0.0;  ///< counter total or gauge value; sum for histograms
  // Histogram-only:
  std::uint64_t count = 0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucket_counts;
};

/// Point-in-time view of every registered metric, name-sorted.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// `name value` per line (histograms expand to _count/_sum/_bucket
  /// lines), stable order — the --metrics-out text format.
  std::string to_text() const;
  /// {"counters":{...},"gauges":{...},"histograms":{...}} — the
  /// bench_solvers_json metrics block.
  std::string to_json() const;

  /// Convenience lookups for tests; 0 when the metric does not exist.
  std::uint64_t counter(std::string_view name) const;
  double gauge(std::string_view name) const;
};

/// Name -> metric registry.  Metrics are created on first use and live
/// for the process lifetime; the returned references are stable.  Every
/// line of the scrape names one series: registering a name already taken
/// by another kind, or a counter or gauge named like a histogram's
/// `_count`/`_sum`/`_bucket` series (or the reverse), throws
/// rrp::InvalidArgument.
class Registry {
 public:
  Counter& counter(std::string_view name) RRP_EXCLUDES(mu_);
  Gauge& gauge(std::string_view name) RRP_EXCLUDES(mu_);
  /// First registration fixes the bucket bounds; later calls with the
  /// same name return the existing histogram regardless of `bounds`.
  Histogram& histogram(std::string_view name,
                       std::vector<double> upper_bounds) RRP_EXCLUDES(mu_);

  MetricsSnapshot scrape() const RRP_EXCLUDES(mu_);

 private:
  void check_new_scalar_name(std::string_view name) const RRP_REQUIRES(mu_);
  void check_new_histogram_name(std::string_view name) const
      RRP_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      RRP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      RRP_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      RRP_GUARDED_BY(mu_);
};

/// The process-wide registry every instrumentation macro feeds.  (A
/// future rrpd would hold one Registry per tenant next to this one.)
Registry& global_registry();

}  // namespace rrp::obs
