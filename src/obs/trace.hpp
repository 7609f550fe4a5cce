// Scoped trace spans recorded into per-thread ring buffers, flushed on
// demand as Chrome trace-event JSON (load in Perfetto / chrome://tracing).
//
// A span is an RAII object opened by RRP_TRACE_SPAN("bnb.node") (see
// obs/obs.hpp); its constructor and destructor read the recorder's
// injectable common::Clock — never std::chrono directly — so tests drive
// span durations with a FakeClock and the no-raw-clock lint holds.  Span
// args (node id, refactorisation count, cut round, ...) attach to the
// innermost open span via RRP_TRACE_ARG.
//
// Recording is off by default: a disabled recorder costs one relaxed
// atomic load per span site.  When enabled, closing a span appends one
// fixed-size record to the calling thread's ring buffer under that
// ring's own mutex (uncontended: one ring per thread); full rings drop
// the oldest records and count the drops.  Records are written at span
// *close*, so a ring never holds a child without having room for its
// parent later — wrap-around keeps the flushed trace properly nested.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "common/deadline.hpp"
#include "common/sync.hpp"

namespace rrp::obs {

/// Numeric key/value attached to a span ("node", 17).  Keys must be
/// string literals (stored by pointer).
struct SpanArg {
  const char* key = nullptr;
  double value = 0.0;
};

inline constexpr std::size_t kMaxSpanArgs = 4;

/// One closed span, as stored in a ring buffer.
struct SpanRecord {
  const char* name = nullptr;  ///< string literal
  double start_seconds = 0.0;
  double dur_seconds = 0.0;
  std::uint32_t tid = 0;    ///< recorder-assigned thread index
  std::uint32_t depth = 0;  ///< nesting depth at open (0 = top level)
  std::array<SpanArg, kMaxSpanArgs> args{};
  std::uint32_t num_args = 0;
};

namespace detail {

/// Per-thread span ring.  Shared ownership between the thread-local
/// handle (writer) and the recorder's flush list (reader), so records
/// survive thread exit until flushed.
class SpanRing {
 public:
  SpanRing(std::uint32_t tid, std::size_t capacity);

  void push(const SpanRecord& record) RRP_EXCLUDES(mu_);
  /// Appends this ring's records (oldest first) to `out`.
  void snapshot(std::vector<SpanRecord>& out) const RRP_EXCLUDES(mu_);
  void clear() RRP_EXCLUDES(mu_);
  std::uint64_t dropped() const RRP_EXCLUDES(mu_);
  std::uint32_t tid() const { return tid_; }

 private:
  const std::uint32_t tid_;
  mutable Mutex mu_;
  std::vector<SpanRecord> records_ RRP_GUARDED_BY(mu_);  // capacity fixed
  std::size_t next_ RRP_GUARDED_BY(mu_) = 0;   ///< write cursor
  std::size_t size_ RRP_GUARDED_BY(mu_) = 0;   ///< records held
  std::uint64_t dropped_ RRP_GUARDED_BY(mu_) = 0;
};

}  // namespace detail

class TraceSpan;

/// Process-wide span recorder: owns the per-thread rings and the clock.
class TraceRecorder {
 public:
  static TraceRecorder& instance();

  /// Start recording spans.  Sites check enabled() first, so flipping
  /// this is the only cost when tracing is off.
  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Injects a clock for deterministic tests; nullptr restores the
  /// process monotonic clock.  Call while no spans are open.
  void set_clock(const common::Clock* clock) {
    clock_.store(clock != nullptr ? clock : &common::real_clock(),
                 std::memory_order_relaxed);
  }

  double now_seconds() const {
    return clock_.load(std::memory_order_relaxed)->now_seconds();
  }

  /// Ring capacity (spans per thread) for rings created afterwards.
  void set_ring_capacity(std::size_t spans);

  /// All recorded spans across threads, oldest-first per thread.
  std::vector<SpanRecord> collect() const RRP_EXCLUDES(mu_);
  /// Total spans discarded to ring wrap-around.
  std::uint64_t dropped() const RRP_EXCLUDES(mu_);
  /// Drops every recorded span (rings stay registered).
  void clear() RRP_EXCLUDES(mu_);

  /// Writes the Chrome trace-event JSON ("X" complete events, ts/dur in
  /// microseconds) for everything recorded so far.
  void write_chrome_trace(std::ostream& out) const;

 private:
  friend class TraceSpan;

  TraceRecorder();

  /// The calling thread's ring, created and registered on first use.
  detail::SpanRing& local_ring() RRP_EXCLUDES(mu_);

  std::atomic<bool> enabled_{false};
  std::atomic<const common::Clock*> clock_;
  std::atomic<std::size_t> ring_capacity_{8192};
  mutable Mutex mu_;
  std::vector<std::shared_ptr<detail::SpanRing>> rings_ RRP_GUARDED_BY(mu_);
  std::uint32_t next_tid_ RRP_GUARDED_BY(mu_) = 0;
};

/// RAII scoped span; use through RRP_TRACE_SPAN / RRP_TRACE_ARG.
/// `name` must be a string literal.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a numeric arg to this span (ignored past kMaxSpanArgs).
  void arg(const char* key, double value) noexcept;

  /// Attaches an arg to the innermost open span on this thread, if any.
  static void current_arg(const char* key, double value) noexcept;

 private:
  bool active_ = false;
  TraceSpan* prev_open_ = nullptr;  ///< enclosing span on this thread
  SpanRecord record_;
};

}  // namespace rrp::obs
