// Structured event log: the one sink for the discrete happenings that
// used to be ad-hoc telemetry vectors — rolling-horizon fallbacks
// (core::FallbackEvent), spot revocations and migrations, price-feed
// faults, LP recovery-ladder rungs.  Emission sites go through the
// RRP_OBS_EVENT macro (obs/obs.hpp); with no sink installed an
// emission costs one relaxed atomic load.
//
// The stock sink writes JSONL (one JSON object per line) — the
// --events-out CLI format — but anything implementing EventSink can be
// installed: an rrpd request handler would install a per-tenant buffer.
#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.hpp"
#include "common/sync.hpp"

namespace rrp::obs {

/// One key/value of an event payload; numeric or string.
struct EventField {
  EventField(const char* k, double v) : key(k), num(v) {}
  EventField(const char* k, std::uint64_t v)
      : key(k), num(static_cast<double>(v)) {}
  EventField(const char* k, int v) : key(k), num(v) {}
  EventField(const char* k, const char* v)
      : key(k), is_string(true), str(v) {}
  EventField(const char* k, std::string v)
      : key(k), is_string(true), str(std::move(v)) {}

  const char* key;
  bool is_string = false;
  double num = 0.0;
  std::string str;
};

/// One structured event.
struct Event {
  double ts_seconds = 0.0;
  const char* category = "";  ///< subsystem ("rh", "lp", "market", ...)
  const char* name = "";      ///< event kind ("fallback", "revocation", ...)
  std::vector<EventField> fields;
};

/// Where emitted events go.  Implementations serialise internally; the
/// log calls write() from whatever thread emitted.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void write(const Event& event) = 0;
};

/// JSONL file sink: {"ts":..., "cat":..., "event":..., <fields>} per line.
class JsonlFileSink final : public EventSink {
 public:
  explicit JsonlFileSink(const std::string& path);

  bool ok() const;
  void write(const Event& event) override RRP_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::ofstream out_ RRP_GUARDED_BY(mu_);
};

/// In-memory sink for tests.
class VectorSink final : public EventSink {
 public:
  void write(const Event& event) override RRP_EXCLUDES(mu_);
  std::vector<Event> events() const RRP_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::vector<Event> events_ RRP_GUARDED_BY(mu_);
};

/// Process-wide event log.  emit() is a no-op until a sink is installed.
class EventLog {
 public:
  static EventLog& instance();

  /// Installs (or, with nullptr, removes) the sink.
  void set_sink(std::shared_ptr<EventSink> sink) RRP_EXCLUDES(mu_);
  bool enabled() const noexcept {
    return has_sink_.load(std::memory_order_relaxed);
  }

  /// Injects a clock for deterministic tests; nullptr restores the
  /// process monotonic clock.
  void set_clock(const common::Clock* clock) {
    clock_.store(clock != nullptr ? clock : &common::real_clock(),
                 std::memory_order_relaxed);
  }

  void emit(const char* category, const char* name,
            std::initializer_list<EventField> fields) RRP_EXCLUDES(mu_);

 private:
  EventLog();

  std::atomic<bool> has_sink_{false};
  std::atomic<const common::Clock*> clock_;
  mutable Mutex mu_;
  std::shared_ptr<EventSink> sink_ RRP_GUARDED_BY(mu_);
};

/// Writes `event` as one JSONL line (the JsonlFileSink format); exposed
/// for tests and ad-hoc sinks.
std::string event_to_jsonl(const Event& event);

}  // namespace rrp::obs
