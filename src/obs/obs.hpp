// Umbrella header for the observability layer: instrumentation macros
// over obs/registry.hpp, obs/trace.hpp and obs/events.hpp — registry
// updates, scoped trace spans, structured events.
//
// Scrapes (--metrics-out, the bench JSON) talk to the registry
// directly.
//
// Macro site cost:
//   RRP_COUNTER_ADD    one relaxed fetch_add on a thread-sharded cell
//                      (the registry lookup runs once per site, cached
//                      in a function-local static reference);
//   RRP_GAUGE_SET      one relaxed store;
//   RRP_HISTOGRAM_OBSERVE
//                      bucket scan (few bounds) + two relaxed adds;
//   RRP_TRACE_SPAN     one relaxed load when tracing is disabled; two
//                      Clock reads and one ring append when enabled;
//   RRP_OBS_EVENT      one relaxed load when no sink is installed.
#pragma once

#include "obs/events.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

/// Adds `n` to the named process-wide counter.  `name` must be a string
/// literal (one registry lookup per site, then cached).
#define RRP_COUNTER_ADD(name, n)                               \
  do {                                                         \
    static ::rrp::obs::Counter& rrp_obs_counter_site =         \
        ::rrp::obs::global_registry().counter(name);           \
    rrp_obs_counter_site.add(static_cast<std::uint64_t>(n));   \
  } while (false)

/// Sets the named gauge to `v`.
#define RRP_GAUGE_SET(name, v)                             \
  do {                                                     \
    static ::rrp::obs::Gauge& rrp_obs_gauge_site =         \
        ::rrp::obs::global_registry().gauge(name);         \
    rrp_obs_gauge_site.set(static_cast<double>(v));        \
  } while (false)

/// Observes `v` in the named histogram; `bounds_init` is a braced list
/// of upper bounds used on first registration, e.g.
/// RRP_HISTOGRAM_OBSERVE("lp.eta_fill", fill, {1.0, 2.0, 4.0, 8.0}).
#define RRP_HISTOGRAM_OBSERVE(name, v, ...)                        \
  do {                                                             \
    static ::rrp::obs::Histogram& rrp_obs_histogram_site =         \
        ::rrp::obs::global_registry().histogram(name, __VA_ARGS__);\
    rrp_obs_histogram_site.observe(static_cast<double>(v));        \
  } while (false)

#define RRP_OBS_CONCAT_INNER_(a, b) a##b
#define RRP_OBS_CONCAT_(a, b) RRP_OBS_CONCAT_INNER_(a, b)

/// Opens a scoped trace span covering the rest of the enclosing block.
/// `name` must be a string literal.
#define RRP_TRACE_SPAN(name) \
  ::rrp::obs::TraceSpan RRP_OBS_CONCAT_(rrp_obs_span_, __COUNTER__)(name)

/// Attaches a numeric arg to the innermost open span on this thread.
#define RRP_TRACE_ARG(key, v) \
  ::rrp::obs::TraceSpan::current_arg(key, static_cast<double>(v))

/// Emits a structured event: RRP_OBS_EVENT("rh", "fallback",
/// {{"slot", t}, {"reason", to_string(r)}}).  The variadic passthrough
/// keeps the braced field list intact through the macro.
#define RRP_OBS_EVENT(...) \
  ::rrp::obs::EventLog::instance().emit(__VA_ARGS__)
