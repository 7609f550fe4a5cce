// Observability layer: registry correctness (counters, gauges,
// histograms, scrape), trace spans (FakeClock durations, nesting,
// thread attribution, Chrome JSON), structured events, and the
// instrumentation macros.  The concurrent tests double as the TSan
// targets (the CI tsan job runs -R "...|Obs").
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"

namespace {

using namespace rrp;

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(ObsCounter, AddAndValue) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsCounter, RegistryReturnsStableReference) {
  obs::Counter& a = obs::global_registry().counter("test.obs.stable");
  obs::Counter& b = obs::global_registry().counter("test.obs.stable");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(ObsGauge, SetAddValue) {
  obs::Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(0.75);
  EXPECT_DOUBLE_EQ(g.value(), 3.25);
  g.set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(ObsHistogram, BucketPlacementAndOverflow) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // bucket 0 (<= 1)
  h.observe(1.0);   // bucket 0 (inclusive upper bound)
  h.observe(3.0);   // bucket 2
  h.observe(100.0); // overflow
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 0u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
}

TEST(ObsHistogram, FirstRegistrationFixesBounds) {
  obs::Histogram& a =
      obs::global_registry().histogram("test.obs.hist.bounds", {1.0, 2.0});
  obs::Histogram& b =
      obs::global_registry().histogram("test.obs.hist.bounds", {9.0});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.upper_bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(ObsSnapshot, LookupsAndMissingMetrics) {
  obs::global_registry().counter("test.obs.snap.counter").add(7);
  obs::global_registry().gauge("test.obs.snap.gauge").set(1.5);
  const obs::MetricsSnapshot snap = obs::global_registry().scrape();
  EXPECT_EQ(snap.counter("test.obs.snap.counter"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauge("test.obs.snap.gauge"), 1.5);
  EXPECT_EQ(snap.counter("test.obs.snap.never_registered"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge("test.obs.snap.never_registered"), 0.0);
}

TEST(ObsSnapshot, TextAndJsonFormats) {
  obs::global_registry().counter("test.obs.fmt.counter").add(3);
  obs::global_registry()
      .histogram("test.obs.fmt.hist", {1.0})
      .observe(0.5);
  const obs::MetricsSnapshot snap = obs::global_registry().scrape();
  const std::string text = snap.to_text();
  EXPECT_NE(text.find("test.obs.fmt.counter 3"), std::string::npos);
  EXPECT_NE(text.find("test.obs.fmt.hist_count"), std::string::npos);
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.fmt.counter\":3"), std::string::npos);
  // Balanced braces — cheap structural sanity without a JSON parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// Every scrape line names one series, so the registry refuses a name
// that another metric's lines already use.
TEST(ObsRegistry, RejectsANameRegisteredAsAnotherKind) {
  auto& registry = obs::global_registry();
  registry.counter("test.obs.kind.counter");
  registry.gauge("test.obs.kind.gauge");
  registry.histogram("test.obs.kind.hist", {1.0});
  EXPECT_THROW(registry.gauge("test.obs.kind.counter"), InvalidArgument);
  EXPECT_THROW(registry.histogram("test.obs.kind.counter", {1.0}),
               InvalidArgument);
  EXPECT_THROW(registry.counter("test.obs.kind.gauge"), InvalidArgument);
  EXPECT_THROW(registry.histogram("test.obs.kind.gauge", {1.0}),
               InvalidArgument);
  EXPECT_THROW(registry.counter("test.obs.kind.hist"), InvalidArgument);
  EXPECT_THROW(registry.gauge("test.obs.kind.hist"), InvalidArgument);
  // Same name, same kind: the existing metric.
  EXPECT_EQ(&registry.counter("test.obs.kind.counter"),
            &registry.counter("test.obs.kind.counter"));
}

TEST(ObsRegistry, RejectsACounterOrGaugeNamedLikeAHistogramSeries) {
  auto& registry = obs::global_registry();
  registry.histogram("test.obs.series.hist", {1.0});
  for (const char* suffix : {"_count", "_sum", "_bucket"}) {
    const std::string name = std::string("test.obs.series.hist") + suffix;
    EXPECT_THROW(registry.counter(name), InvalidArgument) << name;
    EXPECT_THROW(registry.gauge(name), InvalidArgument) << name;
  }
  // A name that merely starts like a series is fine.
  registry.counter("test.obs.series.hist_total");
}

TEST(ObsRegistry, RejectsAHistogramWhoseSeriesNamesAreTaken) {
  auto& registry = obs::global_registry();
  registry.counter("test.obs.clash.a_sum");
  registry.gauge("test.obs.clash.b_count");
  registry.gauge("test.obs.clash.c_bucket");
  EXPECT_THROW(registry.histogram("test.obs.clash.a", {1.0}),
               InvalidArgument);
  EXPECT_THROW(registry.histogram("test.obs.clash.b", {1.0}),
               InvalidArgument);
  EXPECT_THROW(registry.histogram("test.obs.clash.c", {1.0}),
               InvalidArgument);
  const std::string text = registry.scrape().to_text();
  EXPECT_EQ(text.find("test.obs.clash.a_count"), std::string::npos);
}

// TSan target: concurrent sharded increments with scrapes in flight
// must be race-free, and the final sum exact.
TEST(ObsRegistry, ConcurrentIncrementsAndScrapes) {
  obs::Counter& c =
      obs::global_registry().counter("test.obs.concurrent.counter");
  obs::Gauge& g = obs::global_registry().gauge("test.obs.concurrent.gauge");
  const std::uint64_t before = c.value();
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = obs::global_registry().scrape();
      (void)snap.counter("test.obs.concurrent.counter");
    }
  });
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        c.add(1);
        g.add(0.5);
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  EXPECT_EQ(c.value() - before,
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

// ---------------------------------------------------------------------------
// Trace spans.
// ---------------------------------------------------------------------------

/// Enables tracing with a FakeClock for one test, restoring the
/// recorder's defaults on exit so tests stay independent.
class TracingFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& rec = obs::TraceRecorder::instance();
    rec.clear();
    rec.set_clock(&clock_);
    rec.enable();
  }
  void TearDown() override {
    auto& rec = obs::TraceRecorder::instance();
    rec.disable();
    rec.set_clock(nullptr);
    rec.clear();
  }

  common::FakeClock clock_;
};

using ObsTraceSpan = TracingFixture;

TEST_F(ObsTraceSpan, FakeClockDrivesDurations) {
  clock_.set(10.0);
  {
    obs::TraceSpan span("test.span");
    clock_.set(12.5);
  }
  const auto spans = obs::TraceRecorder::instance().collect();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "test.span");
  EXPECT_DOUBLE_EQ(spans[0].start_seconds, 10.0);
  EXPECT_DOUBLE_EQ(spans[0].dur_seconds, 2.5);
  EXPECT_EQ(spans[0].depth, 0u);
}

TEST_F(ObsTraceSpan, NestingDepthAndCloseOrder) {
  {
    obs::TraceSpan outer("outer");
    {
      obs::TraceSpan inner("inner");
      clock_.advance(1.0);
    }
    clock_.advance(1.0);
  }
  const auto spans = obs::TraceRecorder::instance().collect();
  ASSERT_EQ(spans.size(), 2u);
  // Records are written at close: inner first.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].depth, 0u);
  EXPECT_GE(spans[1].dur_seconds, spans[0].dur_seconds);
}

TEST_F(ObsTraceSpan, ArgsAttachToInnermostSpan) {
  {
    obs::TraceSpan outer("outer");
    outer.arg("direct", 1.0);
    {
      obs::TraceSpan inner("inner");
      obs::TraceSpan::current_arg("node", 17.0);
    }
  }
  const auto spans = obs::TraceRecorder::instance().collect();
  ASSERT_EQ(spans.size(), 2u);
  ASSERT_EQ(spans[0].num_args, 1u);  // inner
  EXPECT_STREQ(spans[0].args[0].key, "node");
  EXPECT_DOUBLE_EQ(spans[0].args[0].value, 17.0);
  ASSERT_EQ(spans[1].num_args, 1u);  // outer
  EXPECT_STREQ(spans[1].args[0].key, "direct");
}

TEST_F(ObsTraceSpan, ThreadsGetDistinctTids) {
  {
    obs::TraceSpan span("main.thread");
  }
  std::thread worker([] {
    obs::TraceSpan span("other.thread");
  });
  worker.join();
  auto spans = obs::TraceRecorder::instance().collect();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].tid, spans[1].tid);
}

TEST_F(ObsTraceSpan, DisabledRecorderRecordsNothing) {
  obs::TraceRecorder::instance().disable();
  {
    obs::TraceSpan span("ignored");
  }
  EXPECT_TRUE(obs::TraceRecorder::instance().collect().empty());
}

TEST_F(ObsTraceSpan, ChromeTraceJsonShape) {
  clock_.set(1.0);
  {
    obs::TraceSpan span("bnb.node");
    span.arg("node", 3.0);
    clock_.set(1.5);
  }
  std::ostringstream out;
  obs::TraceRecorder::instance().write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_NE(json.find("\"name\":\"bnb.node\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":500000"), std::string::npos);  // 0.5 s in us
  EXPECT_NE(json.find("\"args\":{\"node\":3"), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
}

// TSan target: spans opened/closed on many threads while a collector
// snapshots the rings.
TEST_F(ObsTraceSpan, ConcurrentSpansAndCollect) {
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 200;
  std::atomic<bool> stop{false};
  std::thread collector([&] {
    while (!stop.load(std::memory_order_relaxed))
      (void)obs::TraceRecorder::instance().collect();
  });
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::TraceSpan span("stress");
        obs::TraceSpan::current_arg("i", static_cast<double>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  collector.join();
  EXPECT_EQ(obs::TraceRecorder::instance().collect().size(),
            static_cast<std::size_t>(kThreads) * kSpansPerThread);
}

// ---------------------------------------------------------------------------
// Structured events.
// ---------------------------------------------------------------------------

/// Installs a VectorSink (and FakeClock) for one test; removes both on
/// exit.
class EventFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    sink_ = std::make_shared<obs::VectorSink>();
    obs::EventLog::instance().set_clock(&clock_);
    obs::EventLog::instance().set_sink(sink_);
  }
  void TearDown() override {
    obs::EventLog::instance().set_sink(nullptr);
    obs::EventLog::instance().set_clock(nullptr);
  }

  common::FakeClock clock_;
  std::shared_ptr<obs::VectorSink> sink_;
};

using ObsEvents = EventFixture;

TEST_F(ObsEvents, EmitCapturesFieldsAndTimestamp) {
  clock_.set(42.0);
  obs::EventLog::instance().emit(
      "rh", "fallback",
      {{"slot", std::uint64_t{7}}, {"reason", "timeout"}, {"used", 1.5}});
  const auto events = sink_->events();
  ASSERT_EQ(events.size(), 1u);
  const obs::Event& e = events[0];
  EXPECT_DOUBLE_EQ(e.ts_seconds, 42.0);
  EXPECT_STREQ(e.category, "rh");
  EXPECT_STREQ(e.name, "fallback");
  ASSERT_EQ(e.fields.size(), 3u);
  EXPECT_STREQ(e.fields[0].key, "slot");
  EXPECT_DOUBLE_EQ(e.fields[0].num, 7.0);
  EXPECT_TRUE(e.fields[1].is_string);
  EXPECT_EQ(e.fields[1].str, "timeout");
  EXPECT_DOUBLE_EQ(e.fields[2].num, 1.5);
}

TEST_F(ObsEvents, NoSinkMeansDisabledAndDropped) {
  obs::EventLog::instance().set_sink(nullptr);
  EXPECT_FALSE(obs::EventLog::instance().enabled());
  obs::EventLog::instance().emit("x", "dropped", {});
  EXPECT_TRUE(sink_->events().empty());
}

TEST_F(ObsEvents, JsonlLineFormatAndEscaping) {
  obs::Event e;
  e.ts_seconds = 1.25;
  e.category = "lp";
  e.name = "recovery";
  e.fields.push_back({"rung", 2});
  e.fields.push_back({"ladder", std::string("say \"hi\"\n")});
  EXPECT_EQ(obs::event_to_jsonl(e),
            "{\"ts\":1.25,\"cat\":\"lp\",\"event\":\"recovery\","
            "\"rung\":2,\"ladder\":\"say \\\"hi\\\"\\n\"}");
}

// TSan target: concurrent emitters against one sink.
TEST_F(ObsEvents, ConcurrentEmitters) {
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 500;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kEventsPerThread; ++i)
        obs::EventLog::instance().emit("stress", "tick", {{"i", i}});
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(sink_->events().size(),
            static_cast<std::size_t>(kThreads) * kEventsPerThread);
}

// ---------------------------------------------------------------------------
// Macros.
// ---------------------------------------------------------------------------

TEST(ObsMacros, FeedTheGlobalRegistry) {
  RRP_COUNTER_ADD("test.obs.macro.counter", 2);
  RRP_COUNTER_ADD("test.obs.macro.counter", 3);
  RRP_GAUGE_SET("test.obs.macro.gauge", 9.5);
  RRP_HISTOGRAM_OBSERVE("test.obs.macro.hist", 1.5, {1.0, 2.0});
  const auto snap = obs::global_registry().scrape();
  EXPECT_EQ(snap.counter("test.obs.macro.counter"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauge("test.obs.macro.gauge"), 9.5);
}

}  // namespace
