#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "market/trace_generator.hpp"

namespace {

using namespace rrp::market;
namespace stats = rrp::stats;

TEST(SpotTrace, ConstructionValidatesInput) {
  EXPECT_THROW(SpotTrace(VmClass::C1Medium, {}), rrp::ContractViolation);
  std::vector<rrp::ts::Tick> unsorted = {{2.0, 0.1}, {1.0, 0.1}};
  EXPECT_THROW(SpotTrace(VmClass::C1Medium, unsorted),
               rrp::ContractViolation);
  std::vector<rrp::ts::Tick> nonpositive = {{0.0, 0.0}};
  EXPECT_THROW(SpotTrace(VmClass::C1Medium, nonpositive),
               rrp::ContractViolation);
}

TEST(SpotTrace, AccessorsAndHourlyConversion) {
  std::vector<rrp::ts::Tick> ticks = {{0.0, 0.05}, {2.5, 0.07}};
  const SpotTrace trace(VmClass::M1Large, ticks);
  EXPECT_EQ(trace.vm_class(), VmClass::M1Large);
  EXPECT_DOUBLE_EQ(trace.duration_hours(), 2.5);
  const auto h = trace.hourly(0, 5);
  ASSERT_EQ(h.size(), 5u);
  EXPECT_DOUBLE_EQ(h[2], 0.05);
  EXPECT_DOUBLE_EQ(h[3], 0.07);
}

/// A temp CSV path owned by the running test.  ctest runs every case in
/// a process of its own, several at once under -j, so a name shared by
/// cases would let one case read the file another is writing.
std::string test_csv_path() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string("rrp_trace_") + info->test_suite_name() +
                     "_" + info->name() + ".csv";
  std::replace(name.begin(), name.end(), '/', '_');
  return ::testing::TempDir() + name;
}

/// Writes `content` to a temp CSV, expects load_csv to throw an
/// InvalidArgument whose message contains `needle` (row/field naming).
void expect_load_fails(const std::string& content,
                       const std::string& needle) {
  const std::string path = test_csv_path();
  {
    std::ofstream out(path);
    out << content;
  }
  try {
    (void)SpotTrace::load_csv(path, VmClass::C1Medium);
    std::remove(path.c_str());
    FAIL() << "expected InvalidArgument mentioning \"" << needle << "\"";
  } catch (const rrp::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
  std::remove(path.c_str());
}

TEST(SpotTraceCsvHardening, RejectsShortRows) {
  expect_load_fails("time_hours,price\n1.0\n", "row 2");
}

TEST(SpotTraceCsvHardening, RejectsNonNumericFields) {
  // Row 1 with a non-numeric first field reads as a header (tolerated);
  // anywhere else it is an error naming the field.
  expect_load_fails("0.0,0.05\nabc,0.06\n", "time_hours is not numeric");
  expect_load_fails("1.0,cheap\n", "price is not numeric");
  expect_load_fails("0.0,0.05\n1.0x,0.06\n", "trailing characters");
}

TEST(SpotTraceCsvHardening, RejectsNanAndInfinitePrices) {
  expect_load_fails("0.0,nan\n", "price is NaN");
  expect_load_fails("0.0,inf\n", "price is not finite");
  expect_load_fails("nan,0.05\n", "time_hours is NaN");
}

TEST(SpotTraceCsvHardening, RejectsNonPositivePricesAndNegativeTimes) {
  expect_load_fails("0.0,0.0\n", "price must be positive");
  expect_load_fails("0.0,-0.1\n", "price must be positive");
  expect_load_fails("-1.0,0.05\n", "time_hours must be non-negative");
}

TEST(SpotTraceCsvHardening, RejectsUnsortedAndDuplicateTimestamps) {
  expect_load_fails("0.0,0.05\n2.0,0.06\n1.0,0.07\n", "precedes");
  expect_load_fails("0.0,0.05\n1.0,0.06\n1.0,0.07\n", "duplicates");
}

TEST(SpotTraceCsvHardening, RejectsUnknownEventLabels) {
  expect_load_fails("0.0,0.05,evicted\n", "event must be empty");
}

TEST(SpotTraceCsvHardening, RejectsEmptyFiles) {
  expect_load_fails("", "no data rows");
  expect_load_fails("time_hours,price\n", "no data rows");
}

TEST(SpotTraceCsvHardening, ErrorsNameRowAsInFile) {
  // Row numbering is 1-based and counts the header, matching what the
  // user sees in an editor.
  expect_load_fails("time_hours,price\n0.0,0.05\n1.0,bad\n", "row 3");
}

TEST(SpotTraceCsvHardening, AcceptsHeaderlessAndEventColumns) {
  const std::string path = test_csv_path();
  {
    std::ofstream out(path);
    out << "0.0,0.05\n1.5,0.06,revoke\n2.5,0.07,storm\n";
  }
  const SpotTrace t = SpotTrace::load_csv(path, VmClass::C1Medium);
  std::remove(path.c_str());
  ASSERT_EQ(t.ticks().size(), 3u);
  ASSERT_EQ(t.revocations().size(), 2u);
  EXPECT_FALSE(t.revocations()[0].storm);
  EXPECT_TRUE(t.revocations()[1].storm);
}

TEST(SpotTrace, CsvRoundTrip) {
  std::vector<rrp::ts::Tick> ticks = {{0.0, 0.051}, {1.25, 0.062},
                                      {7.5, 0.049}};
  const SpotTrace trace(VmClass::C1Medium, ticks);
  const std::string path = test_csv_path();
  trace.save_csv(path);
  const SpotTrace loaded = SpotTrace::load_csv(path, VmClass::C1Medium);
  ASSERT_EQ(loaded.ticks().size(), 3u);
  EXPECT_NEAR(loaded.ticks()[1].time_hours, 1.25, 1e-9);
  EXPECT_NEAR(loaded.ticks()[1].value, 0.062, 1e-9);
  std::remove(path.c_str());
}

class TraceGeneratorPerClass : public ::testing::TestWithParam<VmClass> {};

TEST_P(TraceGeneratorPerClass, CalibratedToPaperStatistics) {
  const VmClass vm = GetParam();
  const SpotTrace trace = generate_trace(vm, /*seed=*/2012);
  const auto prices = trace.prices();
  const VmClassInfo& ci = info(vm);

  // (1) Level: mean spot price well below on-demand, near the target.
  const double mean_price = stats::mean(prices);
  EXPECT_NEAR(mean_price, ci.on_demand_hourly * ci.spot_mean_ratio,
              0.15 * ci.on_demand_hourly * ci.spot_mean_ratio);
  EXPECT_LT(mean_price, 0.6 * ci.on_demand_hourly);

  // (2) Outliers: present but rare (< 3% of updates, Figure 3).
  const auto box = stats::box_summary(prices);
  EXPECT_GT(box.n_outliers, 0u);
  EXPECT_LT(box.outlier_fraction, 0.03);

  // (3) Enough history: the paper's window is ~507 days of updates.
  EXPECT_GT(trace.duration_hours(), 500.0 * 24.0 * 0.95);
  EXPECT_GT(prices.size(), 2000u);
}

INSTANTIATE_TEST_SUITE_P(AllClasses, TraceGeneratorPerClass,
                         ::testing::Values(VmClass::C1Medium,
                                           VmClass::M1Large,
                                           VmClass::M1Xlarge,
                                           VmClass::C1Xlarge));

TEST(TraceGenerator, DeterministicForSeed) {
  const SpotTrace a = generate_trace(VmClass::C1Medium, 7);
  const SpotTrace b = generate_trace(VmClass::C1Medium, 7);
  ASSERT_EQ(a.ticks().size(), b.ticks().size());
  for (std::size_t i = 0; i < a.ticks().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.ticks()[i].time_hours, b.ticks()[i].time_hours);
    EXPECT_DOUBLE_EQ(a.ticks()[i].value, b.ticks()[i].value);
  }
}

TEST(TraceGenerator, DifferentSeedsDiffer) {
  const SpotTrace a = generate_trace(VmClass::C1Medium, 1);
  const SpotTrace b = generate_trace(VmClass::C1Medium, 2);
  // Same structure, different realisation.
  EXPECT_NE(a.ticks().size(), b.ticks().size());
}

TEST(TraceGenerator, UpdateFrequencyVariesAcrossDays) {
  const SpotTrace trace = generate_trace(VmClass::C1Medium, 99);
  const auto counts = trace.daily_update_counts();
  ASSERT_GT(counts.size(), 400u);
  const auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
  // Figure 4 shows clear day-to-day variation, not a constant rate.
  EXPECT_GT(*mx, *mn + 5);
  const double avg = static_cast<double>(std::accumulate(
                         counts.begin(), counts.end(), std::size_t{0})) /
                     static_cast<double>(counts.size());
  EXPECT_GT(avg, 4.0);
  EXPECT_LT(avg, 30.0);
}

TEST(TraceGenerator, PricesAreQuantised) {
  const SpotTrace trace = generate_trace(VmClass::C1Medium, 5);
  for (const auto& t : trace.ticks()) {
    const double scaled = t.value / 0.001;
    EXPECT_NEAR(scaled, std::round(scaled), 1e-6);
  }
}

TEST(TraceGenerator, SpikesCanExceedOnDemand) {
  // Out-of-bid risk requires occasional prices above typical bids; with
  // the default config some spikes should reach beyond on-demand * 0.9.
  const SpotTrace trace = generate_trace(VmClass::M1Xlarge, 11);
  const double od = info(VmClass::M1Xlarge).on_demand_hourly;
  int high = 0;
  for (double p : trace.prices())
    if (p > 0.9 * od) ++high;
  EXPECT_GT(high, 0);
}

TEST(TraceGenerator, ConfigValidation) {
  rrp::Rng rng(1);
  TraceGeneratorConfig cfg = default_config(VmClass::C1Medium);
  cfg.days = 0.0;
  EXPECT_THROW(generate_trace(VmClass::C1Medium, cfg, rng),
               rrp::ContractViolation);
  cfg = default_config(VmClass::C1Medium);
  cfg.spike_min_factor = 0.5;
  EXPECT_THROW(generate_trace(VmClass::C1Medium, cfg, rng),
               rrp::ContractViolation);
}

TEST(TraceGenerator, HourlySeriesHasMildDailyCycle) {
  const SpotTrace trace = generate_trace(VmClass::C1Medium, 31);
  const auto hourly = trace.hourly(0, 24 * 400);
  // Average by phase: the daily sinusoid should produce a detectable
  // spread between the peak and trough phases.
  std::vector<double> phase_mean(24, 0.0);
  for (std::size_t t = 0; t < hourly.size(); ++t)
    phase_mean[t % 24] += hourly[t];
  for (auto& v : phase_mean) v /= static_cast<double>(hourly.size()) / 24.0;
  const auto [mn, mx] =
      std::minmax_element(phase_mean.begin(), phase_mean.end());
  EXPECT_GT(*mx - *mn, 0.0);
  EXPECT_LT((*mx - *mn) / stats::mean(hourly), 0.2);  // mild, not dominant
}

}  // namespace
