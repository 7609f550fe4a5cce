#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace {

namespace stats = rrp::stats;

TEST(Stats, MeanAndVariance) {
  std::vector<double> x = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(stats::mean(x), 5.0);
  EXPECT_NEAR(stats::variance(x), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(stats::stddev(x), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, MeanRequiresNonEmpty) {
  std::vector<double> empty;
  EXPECT_THROW(stats::mean(empty), rrp::ContractViolation);
}

TEST(Stats, VarianceRequiresTwoPoints) {
  std::vector<double> one = {1.0};
  EXPECT_THROW(stats::variance(one), rrp::ContractViolation);
}

TEST(Stats, QuantileMatchesRType7) {
  // Reference values computed with R: quantile(c(1,2,3,4), type=7).
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(stats::quantile(x, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::quantile(x, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(stats::quantile(x, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(stats::quantile(x, 0.75), 3.25);
  EXPECT_DOUBLE_EQ(stats::quantile(x, 1.0), 4.0);
}

// The re-plan latency percentile the CLI, fig4 and bench_replan_json
// printed before they called stats::quantile, kept verbatim as the
// reference: rank = pct / 100 * (n - 1), interpolated towards lo + 1.
double latency_percentile_reference(std::vector<double> sorted, double pct) {
  std::sort(sorted.begin(), sorted.end());
  const double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (rank - static_cast<double>(lo)) *
                          (sorted[hi] - sorted[lo]);
}

TEST(Stats, QuantileIsBitIdenticalToTheLatencyPercentile) {
  // Latency-like samples (seconds, skewed, with ties) of every length a
  // re-plan run produces, at the printed p50/p95 and a sweep of others.
  rrp::Rng rng(4096);
  for (std::size_t n = 1; n <= 80; ++n) {
    std::vector<double> x(n);
    for (double& v : x) v = 1e-5 * std::floor(rng.exponential(0.5) * 64.0);
    for (int pct = 0; pct <= 100; ++pct) {
      const double p = static_cast<double>(pct);
      const double want = latency_percentile_reference(x, p);
      const double got = stats::quantile(x, p / 100.0);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "n " << n << ", pct " << pct;
    }
    // The CLI and benches pass the literals 0.50 and 0.95.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(stats::quantile(x, 0.50)),
              std::bit_cast<std::uint64_t>(
                  latency_percentile_reference(x, 50.0)));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(stats::quantile(x, 0.95)),
              std::bit_cast<std::uint64_t>(
                  latency_percentile_reference(x, 95.0)));
  }
}

TEST(Stats, QuantileUnsortedInput) {
  std::vector<double> x = {9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(stats::median(x), 5.0);
}

TEST(Stats, SkewnessSignsAreCorrect) {
  std::vector<double> right = {1, 1, 1, 2, 2, 3, 8, 20};
  std::vector<double> left = {-20, -8, -3, -2, -2, -1, -1, -1};
  EXPECT_GT(stats::skewness(right), 0.0);
  EXPECT_LT(stats::skewness(left), 0.0);
}

TEST(Stats, KurtosisOfNormalNearZero) {
  rrp::Rng rng(21);
  std::vector<double> xs(100000);
  for (auto& x : xs) x = rng.normal();
  EXPECT_NEAR(stats::excess_kurtosis(xs), 0.0, 0.1);
}

TEST(Stats, BoxSummaryBasics) {
  std::vector<double> x = {1, 2, 3, 4, 5, 6, 7, 8, 9, 100};
  const auto b = stats::box_summary(x);
  EXPECT_DOUBLE_EQ(b.min, 1.0);
  EXPECT_DOUBLE_EQ(b.max, 100.0);
  EXPECT_DOUBLE_EQ(b.q1, 3.25);
  EXPECT_DOUBLE_EQ(b.q3, 7.75);
  EXPECT_NEAR(b.iqr, 4.5, 1e-12);
  EXPECT_EQ(b.n_outliers, 1u);  // the 100
  EXPECT_NEAR(b.outlier_fraction, 0.1, 1e-12);
}

TEST(Stats, BoxSummaryNoOutliersInTightData) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  EXPECT_EQ(stats::box_summary(x).n_outliers, 0u);
}

TEST(Stats, TrimOutliersRemovesExactlyFlaggedPoints) {
  std::vector<double> x = {1, 2, 3, 4, 5, 6, 7, 8, 9, 100, -50};
  const auto b = stats::box_summary(x);
  const auto trimmed = stats::trim_outliers(x);
  EXPECT_EQ(trimmed.size(), x.size() - b.n_outliers);
  for (double v : trimmed) {
    EXPECT_GE(v, b.lower_fence);
    EXPECT_LE(v, b.upper_fence);
  }
}

TEST(Stats, HistogramCountsAndClamping) {
  std::vector<double> x = {0.1, 0.2, 0.5, 0.9, -1.0, 2.0};
  const auto h = stats::histogram(x, 0.0, 1.0, 4);
  EXPECT_EQ(h.total(), x.size());
  EXPECT_EQ(h.counts[0], 2u + 1u);  // 0.1, 0.2 and clamped -1.0
  EXPECT_EQ(h.counts[3], 1u + 1u);  // 0.9 and clamped 2.0
  EXPECT_NEAR(h.bin_width(), 0.25, 1e-12);
  EXPECT_NEAR(h.bin_center(0), 0.125, 1e-12);
}

TEST(Stats, HistogramAutoRangeDegenerate) {
  std::vector<double> x = {3.0, 3.0, 3.0};
  const auto h = stats::histogram(x, 5);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Stats, KdeIntegratesToRoughlyOne) {
  rrp::Rng rng(22);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = rng.normal(0.0, 1.0);
  std::vector<double> grid;
  for (double g = -5.0; g <= 5.0; g += 0.05) grid.push_back(g);
  const auto dens = stats::kde(xs, grid);
  double integral = 0.0;
  for (double d : dens) integral += d * 0.05;
  EXPECT_NEAR(integral, 1.0, 0.03);
}

TEST(Stats, KdePeaksNearMode) {
  rrp::Rng rng(23);
  std::vector<double> xs(5000);
  for (auto& x : xs) x = rng.normal(2.0, 0.5);
  std::vector<double> grid = {0.0, 2.0, 4.0};
  const auto dens = stats::kde(xs, grid);
  EXPECT_GT(dens[1], dens[0]);
  EXPECT_GT(dens[1], dens[2]);
}

TEST(Stats, PearsonCorrelationExtremes) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  std::vector<double> z = {10, 8, 6, 4, 2};
  EXPECT_NEAR(stats::pearson_correlation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(stats::pearson_correlation(x, z), -1.0, 1e-12);
}

TEST(Stats, MseBasics) {
  std::vector<double> a = {1.0, 2.0, 3.0};
  std::vector<double> b = {1.0, 3.0, 5.0};
  EXPECT_NEAR(stats::mse(a, b), (0.0 + 1.0 + 4.0) / 3.0, 1e-12);
}

TEST(Stats, MseRequiresEqualSizes) {
  std::vector<double> a = {1.0};
  std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW(stats::mse(a, b), rrp::ContractViolation);
}

}  // namespace
