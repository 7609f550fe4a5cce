#include "timeseries/arima.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "market/trace_generator.hpp"
#include "obs/registry.hpp"
#include "timeseries/acf.hpp"
#include "timeseries/series.hpp"

namespace {

using namespace rrp::ts;

std::vector<double> simulate_arma(std::span<const double> phi,
                                  std::span<const double> theta,
                                  double mean, double sd, std::size_t n,
                                  std::uint64_t seed) {
  rrp::Rng rng(seed);
  std::vector<double> x(n, mean), e(n, 0.0);
  for (std::size_t t = 0; t < n; ++t) {
    e[t] = rng.normal(0.0, sd);
    double v = e[t];
    for (std::size_t l = 0; l < phi.size(); ++l)
      if (t > l) v += phi[l] * (x[t - 1 - l] - mean);
    for (std::size_t l = 0; l < theta.size(); ++l)
      if (t > l) v += theta[l] * e[t - 1 - l];
    x[t] = mean + v;
  }
  return x;
}

TEST(ExpandPoly, PureNonseasonalArPassesThrough) {
  std::vector<double> phi = {0.5, -0.2};
  const auto full = expand_ar(phi, {}, 0);
  ASSERT_EQ(full.size(), 2u);
  EXPECT_DOUBLE_EQ(full[0], 0.5);
  EXPECT_DOUBLE_EQ(full[1], -0.2);
}

TEST(ExpandPoly, SeasonalArCrossTerms) {
  // (1 - 0.5B)(1 - 0.4B^4) = 1 - 0.5B - 0.4B^4 + 0.2B^5.
  std::vector<double> phi = {0.5};
  std::vector<double> sphi = {0.4};
  const auto full = expand_ar(phi, sphi, 4);
  ASSERT_EQ(full.size(), 5u);
  EXPECT_DOUBLE_EQ(full[0], 0.5);
  EXPECT_DOUBLE_EQ(full[1], 0.0);
  EXPECT_DOUBLE_EQ(full[3], 0.4);
  EXPECT_DOUBLE_EQ(full[4], -0.2);
}

TEST(ExpandPoly, SeasonalMaCrossTerms) {
  // (1 + 0.3B)(1 + 0.6B^2) = 1 + 0.3B + 0.6B^2 + 0.18B^3.
  std::vector<double> theta = {0.3};
  std::vector<double> stheta = {0.6};
  const auto full = expand_ma(theta, stheta, 2);
  ASSERT_EQ(full.size(), 3u);
  EXPECT_DOUBLE_EQ(full[0], 0.3);
  EXPECT_DOUBLE_EQ(full[1], 0.6);
  EXPECT_NEAR(full[2], 0.18, 1e-12);
}

TEST(CssResiduals, PureArResidualsRecoverNoise) {
  std::vector<double> phi = {0.7};
  const auto x = simulate_arma(phi, {}, 0.0, 1.0, 500, 71);
  const auto e = css_residuals(x, phi, {});
  // Residual variance should be close to the innovation variance 1.
  std::vector<double> tail(e.begin() + 10, e.end());
  EXPECT_NEAR(rrp::stats::variance(tail), 1.0, 0.2);
}

TEST(FitSarima, RecoversAr1Coefficient) {
  std::vector<double> phi = {0.7};
  const auto x = simulate_arma(phi, {}, 5.0, 1.0, 3000, 72);
  SarimaOrder order;
  order.p = 1;
  const auto m = fit_sarima(x, order);
  ASSERT_EQ(m.phi.size(), 1u);
  EXPECT_NEAR(m.phi[0], 0.7, 0.07);
  EXPECT_TRUE(m.has_mean);
  EXPECT_NEAR(m.mean, 5.0, 0.3);
  EXPECT_NEAR(m.sigma2, 1.0, 0.15);
}

TEST(FitSarima, RecoversAr2Coefficients) {
  std::vector<double> phi = {0.5, 0.3};
  const auto x = simulate_arma(phi, {}, 0.0, 1.0, 4000, 73);
  SarimaOrder order;
  order.p = 2;
  const auto m = fit_sarima(x, order);
  EXPECT_NEAR(m.phi[0], 0.5, 0.08);
  EXPECT_NEAR(m.phi[1], 0.3, 0.08);
}

TEST(FitSarima, RecoversMa1Coefficient) {
  std::vector<double> theta = {0.6};
  const auto x = simulate_arma({}, theta, 0.0, 1.0, 4000, 74);
  SarimaOrder order;
  order.q = 1;
  const auto m = fit_sarima(x, order);
  EXPECT_NEAR(m.theta[0], 0.6, 0.1);
}

TEST(FitSarima, FittedArIsStationaryEvenOnHardData) {
  // A near-random-walk series: the constrained parametrisation must
  // return |phi| < 1.
  rrp::Rng rng(75);
  std::vector<double> x(800, 0.0);
  for (std::size_t t = 1; t < x.size(); ++t)
    x[t] = 0.999 * x[t - 1] + rng.normal(0.0, 0.01);
  SarimaOrder order;
  order.p = 1;
  SarimaFitOptions opt;
  opt.mean = SarimaFitOptions::Mean::Exclude;
  const auto m = fit_sarima(x, order, opt);
  EXPECT_LT(std::fabs(m.phi[0]), 1.0);
}

TEST(FitSarima, InformationCriteriaOrdering) {
  const std::vector<double> phi_in = {0.5};
  const auto x = simulate_arma(phi_in, {}, 0.0, 1.0, 500, 76);
  SarimaOrder order;
  order.p = 1;
  const auto m = fit_sarima(x, order);
  EXPECT_GT(m.aicc, m.aic);        // finite-sample correction adds
  EXPECT_GT(m.bic, m.aic);         // log(n) > 2 for n >= 8
  EXPECT_LT(m.log_likelihood, 0.0);
}

TEST(FitSarima, DifferencedModelExcludesMeanByDefault) {
  rrp::Rng rng(77);
  std::vector<double> x(300, 0.0);
  for (std::size_t t = 1; t < x.size(); ++t)
    x[t] = x[t - 1] + rng.normal(0.1, 1.0);  // drifting random walk
  SarimaOrder order;
  order.p = 1;
  order.d = 1;
  const auto m = fit_sarima(x, order);
  EXPECT_FALSE(m.has_mean);
  EXPECT_DOUBLE_EQ(m.mean, 0.0);
}

TEST(FitSarima, RejectsTooShortSeries) {
  std::vector<double> x = {1.0, 2.0, 1.5};
  SarimaOrder order;
  order.p = 2;
  EXPECT_THROW(fit_sarima(x, order), rrp::ContractViolation);
}

TEST(Forecast, Ar1ForecastDecaysTowardMean) {
  std::vector<double> phi = {0.8};
  const auto x = simulate_arma(phi, {}, 10.0, 0.5, 2000, 78);
  SarimaOrder order;
  order.p = 1;
  const auto m = fit_sarima(x, order);
  const auto f = forecast(m, x, 50);
  ASSERT_EQ(f.size(), 50u);
  // Far-horizon forecasts approach the estimated process mean.
  EXPECT_NEAR(f.back(), m.mean, 0.2);
  // Successive forecasts contract toward the mean monotonically.
  const double d0 = std::fabs(f[0] - m.mean);
  const double d10 = std::fabs(f[10] - m.mean);
  EXPECT_LE(d10, d0 + 1e-9);
}

TEST(Forecast, RandomWalkForecastIsFlat) {
  rrp::Rng rng(79);
  std::vector<double> x(500, 0.0);
  for (std::size_t t = 1; t < x.size(); ++t)
    x[t] = x[t - 1] + rng.normal(0.0, 1.0);
  SarimaOrder order;  // ARIMA(0,1,0): pure random walk
  order.d = 1;
  order.p = 1;        // with a near-zero AR term on the differences
  const auto m = fit_sarima(x, order);
  const auto f = forecast(m, x, 10);
  for (double v : f) EXPECT_NEAR(v, x.back(), 1.5);
}

TEST(Forecast, SeasonalModelRepeatsPattern) {
  // Strongly seasonal series with period 12 and seasonal AR.
  rrp::Rng rng(80);
  const std::size_t s = 12;
  std::vector<double> x(1200);
  for (std::size_t t = 0; t < x.size(); ++t) {
    x[t] = 3.0 * std::sin(2.0 * M_PI * static_cast<double>(t % s) /
                          static_cast<double>(s)) +
           rng.normal(0.0, 0.2);
  }
  SarimaOrder order;
  order.P = 1;
  order.s = s;
  const auto m = fit_sarima(x, order);
  const auto f = forecast(m, x, s);
  // The forecast should correlate strongly with the true seasonal shape.
  std::vector<double> truth(s);
  for (std::size_t i = 0; i < s; ++i) {
    truth[i] = 3.0 * std::sin(2.0 * M_PI *
                              static_cast<double>((x.size() + i) % s) /
                              static_cast<double>(s));
  }
  EXPECT_GT(rrp::stats::pearson_correlation(f, truth), 0.8);
}

TEST(Forecast, MeanForecastBaseline) {
  std::vector<double> x = {1.0, 2.0, 3.0};
  const auto f = mean_forecast(x, 4);
  ASSERT_EQ(f.size(), 4u);
  for (double v : f) EXPECT_DOUBLE_EQ(v, 2.0);
}

TEST(Forecast, BeatsOrMatchesMeanBaselineInSample) {
  // On an AR(1) with strong dependence, model forecasts must beat the
  // mean predictor on one-step holdout MSE.
  std::vector<double> phi = {0.9};
  const auto x = simulate_arma(phi, {}, 0.0, 1.0, 2100, 81);
  std::vector<double> train(x.begin(), x.end() - 100);
  SarimaOrder order;
  order.p = 1;
  const auto m = fit_sarima(train, order);

  std::vector<double> model_pred, mean_pred, actual;
  std::vector<double> hist = train;
  for (std::size_t i = 0; i < 100; ++i) {
    model_pred.push_back(forecast(m, hist, 1)[0]);
    mean_pred.push_back(mean_forecast(hist, 1)[0]);
    actual.push_back(x[train.size() + i]);
    hist.push_back(actual.back());
  }
  EXPECT_LT(rrp::stats::mse(actual, model_pred),
            rrp::stats::mse(actual, mean_pred));
}

}  // namespace

// -- Prediction intervals ------------------------------------------------

namespace {

using namespace rrp::ts;

TEST(PsiWeights, Ar1GeometricDecay) {
  SarimaModel m;
  m.order.p = 1;
  m.phi = {0.6};
  m.ar_full = expand_ar(m.phi, {}, 0);
  m.sigma2 = 1.0;
  const auto psi = psi_weights(m, 6);
  for (std::size_t j = 0; j < 6; ++j)
    EXPECT_NEAR(psi[j], std::pow(0.6, static_cast<double>(j)), 1e-12);
}

TEST(PsiWeights, Ma1Truncates) {
  SarimaModel m;
  m.order.q = 1;
  m.theta = {0.4};
  m.ma_full = expand_ma(m.theta, {}, 0);
  const auto psi = psi_weights(m, 5);
  EXPECT_DOUBLE_EQ(psi[0], 1.0);
  EXPECT_DOUBLE_EQ(psi[1], 0.4);
  for (std::size_t j = 2; j < 5; ++j) EXPECT_DOUBLE_EQ(psi[j], 0.0);
}

TEST(PsiWeights, RandomWalkWeightsAreOne) {
  SarimaModel m;
  m.order.d = 1;
  const auto psi = psi_weights(m, 5);
  for (double v : psi) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(ForecastInterval, WidthsGrowWithHorizon) {
  std::vector<double> phi = {0.7};
  const auto x = simulate_arma(phi, {}, 0.0, 1.0, 2000, 211);
  SarimaOrder order;
  order.p = 1;
  const auto m = fit_sarima(x, order);
  const auto fi = forecast_interval(m, x, 12);
  double prev = 0.0;
  for (std::size_t step = 0; step < 12; ++step) {
    const double width = fi.upper[step] - fi.lower[step];
    EXPECT_GE(width, prev - 1e-9);
    EXPECT_GT(width, 0.0);
    prev = width;
  }
}

TEST(ForecastInterval, Ar1VarianceMatchesTheory) {
  std::vector<double> phi = {0.8};
  const auto x = simulate_arma(phi, {}, 0.0, 1.0, 5000, 212);
  SarimaOrder order;
  order.p = 1;
  const auto m = fit_sarima(x, order);
  const auto fi = forecast_interval(m, x, 10, 0.95);
  const double z = 1.959963984540054;
  const double fitted_phi = m.phi[0];
  for (std::size_t step = 0; step < 10; ++step) {
    const double hd = static_cast<double>(step + 1);
    const double var = m.sigma2 *
                       (1.0 - std::pow(fitted_phi, 2.0 * hd)) /
                       (1.0 - fitted_phi * fitted_phi);
    const double width = fi.upper[step] - fi.lower[step];
    EXPECT_NEAR(width, 2.0 * z * std::sqrt(var), 1e-6 + 0.01 * width);
  }
}

TEST(ForecastInterval, EmpiricalCoverageNear95) {
  // Fit once, then check how often the next 3 observations fall inside
  // the 95% band across many simulated continuations.
  std::vector<double> phi = {0.6};
  const auto x = simulate_arma(phi, {}, 0.0, 1.0, 3000, 213);
  SarimaOrder order;
  order.p = 1;
  const auto m = fit_sarima(x, order);

  rrp::Rng rng(214);
  int inside = 0, total = 0;
  for (int trial = 0; trial < 300; ++trial) {
    // Simulate a 3-step continuation of the fitted process.
    std::vector<double> cont = x;
    const auto fi = forecast_interval(m, x, 3);
    for (int step = 0; step < 3; ++step) {
      double v = rng.normal(0.0, 1.0);
      v += m.mean + m.phi[0] * (cont.back() - m.mean);
      cont.push_back(v);
      ++total;
      if (v >= fi.lower[static_cast<std::size_t>(step)] &&
          v <= fi.upper[static_cast<std::size_t>(step)])
        ++inside;
    }
  }
  const double coverage = static_cast<double>(inside) / total;
  EXPECT_GT(coverage, 0.90);
  EXPECT_LT(coverage, 0.99);
}

TEST(ForecastInterval, LevelValidation) {
  std::vector<double> phi = {0.5};
  const auto x = simulate_arma(phi, {}, 0.0, 1.0, 500, 215);
  SarimaOrder order;
  order.p = 1;
  const auto m = fit_sarima(x, order);
  EXPECT_THROW(forecast_interval(m, x, 3, 0.0), rrp::ContractViolation);
  EXPECT_THROW(forecast_interval(m, x, 3, 1.0), rrp::ContractViolation);
}

// --- refit_sarima drift tiers (ISSUE 10) -------------------------------
//
// The maintenance ladder: same-character data keeps the incumbent
// verbatim; innovation variance past warm_variance_ratio buys a warm
// re-estimate; past scratch_variance_ratio a cold one.  The variance
// ratio is (residual variance on new data) / (incumbent sigma2), so
// scaling the innovation sd by c moves the ratio to ~c^2.

SarimaModel ar1_incumbent(double phi_val, std::uint64_t seed) {
  std::vector<double> phi = {phi_val};
  const auto x = simulate_arma(phi, {}, 0.0, 1.0, 600, seed);
  SarimaOrder order;
  order.p = 1;
  return fit_sarima(x, order);
}

TEST(RefitSarima, SameProcessKeepsIncumbentVerbatim) {
  const auto incumbent = ar1_incumbent(0.6, 301);
  std::vector<double> phi = {0.6};
  const auto fresh = simulate_arma(phi, {}, 0.0, 1.0, 400, 302);
  const auto r = refit_sarima(incumbent, fresh);
  EXPECT_EQ(r.action, SarimaRefitAction::Kept);
  EXPECT_NEAR(r.variance_ratio, 1.0, 0.3);
  EXPECT_GE(r.ljung_box_p, 0.01);
  // Kept means KEPT: the returned model is the incumbent bit for bit.
  ASSERT_EQ(r.model.ar_full.size(), incumbent.ar_full.size());
  EXPECT_EQ(r.model.ar_full[0], incumbent.ar_full[0]);
  EXPECT_EQ(r.model.sigma2, incumbent.sigma2);
  EXPECT_EQ(r.model.mean, incumbent.mean);
}

TEST(RefitSarima, MildVarianceDriftTriggersWarmRefit) {
  const auto incumbent = ar1_incumbent(0.6, 303);
  std::vector<double> phi = {0.6};
  // sd 1.5 => variance ratio ~2.25, between warm (1.5) and scratch (3).
  const auto drifted = simulate_arma(phi, {}, 0.0, 1.5, 400, 304);
  const auto r = refit_sarima(incumbent, drifted);
  EXPECT_EQ(r.action, SarimaRefitAction::WarmRefit);
  EXPECT_GT(r.variance_ratio, 1.5);
  EXPECT_LE(r.variance_ratio, 3.0);
  // The refit absorbed the new innovation variance...
  EXPECT_NEAR(r.model.sigma2, 2.25, 0.6);
  // ...while the AR structure (unchanged in the data) is retained.
  EXPECT_NEAR(r.model.ar_full[0], 0.6, 0.15);
}

TEST(RefitSarima, SevereDriftEscalatesToScratchRefit) {
  const auto incumbent = ar1_incumbent(0.6, 305);
  std::vector<double> phi = {0.6};
  // sd 2.5 => variance ratio ~6.25, past the scratch threshold.
  const auto drifted = simulate_arma(phi, {}, 0.0, 2.5, 400, 306);
  const auto r = refit_sarima(incumbent, drifted);
  EXPECT_EQ(r.action, SarimaRefitAction::ScratchRefit);
  EXPECT_GT(r.variance_ratio, 3.0);
  EXPECT_NEAR(r.model.sigma2, 6.25, 1.6);
}

TEST(RefitSarima, RefitCostIsBoundedByDiagnosticWindow) {
  // The refit fits on the tail only: a model maintained against a huge
  // history must equal one maintained against just that tail.
  const auto incumbent = ar1_incumbent(0.5, 307);
  std::vector<double> phi = {0.5};
  const auto huge = simulate_arma(phi, {}, 0.0, 1.8, 5000, 308);
  SarimaRefitOptions opt;
  opt.diagnostic_window = 336;
  const auto from_huge = refit_sarima(incumbent, huge, opt);
  const std::span<const double> tail(huge.data() + huge.size() - 336, 336);
  const auto from_tail = refit_sarima(incumbent, tail, opt);
  EXPECT_EQ(from_huge.action, from_tail.action);
  EXPECT_EQ(from_huge.variance_ratio, from_tail.variance_ratio);
  EXPECT_EQ(from_huge.model.sigma2, from_tail.model.sigma2);
  ASSERT_EQ(from_huge.model.ar_full.size(), from_tail.model.ar_full.size());
  EXPECT_EQ(from_huge.model.ar_full[0], from_tail.model.ar_full[0]);
}

TEST(RefitSarima, RejectsWindowTooShortForDiagnostics) {
  // min_window for AR(1) with the default 24 Ljung-Box lags is 50.
  const auto incumbent = ar1_incumbent(0.6, 309);
  std::vector<double> phi = {0.6};
  const auto tiny = simulate_arma(phi, {}, 0.0, 1.0, 49, 310);
  EXPECT_THROW(refit_sarima(incumbent, tiny), rrp::ContractViolation);
}

// --- Sparse-lag CSS kernel against a dense reference ------------------
//
// The library's CSS recursion visits only the nonzero lags of the
// expanded polynomials.  The references below are the dense textbook
// recursion over every lag; on finite data the two must agree bit for
// bit, and so must every fit built on them.

std::vector<double> dense_css_residuals(std::span<const double> z,
                                        std::span<const double> ar_full,
                                        std::span<const double> ma_full) {
  std::vector<double> e(z.size(), 0.0);
  for (std::size_t t = 0; t < z.size(); ++t) {
    double pred = 0.0;
    for (std::size_t l = 1; l <= ar_full.size() && l <= t; ++l)
      pred += ar_full[l - 1] * z[t - l];
    for (std::size_t l = 1; l <= ma_full.size() && l <= t; ++l)
      pred += ma_full[l - 1] * e[t - l];
    e[t] = z[t] - pred;
  }
  return e;
}

std::vector<double> dense_forecast(const SarimaModel& model,
                                   std::span<const double> x,
                                   std::size_t h) {
  const SarimaOrder& order = model.order;
  std::vector<std::vector<double>> layers;
  layers.emplace_back(x.begin(), x.end());
  for (std::size_t i = 0; i < order.d; ++i)
    layers.push_back(difference(layers.back(), 1));
  for (std::size_t i = 0; i < order.D; ++i)
    layers.push_back(difference(layers.back(), order.s));
  const std::vector<double>& w = layers.back();
  std::vector<double> z(w.size());
  for (std::size_t t = 0; t < w.size(); ++t) z[t] = w[t] - model.mean;
  std::vector<double> e = dense_css_residuals(z, model.ar_full,
                                              model.ma_full);
  for (std::size_t step = 0; step < h; ++step) {
    const std::size_t t = z.size();
    double pred = 0.0;
    for (std::size_t l = 1; l <= model.ar_full.size() && l <= t; ++l)
      pred += model.ar_full[l - 1] * z[t - l];
    for (std::size_t l = 1; l <= model.ma_full.size() && l <= t; ++l)
      pred += model.ma_full[l - 1] * e[t - l];
    z.push_back(pred);
    e.push_back(0.0);
  }
  std::vector<double> cur(z.end() - static_cast<std::ptrdiff_t>(h), z.end());
  for (double& v : cur) v += model.mean;
  for (std::size_t i = 0; i < order.D; ++i)
    cur = undifference(layers[layers.size() - 2 - i], cur, order.s);
  for (std::size_t i = 0; i < order.d; ++i)
    cur = undifference(layers[order.d - 1 - i], cur, 1);
  return cur;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bit_identical(std::span<const double> got,
                          std::span<const double> want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(bits(got[i]), bits(want[i])) << what << " at " << i;
}

std::vector<double> noise(std::size_t n, double mean, std::uint64_t seed) {
  rrp::Rng rng(seed);
  std::vector<double> x(n);
  for (double& v : x) v = mean + rng.normal(0.0, 1.0);
  return x;
}

TEST(SparseCssKernel, ResidualsAndForecastsMatchDenseRecursionBitForBit) {
  struct Coefficients {
    std::vector<double> phi, theta, sphi, stheta;
  };
  // A generic set, one holding exact +0.0 and -0.0 coefficients whose
  // expansion then has signed zeros at live lags, a pure AR and a pure
  // MA set.
  const std::vector<Coefficients> sets = {
      {{0.5, -0.2}, {0.3}, {0.4, 0.15}, {-0.35}},
      {{0.45, -0.0}, {0.0, 0.25}, {-0.0, 0.3}, {0.2}},
      {{0.6}, {}, {0.2}, {}},
      {{}, {0.4}, {}, {-0.3}},
  };
  std::uint64_t seed = 900;
  for (const std::size_t s : {0u, 7u, 24u}) {
    for (const std::size_t d : {0u, 1u}) {
      for (const std::size_t D : {0u, 1u}) {
        if (D > 0 && s < 2) continue;
        for (const Coefficients& c : sets) {
          SarimaModel model;
          model.order = {c.phi.size(), d, c.theta.size(),
                         c.sphi.size(), D, c.stheta.size(), s};
          model.ar_full = expand_ar(c.phi, c.sphi, s);
          model.ma_full = expand_ma(c.theta, c.stheta, s);
          // Signed zeros written straight into the expanded vectors.
          if (!model.ar_full.empty())
            model.ar_full[model.ar_full.size() / 2] = -0.0;
          if (!model.ma_full.empty()) model.ma_full.back() = 0.0;
          model.mean = d + D == 0 ? 0.37 : 0.0;
          model.has_mean = d + D == 0;
          const std::size_t max_lag =
              std::max(model.ar_full.size(), model.ma_full.size());
          const std::size_t diff_len = d + D * s;
          // Differenced lengths below, at and above the longest lag.
          for (const std::size_t n :
               {std::size_t{3}, max_lag / 2 + 1, max_lag, 4 * max_lag}) {
            const std::string what =
                "s=" + std::to_string(s) + " d=" + std::to_string(d) +
                " D=" + std::to_string(D) + " n=" + std::to_string(n);
            const auto z = noise(n, 0.0, ++seed);
            expect_bit_identical(
                css_residuals(z, model.ar_full, model.ma_full),
                dense_css_residuals(z, model.ar_full, model.ma_full),
                "residuals " + what);
            const auto x = noise(n + diff_len, 5.0, ++seed);
            expect_bit_identical(forecast(model, x, 30),
                                 dense_forecast(model, x, 30),
                                 "forecast " + what);
          }
        }
      }
    }
  }
}

// The fitter's parametrisation, rebuilt from the public pieces: tanh
// partials clamped inside (-1, 1), Durbin-Levinson, MA through the
// negated AR map, the mean (when fitted) last.
struct ReferenceFit {
  std::vector<double> phi, theta, sphi, stheta;
  double mean = 0.0;
  bool has_mean = false;
  double css = 0.0;
  std::size_t evaluations = 0;
};

std::vector<double> reference_constrain(std::span<const double> raw) {
  constexpr double kEdge = 1.0 - 1e-9;
  std::vector<double> partial(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i)
    partial[i] = std::clamp(std::tanh(raw[i]), -kEdge, kEdge);
  return pacf_to_ar(partial);
}

/// The CSS problem of one fit over the dense reference residuals.
class ReferenceProblem {
 public:
  ReferenceProblem(std::span<const double> x, const SarimaOrder& order,
                   bool include_mean)
      : order_(order),
        include_mean_(include_mean),
        w_(apply_differencing(x, order)) {}

  ReferenceFit unpack(std::span<const double> u) const {
    ReferenceFit r;
    std::size_t k = 0;
    auto take = [&](std::size_t n, bool negate) {
      auto c = reference_constrain(u.subspan(k, n));
      k += n;
      if (negate)
        for (double& v : c) v = -v;
      return c;
    };
    r.phi = take(order_.p, false);
    r.theta = take(order_.q, true);
    r.sphi = take(order_.P, false);
    r.stheta = take(order_.Q, true);
    r.mean = include_mean_ ? u[k] : 0.0;
    r.has_mean = include_mean_;
    return r;
  }

  /// Residuals after the warm-up; valid until the next call.
  std::span<const double> residuals(std::span<const double> u) {
    const ReferenceFit r = unpack(u);
    const auto ar_full = expand_ar(r.phi, r.sphi, order_.s);
    const auto ma_full = expand_ma(r.theta, r.stheta, order_.s);
    std::vector<double> z(w_.size());
    for (std::size_t t = 0; t < w_.size(); ++t) z[t] = w_[t] - r.mean;
    e_ = dense_css_residuals(z, ar_full, ma_full);
    return std::span<const double>(e_).subspan(
        std::max(ar_full.size(), ma_full.size()));
  }

  double css(std::span<const double> u) {
    double sse = 0.0;
    for (double v : residuals(u)) sse += v * v;
    return sse;
  }

 private:
  SarimaOrder order_;
  bool include_mean_;
  std::vector<double> w_;
  std::vector<double> e_;
};

/// Levenberg-Marquardt on the dense reference residuals.
ReferenceFit reference_fit(std::span<const double> x,
                           const SarimaOrder& order, bool include_mean,
                           std::vector<double> start,
                           const LeastSquaresOptions& lm) {
  ReferenceProblem problem(x, order, include_mean);
  const LeastSquaresResult opt = levenberg_marquardt(
      [&](std::span<const double> u) { return problem.residuals(u); },
      std::move(start), lm);
  ReferenceFit out = problem.unpack(opt.x);
  out.css = opt.value;
  out.evaluations = opt.evaluations;
  return out;
}

/// The cold start: zero coefficients, the differenced sample mean.
std::vector<double> cold_start(std::span<const double> x,
                               const SarimaOrder& order, bool include_mean) {
  std::vector<double> start(order.num_coefficients(), 0.0);
  if (include_mean)
    start.push_back(rrp::stats::mean(apply_differencing(x, order)));
  return start;
}

/// The cold fit: from the zero start, then from the persistent start
/// (AR partials at tanh(0.5), MA partials at tanh(-0.5) before the
/// negated map) with the evaluations left, keeping the lower CSS.
ReferenceFit reference_cold_fit(std::span<const double> x,
                                const SarimaOrder& order, bool include_mean,
                                const LeastSquaresOptions& lm) {
  std::vector<double> start = cold_start(x, order, include_mean);
  ReferenceFit best = reference_fit(x, order, include_mean, start, lm);
  LeastSquaresOptions rest = lm;
  rest.max_evaluations -= best.evaluations;
  std::size_t k = 0;
  for (std::size_t i = 0; i < order.p; ++i) start[k++] = 0.5;
  for (std::size_t i = 0; i < order.q; ++i) start[k++] = -0.5;
  for (std::size_t i = 0; i < order.P; ++i) start[k++] = 0.5;
  for (std::size_t i = 0; i < order.Q; ++i) start[k++] = -0.5;
  ReferenceFit second =
      reference_fit(x, order, include_mean, std::move(start), rest);
  second.evaluations += best.evaluations;
  if (second.css < best.css) return second;
  best.evaluations = second.evaluations;
  return best;
}

/// Nelder-Mead on the sum of the same squared residuals: the fit-quality
/// reference.
ReferenceFit nelder_mead_fit(std::span<const double> x,
                             const SarimaOrder& order, bool include_mean,
                             std::vector<double> start,
                             const NelderMeadOptions& nm) {
  ReferenceProblem problem(x, order, include_mean);
  const NelderMeadResult opt = nelder_mead(
      [&](const std::vector<double>& u) { return problem.css(u); },
      std::move(start), nm);
  ReferenceFit out = problem.unpack(opt.x);
  out.css = opt.value;
  out.evaluations = opt.evaluations;
  return out;
}

/// The warm start: a fitted model mapped back to optimiser space.
template <typename Model>
std::vector<double> warm_start(const Model& m) {
  std::vector<double> raw;
  auto append = [&raw](std::vector<double> c, bool negate) {
    if (negate)
      for (double& v : c) v = -v;
    for (double p : ar_to_pacf(c)) raw.push_back(std::atanh(p));
  };
  append(m.phi, false);
  append(m.theta, true);
  append(m.sphi, false);
  append(m.stheta, true);
  if (m.has_mean) raw.push_back(m.mean);
  return raw;
}

void expect_same_fit(const SarimaModel& got, const ReferenceFit& want) {
  expect_bit_identical(got.phi, want.phi, "phi");
  expect_bit_identical(got.theta, want.theta, "theta");
  expect_bit_identical(got.sphi, want.sphi, "sphi");
  expect_bit_identical(got.stheta, want.stheta, "stheta");
  EXPECT_EQ(bits(got.mean), bits(want.mean));
  EXPECT_EQ(bits(got.css), bits(want.css));
}

std::uint64_t fit_evaluations() {
  return rrp::obs::global_registry()
      .counter("rrp.ts.sarima_fit_evaluations")
      .value();
}

/// The paper's SARIMA(2,0,1)(2,0,0)_24.
SarimaOrder paper_order() { return {2, 0, 1, 2, 0, 0, 24}; }

/// A seasonal AR series (lags 1, 24, 25) with innovation sd `sd`.
std::vector<double> seasonal_series(double sd, std::size_t n,
                                    std::uint64_t seed) {
  const std::vector<double> phi = {0.5};
  const std::vector<double> sphi = {0.3};
  const auto ar = expand_ar(phi, sphi, 24);
  return simulate_arma(ar, {}, 2.0, sd, n, seed);
}

TEST(SparseCssKernel, FitFollowsTheDenseLevenbergMarquardtTrajectory) {
  const auto x = seasonal_series(1.0, 400, 950);
  const SarimaOrder order = paper_order();
  const SarimaFitOptions options;
  const ReferenceFit want =
      reference_cold_fit(x, order, true, options.optimizer);
  const std::uint64_t before = fit_evaluations();
  const SarimaModel got = fit_sarima(x, order, options);
  EXPECT_EQ(fit_evaluations() - before, want.evaluations);
  expect_same_fit(got, want);
}

TEST(SparseCssKernel, RefitTiersFollowTheDenseLevenbergMarquardtTrajectory) {
  const SarimaOrder order = paper_order();
  const SarimaModel incumbent =
      fit_sarima(seasonal_series(1.0, 400, 951), order);
  // The window (default 336) covers each whole drifted series.
  const SarimaRefitOptions options;
  struct Tier {
    double sd;
    SarimaRefitAction action;
  };
  // sd 1.5 => variance ratio ~2.25 (warm); sd 2.5 => ~6.25 (scratch).
  for (const Tier tier : {Tier{1.5, SarimaRefitAction::WarmRefit},
                          Tier{2.5, SarimaRefitAction::ScratchRefit}}) {
    const auto x = seasonal_series(tier.sd, 300, 952);
    ASSERT_LE(x.size(), options.diagnostic_window);
    LeastSquaresOptions lm = options.scratch.optimizer;
    ReferenceFit want;
    if (tier.action == SarimaRefitAction::WarmRefit) {
      lm.max_evaluations = options.warm_max_evaluations;
      want = reference_fit(x, order, incumbent.has_mean,
                           warm_start(incumbent), lm);
    } else {
      want = reference_cold_fit(x, order, incumbent.has_mean, lm);
    }
    const std::uint64_t before = fit_evaluations();
    const SarimaRefitResult got = refit_sarima(incumbent, x, options);
    ASSERT_EQ(got.action, tier.action);
    EXPECT_EQ(fit_evaluations() - before, want.evaluations);
    expect_same_fit(got.model, want);
  }
}

// --- Fit quality against Nelder-Mead -----------------------------------
//
// Levenberg-Marquardt and Nelder-Mead are both local methods, so neither
// wins every fit; over a corpus of market windows at the paper order the
// least-squares fits must be as good in sum and in the median, for a
// third of the residual passes or fewer.

TEST(FitSarima, LevenbergMarquardtMatchesNelderMeadOnMarketWindows) {
  constexpr std::size_t kWindows = 64;
  constexpr std::size_t kWindow = 168;  // one week of hourly prices
  constexpr std::size_t kStride = 24;
  constexpr std::size_t kColdCap = 4000;  // the policies' cold-fit cap
  const std::vector<double> hourly =
      rrp::market::generate_trace(rrp::market::VmClass::C1Medium, 2012)
          .hourly();
  ASSERT_GE(hourly.size(), kWindows * kStride + kWindow);
  const SarimaOrder order = paper_order();

  SarimaFitOptions cold;
  cold.optimizer.max_evaluations = kColdCap;
  NelderMeadOptions nm_cold;
  nm_cold.max_evaluations = kColdCap;
  // Warm refits on the window itself, whatever the drift.
  SarimaRefitOptions warm;
  warm.diagnostic_window = kWindow;
  warm.ljung_box_alpha = 2.0;
  warm.scratch_variance_ratio = std::numeric_limits<double>::infinity();
  warm.scratch = cold;
  NelderMeadOptions nm_warm;
  nm_warm.max_evaluations = warm.warm_max_evaluations;

  std::vector<double> lm_css, nm_css;
  std::size_t lm_passes = 0, nm_passes = 0;
  SarimaModel lm_prev;
  ReferenceFit nm_prev;
  for (std::size_t i = 0; i < kWindows; ++i) {
    const std::span<const double> x(hourly.data() + i * kStride, kWindow);
    const std::uint64_t before = fit_evaluations();
    const SarimaModel lm = fit_sarima(x, order, cold);
    const ReferenceFit nm =
        nelder_mead_fit(x, order, true, cold_start(x, order, true), nm_cold);
    lm_css.push_back(lm.css);
    nm_css.push_back(nm.css);
    if (i > 0) {
      const SarimaRefitResult lm_warm = refit_sarima(lm_prev, x, warm);
      ASSERT_EQ(lm_warm.action, SarimaRefitAction::WarmRefit);
      const ReferenceFit nm_warm_fit =
          nelder_mead_fit(x, order, true, warm_start(nm_prev), nm_warm);
      lm_css.push_back(lm_warm.model.css);
      nm_css.push_back(nm_warm_fit.css);
      nm_passes += nm_warm_fit.evaluations;
    }
    lm_passes += fit_evaluations() - before;
    nm_passes += nm.evaluations;
    lm_prev = lm;
    nm_prev = nm;
  }

  double lm_sum = 0.0, nm_sum = 0.0, worst = 0.0;
  std::size_t better = 0, equal = 0, worse = 0;
  std::vector<double> ratios;
  for (std::size_t k = 0; k < lm_css.size(); ++k) {
    lm_sum += lm_css[k];
    nm_sum += nm_css[k];
    const double ratio = lm_css[k] / nm_css[k];
    ratios.push_back(ratio);
    worst = std::max(worst, ratio);
    if (ratio < 1.0 - 1e-9) {
      ++better;
    } else if (ratio > 1.0 + 1e-9) {
      ++worse;
    } else {
      ++equal;
    }
  }
  std::printf(
      "fits %zu: better %zu, equal %zu, worse %zu (1e-9 relative); worst "
      "ratio %.6g; CSS sum %.9g vs %.9g; passes %zu vs %zu\n",
      lm_css.size(), better, equal, worse, worst, lm_sum, nm_sum, lm_passes,
      nm_passes);
  std::nth_element(ratios.begin(), ratios.begin() + long(ratios.size() / 2),
                   ratios.end());
  EXPECT_LE(lm_sum, nm_sum);
  EXPECT_LE(ratios[ratios.size() / 2], 1.0 + 1e-9);
  EXPECT_LE(3 * lm_passes, nm_passes);
}

// --- Concurrent fits ---------------------------------------------------
//
// auto_arima fits its candidate orders in parallel on the global pool;
// each fit keeps its buffers local, so concurrent fits must equal the
// same fits run one after another.  Run under TSan in CI.

TEST(FitSarimaConcurrent, PoolFitsEqualSerialFits) {
  std::vector<std::vector<double>> series;
  std::vector<SarimaOrder> orders;
  for (std::uint64_t i = 0; i < 8; ++i) {
    series.push_back(seasonal_series(1.0 + 0.1 * static_cast<double>(i),
                                     200, 960 + i));
    orders.push_back(i % 2 == 0 ? SarimaOrder{1, 0, 1, 1, 0, 0, 24}
                                : SarimaOrder{2, 1, 0, 0, 0, 1, 24});
  }
  std::vector<SarimaModel> serial;
  for (std::size_t i = 0; i < series.size(); ++i)
    serial.push_back(fit_sarima(series[i], orders[i]));
  std::vector<SarimaModel> pooled(series.size());
  rrp::global_pool().parallel_for(series.size(), [&](std::size_t i) {
    pooled[i] = fit_sarima(series[i], orders[i]);
  });
  for (std::size_t i = 0; i < series.size(); ++i) {
    expect_bit_identical(pooled[i].ar_full, serial[i].ar_full, "ar_full");
    expect_bit_identical(pooled[i].ma_full, serial[i].ma_full, "ma_full");
    EXPECT_EQ(bits(pooled[i].mean), bits(serial[i].mean));
    EXPECT_EQ(bits(pooled[i].css), bits(serial[i].css));
  }
}

}  // namespace
