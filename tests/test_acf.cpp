#include "timeseries/acf.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace {

using namespace rrp::ts;

std::vector<double> simulate_ar1(double phi, std::size_t n,
                                 std::uint64_t seed) {
  rrp::Rng rng(seed);
  std::vector<double> x(n, 0.0);
  for (std::size_t t = 1; t < n; ++t) x[t] = phi * x[t - 1] + rng.normal();
  return x;
}

TEST(Acf, LagZeroIsOne) {
  const auto x = simulate_ar1(0.5, 500, 51);
  const auto r = acf(x, 10);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
}

TEST(Acf, WhiteNoiseIsUncorrelated) {
  rrp::Rng rng(52);
  std::vector<double> x(5000);
  for (auto& v : x) v = rng.normal();
  const auto r = acf(x, 20);
  const double band = white_noise_band(x.size());
  int exceed = 0;
  for (std::size_t k = 1; k <= 20; ++k)
    if (std::fabs(r[k]) > band) ++exceed;
  // 95% band: expect ~1 of 20 to exceed; allow up to 3.
  EXPECT_LE(exceed, 3);
}

TEST(Acf, Ar1DecaysGeometrically) {
  const double phi = 0.8;
  const auto x = simulate_ar1(phi, 20000, 53);
  const auto r = acf(x, 5);
  for (std::size_t k = 1; k <= 5; ++k)
    EXPECT_NEAR(r[k], std::pow(phi, static_cast<double>(k)), 0.05)
        << "lag " << k;
}

TEST(Acf, NegativePhiAlternatesSign) {
  const auto x = simulate_ar1(-0.7, 20000, 54);
  const auto r = acf(x, 4);
  EXPECT_LT(r[1], 0.0);
  EXPECT_GT(r[2], 0.0);
  EXPECT_LT(r[3], 0.0);
}

TEST(Acf, RejectsConstantSeries) {
  std::vector<double> x(10, 3.0);
  EXPECT_THROW(acf(x, 3), rrp::ContractViolation);
}

TEST(Pacf, Ar1CutsOffAfterLagOne) {
  const auto x = simulate_ar1(0.8, 20000, 55);
  const auto p = pacf(x, 6);
  EXPECT_NEAR(p[0], 0.8, 0.05);
  for (std::size_t k = 1; k < 6; ++k)
    EXPECT_NEAR(p[k], 0.0, 0.05) << "lag " << (k + 1);
}

TEST(Pacf, Ar2CutsOffAfterLagTwo) {
  rrp::Rng rng(56);
  std::vector<double> x(20000, 0.0);
  for (std::size_t t = 2; t < x.size(); ++t)
    x[t] = 0.5 * x[t - 1] + 0.3 * x[t - 2] + rng.normal();
  const auto p = pacf(x, 5);
  EXPECT_GT(std::fabs(p[0]), 0.3);
  EXPECT_NEAR(p[1], 0.3, 0.05);
  for (std::size_t k = 2; k < 5; ++k) EXPECT_NEAR(p[k], 0.0, 0.05);
}

TEST(WhiteNoiseBand, ShrinksWithSampleSize) {
  EXPECT_NEAR(white_noise_band(100), 0.196, 1e-3);
  EXPECT_GT(white_noise_band(100), white_noise_band(10000));
}

TEST(PacfToAr, SingleLagIdentity) {
  std::vector<double> partial = {0.6};
  const auto phi = pacf_to_ar(partial);
  ASSERT_EQ(phi.size(), 1u);
  EXPECT_DOUBLE_EQ(phi[0], 0.6);
}

TEST(PacfToAr, TwoLagKnownRecursion) {
  // Durbin-Levinson: phi_22 = r2; phi_21 = r1 (1 - r2).
  std::vector<double> partial = {0.5, 0.3};
  const auto phi = pacf_to_ar(partial);
  ASSERT_EQ(phi.size(), 2u);
  EXPECT_NEAR(phi[0], 0.5 * (1.0 - 0.3), 1e-12);
  EXPECT_NEAR(phi[1], 0.3, 1e-12);
}

TEST(PacfToAr, ResultIsStationary) {
  // Any partial sequence in (-1,1) must give a stationary AR; verify
  // by simulating and confirming the series does not explode.
  std::vector<double> partial = {0.9, -0.8, 0.7, -0.6};
  const auto phi = pacf_to_ar(partial);
  rrp::Rng rng(57);
  std::vector<double> x(5000, 0.0);
  for (std::size_t t = phi.size(); t < x.size(); ++t) {
    double v = rng.normal();
    for (std::size_t l = 0; l < phi.size(); ++l)
      v += phi[l] * x[t - 1 - l];
    x[t] = v;
  }
  double max_abs = 0.0;
  for (double v : x) max_abs = std::max(max_abs, std::fabs(v));
  EXPECT_LT(max_abs, 1e3);
}

TEST(PacfToAr, RejectsBoundaryValues) {
  std::vector<double> partial = {1.0};
  EXPECT_THROW(pacf_to_ar(partial), rrp::ContractViolation);
}

// --- ar_to_pacf (ISSUE 10: warm-started refits) ------------------------
//
// Warm refits seed the optimiser at the incumbent by mapping its AR
// coefficients back to the unconstrained partial scale, so the step-down
// must invert pacf_to_ar exactly on the stationary region and stay
// strictly inside (-1, 1) even for coefficients at or past the boundary
// (otherwise re-constraining via atanh/tanh would blow up).

TEST(ArToPacf, RoundTripsStationaryCoefficients) {
  const std::vector<std::vector<double>> partials = {
      {0.6},
      {0.5, -0.3},
      {0.8, 0.15, -0.4},
      {-0.95, 0.7, 0.2, -0.5},
  };
  for (const auto& partial : partials) {
    const auto phi = pacf_to_ar(partial);
    const auto back = ar_to_pacf(phi);
    ASSERT_EQ(back.size(), partial.size());
    for (std::size_t i = 0; i < partial.size(); ++i)
      EXPECT_NEAR(back[i], partial[i], 1e-12) << "lag " << i + 1;
    // And forward again: the AR polynomial is reproduced too.
    const auto phi2 = pacf_to_ar(back);
    for (std::size_t i = 0; i < phi.size(); ++i)
      EXPECT_NEAR(phi2[i], phi[i], 1e-12) << "coef " << i;
  }
}

TEST(ArToPacf, ClampsNonStationaryInputInsideOpenInterval) {
  // A unit-root-or-worse AR coefficient maps to a partial at |1|; the
  // step-down clamps it just inside so the result is always a legal
  // pacf_to_ar input (the warm-start contract).
  const std::vector<std::vector<double>> cases = {
      {1.2}, {1.0}, {1.7, -0.7}, {-1.3}};
  for (const std::vector<double>& ar : cases) {
    const auto partial = ar_to_pacf(ar);
    ASSERT_EQ(partial.size(), ar.size());
    for (double r : partial) EXPECT_LT(std::fabs(r), 1.0);
    EXPECT_NO_THROW(pacf_to_ar(partial));
  }
}

}  // namespace
