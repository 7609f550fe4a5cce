// Autocorrelation and partial autocorrelation functions with 95%
// confidence bands (paper Figure 7), and the Durbin-Levinson recursion
// shared with stationarity-constrained SARIMA parametrisation.
#pragma once

#include <span>
#include <vector>

namespace rrp::ts {

/// Sample ACF at lags 0..max_lag (r_0 = 1), using the standard biased
/// normalisation (dividing by n, as R's acf does).
std::vector<double> acf(std::span<const double> x, std::size_t max_lag);

/// Sample PACF at lags 1..max_lag via Durbin-Levinson on the ACF.
std::vector<double> pacf(std::span<const double> x, std::size_t max_lag);

/// The +/- band outside which a sample autocorrelation is significant
/// at 95% under the white-noise null: 1.96 / sqrt(n).
double white_noise_band(std::size_t n);

/// Durbin-Levinson: converts partial autocorrelations (|r_i| < 1) into
/// AR coefficients of a guaranteed-stationary AR(k) process.  Used by
/// the SARIMA fitter to keep the optimiser inside the stationary region.
std::vector<double> pacf_to_ar(std::span<const double> partial);

/// pacf_to_ar in place: `coeffs` holds the partials on entry and the AR
/// coefficients on return, bit for bit those pacf_to_ar returns.
void pacf_to_ar_in_place(std::span<double> coeffs);

/// Inverse Durbin-Levinson: recovers the partial autocorrelations from
/// AR(k) coefficients, so pacf_to_ar(ar_to_pacf(phi)) == phi for any
/// stationary phi.  Partials of a (numerically) non-stationary input
/// are clamped just inside (-1, 1), making the round trip a projection
/// onto the stationary region.  Seeds warm-started SARIMA refits
/// (refit_sarima) at the incumbent parameter vector.
std::vector<double> ar_to_pacf(std::span<const double> ar);

}  // namespace rrp::ts
