// Seasonal ARIMA estimation and forecasting.
//
// The paper's predictability study fits SARIMA(p,d,q)(P,D,Q)_24 models
// to hourly spot prices (Section IV-A) and finds SARIMA(2,0,1|2)(2,0,0)_24
// to minimise AIC.  This module reproduces that machinery from scratch:
//
//  * multiplicative seasonal lag polynomials expanded to plain AR/MA
//    coefficient vectors;
//  * conditional-sum-of-squares (CSS) estimation: Levenberg-Marquardt
//    on the CSS residuals over a partial-autocorrelation
//    parametrisation that keeps the AR side stationary and the MA side
//    invertible by construction;
//  * recursive multi-step forecasting with differencing inversion.
//
// One CSS recursion serves the fitter, the refit diagnostics,
// css_residuals and forecast.  It visits only the nonzero lags of the
// expanded polynomials (8 of the paper model's 50 AR lags): the AR part
// as one vectorisable pass per lag, the MA part as a serial recursion.
// For each t it still adds its terms from +0.0 in increasing lag order,
// AR before MA, and a skipped term c * v has c == +-0, which leaves the
// sum unchanged; so residuals, CSS values and fitted models are bit for
// bit those of the dense recursion over every lag, whenever the
// residuals stay finite.
#pragma once

#include <span>
#include <vector>

#include "timeseries/optimize.hpp"

namespace rrp::ts {

/// SARIMA(p,d,q)(P,D,Q)_s orders.  s == 0 (or P=D=Q=0) means no
/// seasonal part.
struct SarimaOrder {
  std::size_t p = 0, d = 0, q = 0;
  std::size_t P = 0, D = 0, Q = 0;
  std::size_t s = 0;

  std::size_t num_coefficients() const { return p + q + P + Q; }
  bool has_seasonal() const { return s > 0 && (P > 0 || D > 0 || Q > 0); }
};

struct SarimaFitOptions {
  /// Include a mean term for the differenced series.  Defaults to the
  /// R convention: only when no differencing is applied.
  enum class Mean { Auto, Include, Exclude };
  Mean mean = Mean::Auto;
  LeastSquaresOptions optimizer;
};

struct SarimaModel {
  SarimaOrder order;
  // Raw polynomial coefficients as reported (phi/theta non-seasonal,
  // sphi/stheta seasonal).
  std::vector<double> phi, theta, sphi, stheta;
  // Expanded coefficients on the differenced scale: value at index l-1
  // multiplies lag l.
  std::vector<double> ar_full, ma_full;
  double mean = 0.0;     ///< mean of the differenced series (0 if excluded)
  bool has_mean = false;
  double sigma2 = 0.0;   ///< CSS innovation variance estimate
  double css = 0.0;      ///< conditional sum of squared residuals
  std::size_t n_effective = 0;
  double log_likelihood = 0.0;
  double aic = 0.0, aicc = 0.0, bic = 0.0;

  /// Number of estimated parameters (coefficients + mean + variance),
  /// the `k` used in the information criteria.
  std::size_t num_parameters() const;
};

/// Expands (1 - sum phi_i B^i)(1 - sum sphi_j B^{js}) into plain lag
/// coefficients a_l such that the AR recursion reads
/// z_t = sum_l a_l z_{t-l} + ...; exposed for testing.
std::vector<double> expand_ar(std::span<const double> phi,
                              std::span<const double> sphi, std::size_t s);

/// Expands (1 + sum theta_i B^i)(1 + sum stheta_j B^{js}); the result
/// m_l multiplies e_{t-l} in the MA recursion.
std::vector<double> expand_ma(std::span<const double> theta,
                              std::span<const double> stheta, std::size_t s);

/// Applies the model's (d, D_s) differencing to a level series.
std::vector<double> apply_differencing(std::span<const double> x,
                                       const SarimaOrder& order);

/// CSS residuals of a coefficient set on a differenced, mean-free
/// series; e_t = z_t - sum a_l z_{t-l} - sum m_l e_{t-l} with unknown
/// pre-sample values set to zero.  Zero coefficients are skipped
/// without changing a bit of the result (see the file comment).
std::vector<double> css_residuals(std::span<const double> z,
                                  std::span<const double> ar_full,
                                  std::span<const double> ma_full);

/// Fits the model by CSS.  Requires enough observations to difference
/// and to cover the longest expanded lag.
SarimaModel fit_sarima(std::span<const double> x, const SarimaOrder& order,
                       const SarimaFitOptions& options = {});

// --- Incremental model maintenance (ISSUE 10) ------------------------
//
// A rolling-horizon consumer refits its price model every few slots.
// Refitting from scratch costs O(window * evaluations); refit_sarima
// instead diagnoses the incumbent on a bounded tail of new data and
// escalates only as far as the drift demands:
//
//   Kept          innovation variance and Ljung-Box whiteness still
//                 pass: the incumbent is returned untouched (one CSS
//                 pass over the diagnostic window).
//   WarmRefit     mild drift: re-estimate on the diagnostic window,
//                 with the optimiser seeded at the incumbent parameter
//                 vector (via ar_to_pacf) and a small evaluation cap.
//   ScratchRefit  severe drift: full fit on the diagnostic window from
//                 the default cold start.

enum class SarimaRefitAction { Kept, WarmRefit, ScratchRefit };

const char* to_string(SarimaRefitAction action);

struct SarimaRefitOptions {
  /// Cap on residual evaluations for warm-started refits (the
  /// cold-start cap lives in `scratch.optimizer`).
  std::size_t warm_max_evaluations = 400;
  /// Keep the incumbent while (residual variance on new data) /
  /// (incumbent sigma2) stays at or below this ratio...
  double warm_variance_ratio = 1.5;
  /// ...warm-refit up to this ratio, and refit from scratch beyond it.
  double scratch_variance_ratio = 3.0;
  /// Ljung-Box whiteness: a residual p-value below alpha fails the
  /// incumbent even when the variance ratio passes.
  double ljung_box_alpha = 0.01;
  std::size_t ljung_box_lags = 24;
  /// Tail of `x` used for diagnostics AND re-estimation: bounds the
  /// refit cost by new-data volume instead of total history.  Clamped
  /// up so the order remains estimable.
  std::size_t diagnostic_window = 24 * 14;
  /// Full-fit options for the ScratchRefit tier (and the base options —
  /// mean handling — for WarmRefit).
  SarimaFitOptions scratch;
};

struct SarimaRefitResult {
  SarimaModel model;
  SarimaRefitAction action = SarimaRefitAction::Kept;
  double variance_ratio = 0.0;  ///< new-data residual var / incumbent sigma2
  double ljung_box_p = 1.0;     ///< residual whiteness on the window
};

/// Maintains `incumbent` against the series `x` (oldest first, newest
/// last; the diagnostic window is its tail).  Never throws on drift —
/// the action tells the caller what was paid.
SarimaRefitResult refit_sarima(const SarimaModel& incumbent,
                               std::span<const double> x,
                               const SarimaRefitOptions& options = {});

/// h-step-ahead forecast from the end of `x` (the series the model was
/// fitted on, or a compatible continuation).
std::vector<double> forecast(const SarimaModel& model,
                             std::span<const double> x, std::size_t h);

/// Baseline predictor used by the paper's comparison: repeats the
/// sample mean of `x` h times.
std::vector<double> mean_forecast(std::span<const double> x, std::size_t h);

/// Point forecasts with symmetric Gaussian prediction intervals.
struct ForecastInterval {
  std::vector<double> point;
  std::vector<double> lower;
  std::vector<double> upper;
  double level = 0.95;
};

/// h-step forecasts plus level-% prediction intervals from the model's
/// psi-weight (MA-infinity) representation: Var(h) = sigma^2 *
/// sum_{j<h} psi_j^2, with the differencing operators folded into the
/// AR side so integrated models get the correct widening bands.
ForecastInterval forecast_interval(const SarimaModel& model,
                                   std::span<const double> x, std::size_t h,
                                   double level = 0.95);

/// The first `h` psi weights (psi_0 = 1) of the model including its
/// differencing factors; exposed for testing.
std::vector<double> psi_weights(const SarimaModel& model, std::size_t h);

}  // namespace rrp::ts
