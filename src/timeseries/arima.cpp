#include "timeseries/arima.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/special.hpp"
#include "common/stats.hpp"
#include "obs/obs.hpp"
#include "timeseries/acf.hpp"
#include "timeseries/diagnostics.hpp"
#include "timeseries/series.hpp"

namespace rrp::ts {

namespace {

/// Multiplies two lag polynomials given as coefficient arrays with
/// c[0] = 1 implied at index 0 of each input (inputs include index 0).
std::vector<double> poly_multiply(std::span<const double> a,
                                  std::span<const double> b) {
  std::vector<double> out(a.size() + b.size() - 1, 0.0);
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::size_t j = 0; j < b.size(); ++j) out[i + j] += a[i] * b[j];
  return out;
}

/// Expands (1 + sign sum_i c_i B^i)(1 + sign sum_j C_j B^{j s}) and
/// writes sign times the coefficient of B^l to out[l-1]: the recursion
/// coefficients a_l of expand_ar for sign -1, the m_l of expand_ma for
/// sign +1.  `out` holds c.size() + C.size() * max(s, 1) values.  Each
/// lag sums its products from +0.0 in the order the dense polynomial
/// product would, skipping only products with a structural zero, which
/// are +-0 and leave the sum unchanged.
void expand_into(std::span<const double> c, std::span<const double> C,
                 std::size_t s, double sign, std::span<double> out) {
  const std::size_t s1 = std::max<std::size_t>(s, 1);
  RRP_EXPECTS(out.size() == c.size() + C.size() * s1);
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t i = 0; i <= c.size(); ++i) {
    const double ci = i == 0 ? 1.0 : sign * c[i - 1];
    for (std::size_t j = 0; j <= C.size(); ++j) {
      if (i == 0 && j == 0) continue;
      const double cj = j == 0 ? 1.0 : sign * C[j - 1];
      out[i + j * s1 - 1] += ci * cj;
    }
  }
  if (sign < 0.0)
    for (double& v : out) v = -v;
}

/// Maps unconstrained optimiser parameters to the coefficients of a
/// stationary AR polynomial via tanh + Durbin-Levinson, into `out`.
void constrain_ar(std::span<const double> raw, std::span<double> out) {
  // tanh rounds to exactly +-1.0 for |raw| >~ 19, which pacf_to_ar
  // rejects; warm starts seeded near the stationarity boundary can push
  // the optimiser there, so keep the partials strictly inside (-1, 1).
  constexpr double kEdge = 1.0 - 1e-9;
  for (std::size_t i = 0; i < raw.size(); ++i)
    out[i] = std::clamp(std::tanh(raw[i]), -kEdge, kEdge);
  pacf_to_ar_in_place(out);
}

/// Inverse of the fitter's `unpack`: the unconstrained optimiser vector
/// that maps back to (the stationary projection of) the model's
/// coefficients.  Seeds warm-started refits at the incumbent.
std::vector<double> raw_parameters(const SarimaModel& m) {
  std::vector<double> raw;
  auto append = [&raw](std::span<const double> coeffs, bool negate) {
    std::vector<double> c(coeffs.begin(), coeffs.end());
    if (negate)
      for (double& v : c) v = -v;
    const std::vector<double> partial = ar_to_pacf(c);
    for (double p : partial) raw.push_back(std::atanh(p));
  };
  append(m.phi, false);
  append(m.theta, true);  // MA went through the negated AR map
  append(m.sphi, false);
  append(m.stheta, true);
  if (m.has_mean) raw.push_back(m.mean);
  return raw;
}

}  // namespace

std::size_t SarimaModel::num_parameters() const {
  return order.num_coefficients() + (has_mean ? 1 : 0) + 1;  // + sigma^2
}

std::vector<double> expand_ar(std::span<const double> phi,
                              std::span<const double> sphi, std::size_t s) {
  // (1 - sum phi B)(1 - sum sphi B^s) = sum c_l B^l with c_0 = 1; the
  // recursion coefficient on lag l is -c_l.
  std::vector<double> out(phi.size() +
                          sphi.size() * std::max<std::size_t>(s, 1));
  expand_into(phi, sphi, s, -1.0, out);
  return out;
}

std::vector<double> expand_ma(std::span<const double> theta,
                              std::span<const double> stheta, std::size_t s) {
  std::vector<double> out(theta.size() +
                          stheta.size() * std::max<std::size_t>(s, 1));
  expand_into(theta, stheta, s, 1.0, out);
  return out;
}

std::vector<double> apply_differencing(std::span<const double> x,
                                       const SarimaOrder& order) {
  std::vector<double> w(x.begin(), x.end());
  if (order.d > 0) w = difference(w, 1, order.d);
  if (order.D > 0) {
    RRP_EXPECTS(order.s >= 2);
    w = difference(w, order.s, order.D);
  }
  return w;
}

namespace {

/// One nonzero term of an expanded lag polynomial.
struct Lag {
  std::size_t lag;
  double coeff;
};

/// The nonzero lags of a model's expanded AR and MA sides (index l-1 of
/// `ar_full`/`ma_full` holds lag l), each in increasing lag order.
struct SparseLags {
  std::vector<Lag> ar, ma;

  void assign(std::span<const double> ar_full,
              std::span<const double> ma_full) {
    collect(ar_full, ar);
    collect(ma_full, ma);
  }

 private:
  static void collect(std::span<const double> full, std::vector<Lag>& out) {
    out.clear();
    for (std::size_t l = 1; l <= full.size(); ++l)
      if (full[l - 1] != 0.0) out.push_back(Lag{l, full[l - 1]});
  }
};

/// The CSS recursion every caller shares: writes into `e` the residuals
/// of z = w - mean, e_t = z_t - (sum a_l z_{t-l} + sum m_l e_{t-l}) over
/// the nonzero lags l <= t.  The AR part runs first, one vectorisable
/// pass per lag with `e` as the accumulator; only the MA part is a
/// serial recursion.  Each t still adds its terms from +0.0 in
/// increasing lag order, AR before MA, and a skipped term c * v with
/// c == +-0 and v finite is +-0, which leaves a sum that never holds
/// -0.0 unchanged: the residuals equal the dense recursion over every
/// lag bit for bit whenever they stay finite.
void sparse_css(std::span<const double> w, double mean,
                const SparseLags& lags, std::span<double> e) {
  RRP_EXPECTS(e.size() == w.size());
  const std::size_t n = w.size();
  std::fill(e.begin(), e.end(), 0.0);
  for (const Lag& a : lags.ar)
    for (std::size_t t = a.lag; t < n; ++t)
      e[t] += a.coeff * (w[t - a.lag] - mean);
  // The lag-1 MA term reads the residual just computed from a register,
  // not through a store and reload on every step of the recursion.  m1
  // is 0 when the model has no lag-1 MA term, and prev is 0 at t = 0;
  // either way the term added is +-0, a skipped term.
  std::span<const Lag> ma = lags.ma;
  double m1 = 0.0;
  if (!ma.empty() && ma.front().lag == 1) {
    m1 = ma.front().coeff;
    ma = ma.subspan(1);
  }
  double prev = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    double pred = e[t] + m1 * prev;
    for (const Lag& m : ma) {
      if (t < m.lag) break;
      pred += m.coeff * e[t - m.lag];
    }
    prev = (w[t] - mean) - pred;
    e[t] = prev;
  }
}

/// Sum of squared residuals from `start` on.
double sum_of_squares(std::span<const double> e, std::size_t start) {
  double sse = 0.0;
  for (std::size_t t = start; t < e.size(); ++t) sse += e[t] * e[t];
  return sse;
}

}  // namespace

std::vector<double> css_residuals(std::span<const double> z,
                                  std::span<const double> ar_full,
                                  std::span<const double> ma_full) {
  SparseLags lags;
  lags.assign(ar_full, ma_full);
  std::vector<double> e(z.size());
  sparse_css(z, 0.0, lags, e);
  return e;
}

namespace {

/// Shared fit body.  `warm_start` empty means the classic cold start
/// (zero coefficients, sample mean); otherwise it must match the
/// parameter-vector layout and the optimiser is seeded there.
SarimaModel fit_sarima_impl(std::span<const double> x,
                            const SarimaOrder& order,
                            const SarimaFitOptions& options,
                            std::span<const double> warm_start) {
  RRP_TRACE_SPAN("ts.fit_sarima");
  RRP_TRACE_ARG("n", x.size());
  RRP_EXPECTS(!order.has_seasonal() || order.s >= 2);
  const std::vector<double> w = apply_differencing(x, order);
  const std::size_t max_ar_lag =
      order.p + order.P * std::max<std::size_t>(order.s, 1);
  const std::size_t max_ma_lag =
      order.q + order.Q * std::max<std::size_t>(order.s, 1);
  RRP_EXPECTS(w.size() > std::max(max_ar_lag, max_ma_lag) + 2);

  const bool include_mean =
      options.mean == SarimaFitOptions::Mean::Include ||
      (options.mean == SarimaFitOptions::Mean::Auto &&
       order.d + order.D == 0);

  const std::size_t n_coef = order.num_coefficients();
  const double w_mean = rrp::stats::mean(w);

  // Parameter vector layout: [phi raw | theta raw | sphi raw | stheta
  // raw | mean (if included)].  `unpack` writes the coefficients into
  // buffers sized once per fit, so an evaluation allocates nothing.
  std::vector<double> phi(order.p), theta(order.q), sphi(order.P),
      stheta(order.Q), ar_full(max_ar_lag), ma_full(max_ma_lag);
  double mean = 0.0;
  auto unpack = [&](std::span<const double> u) {
    std::size_t k = 0;
    auto take = [&](std::span<double> out, bool negate) {
      constrain_ar(u.subspan(k, out.size()), out);
      k += out.size();
      // Invertible MA: (1 + sum theta B) stable iff (1 - sum(-theta) B)
      // stationary, so constrain through the AR map and negate.
      if (negate)
        for (double& v : out) v = -v;
    };
    take(phi, false);
    take(theta, true);
    take(sphi, false);
    take(stheta, true);
    mean = include_mean ? u[k] : 0.0;
    expand_into(phi, sphi, order.s, -1.0, ar_full);
    expand_into(theta, stheta, order.s, 1.0, ma_full);
  };

  // The residuals after the warm-up that conditions on unknown
  // pre-sample values.
  const std::size_t warm_up = std::max(max_ar_lag, max_ma_lag);
  std::vector<double> e(w.size());
  SparseLags lags;
  lags.ar.reserve(max_ar_lag);
  lags.ma.reserve(max_ma_lag);
  const ResidualFn residuals = [&](std::span<const double> u) {
    unpack(u);
    lags.assign(ar_full, ma_full);
    sparse_css(w, mean, lags, e);
    return std::span<const double>(e).subspan(warm_up);
  };

  LeastSquaresResult opt_result;
  if (!warm_start.empty()) {
    RRP_EXPECTS(warm_start.size() == n_coef + (include_mean ? 1 : 0));
    opt_result = levenberg_marquardt(
        residuals, {warm_start.begin(), warm_start.end()},
        options.optimizer);
  } else if (n_coef == 0 && !include_mean) {
    opt_result.value = sum_of_squares(residuals({}), 0);
    opt_result.converged = true;
  } else {
    // The CSS of an ARMA model is multimodal (an AR and an MA root can
    // nearly cancel), so where a local method ends depends on where it
    // starts.  A cold fit starts from white noise (zero coefficients)
    // and then from persistent prices (every partial at tanh(0.5),
    // signed so the AR and MA coefficients are positive), both at the
    // sample mean, and keeps the lower CSS.  The evaluation cap covers
    // both runs.
    std::vector<double> start(n_coef, 0.0);
    if (include_mean) start.push_back(w_mean);
    opt_result = levenberg_marquardt(residuals, start, options.optimizer);
    LeastSquaresOptions rest = options.optimizer;
    rest.max_evaluations -= opt_result.evaluations;
    if (n_coef > 0 && rest.max_evaluations > 0) {
      std::size_t k = 0;
      for (const auto& [count, raw] :
           {std::pair{order.p, 0.5}, std::pair{order.q, -0.5},
            std::pair{order.P, 0.5}, std::pair{order.Q, -0.5}})
        for (std::size_t i = 0; i < count; ++i) start[k++] = raw;
      LeastSquaresResult second =
          levenberg_marquardt(residuals, std::move(start), rest);
      second.evaluations += opt_result.evaluations;
      if (second.value < opt_result.value) {
        opt_result = std::move(second);
      } else {
        opt_result.evaluations = second.evaluations;
      }
    }
  }
  RRP_COUNTER_ADD("rrp.ts.sarima_fits", 1);
  RRP_COUNTER_ADD("rrp.ts.sarima_fit_evaluations", opt_result.evaluations);
  RRP_TRACE_ARG("evaluations", opt_result.evaluations);

  unpack(opt_result.x);
  SarimaModel model;
  model.order = order;
  model.phi = std::move(phi);
  model.theta = std::move(theta);
  model.sphi = std::move(sphi);
  model.stheta = std::move(stheta);
  model.ar_full = std::move(ar_full);
  model.ma_full = std::move(ma_full);
  model.mean = mean;
  model.has_mean = include_mean;
  model.css = opt_result.value;
  model.n_effective = w.size() - warm_up;
  RRP_ENSURES(model.n_effective > 0);
  const double n = static_cast<double>(model.n_effective);
  model.sigma2 = std::max(model.css / n, 1e-300);
  model.log_likelihood =
      -0.5 * n * (std::log(2.0 * M_PI * model.sigma2) + 1.0);
  const double k = static_cast<double>(model.num_parameters());
  model.aic = -2.0 * model.log_likelihood + 2.0 * k;
  model.bic = -2.0 * model.log_likelihood + k * std::log(n);
  model.aicc = n - k - 1.0 > 0.0
                   ? model.aic + 2.0 * k * (k + 1.0) / (n - k - 1.0)
                   : std::numeric_limits<double>::infinity();
  return model;
}

}  // namespace

SarimaModel fit_sarima(std::span<const double> x, const SarimaOrder& order,
                       const SarimaFitOptions& options) {
  return fit_sarima_impl(x, order, options, {});
}

const char* to_string(SarimaRefitAction action) {
  switch (action) {
    case SarimaRefitAction::Kept:
      return "kept";
    case SarimaRefitAction::WarmRefit:
      return "warm_refit";
    case SarimaRefitAction::ScratchRefit:
      return "scratch_refit";
  }
  return "unknown";
}

SarimaRefitResult refit_sarima(const SarimaModel& incumbent,
                               std::span<const double> x,
                               const SarimaRefitOptions& options) {
  RRP_TRACE_SPAN("ts.warm_refit");
  RRP_TRACE_ARG("n", x.size());
  RRP_EXPECTS(incumbent.sigma2 > 0.0);
  RRP_EXPECTS(options.warm_variance_ratio >= 1.0);
  RRP_EXPECTS(options.scratch_variance_ratio >= options.warm_variance_ratio);
  const SarimaOrder& order = incumbent.order;

  // Diagnostic window: clamp the configured tail up so the order stays
  // estimable after differencing, and to the available history.
  const std::size_t s1 = std::max<std::size_t>(order.s, 1);
  const std::size_t max_lag =
      std::max(order.p + order.P * s1, order.q + order.Q * s1);
  const std::size_t diff_len = order.d + order.D * order.s;
  const std::size_t min_window =
      diff_len + std::max(max_lag + 3, 2 * options.ljung_box_lags + 2);
  RRP_EXPECTS(x.size() >= min_window);
  const std::size_t window =
      std::min(x.size(), std::max(options.diagnostic_window, min_window));
  const std::span<const double> tail = x.subspan(x.size() - window);

  // Diagnose the incumbent on the window: one CSS pass, no refit yet.
  const std::vector<double> w = apply_differencing(tail, order);
  SparseLags incumbent_lags;
  incumbent_lags.assign(incumbent.ar_full, incumbent.ma_full);
  std::vector<double> e(w.size());
  sparse_css(w, incumbent.mean, incumbent_lags, e);
  const std::size_t start =
      std::max(incumbent.ar_full.size(), incumbent.ma_full.size());
  RRP_EXPECTS(e.size() > start);
  const double sse = sum_of_squares(e, start);
  const std::size_t n_eff = e.size() - start;

  SarimaRefitResult out;
  out.variance_ratio =
      (sse / static_cast<double>(n_eff)) / incumbent.sigma2;
  const std::span<const double> resid(e.data() + start, n_eff);
  const std::size_t fitted = order.num_coefficients();
  std::size_t lags = std::max(options.ljung_box_lags, fitted + 1);
  if (n_eff > lags + 1) {
    try {
      out.ljung_box_p = ljung_box(resid, lags, fitted).p_value;
    } catch (const Error&) {
      // Degenerate residuals (e.g. zero variance on a flat regime):
      // nothing left to whiten, treat as passing.
      out.ljung_box_p = 1.0;
    }
  }

  if (out.variance_ratio <= options.warm_variance_ratio &&
      out.ljung_box_p >= options.ljung_box_alpha) {
    out.action = SarimaRefitAction::Kept;
    out.model = incumbent;
    RRP_COUNTER_ADD("rrp.ts.refits_kept", 1);
    RRP_TRACE_ARG("action", static_cast<int>(out.action));
    return out;
  }

  // Mean handling must follow the incumbent, or the warm-start vector
  // would not match the parameter layout.
  SarimaFitOptions refit_opts = options.scratch;
  refit_opts.mean = incumbent.has_mean ? SarimaFitOptions::Mean::Include
                                       : SarimaFitOptions::Mean::Exclude;
  if (out.variance_ratio <= options.scratch_variance_ratio) {
    refit_opts.optimizer.max_evaluations = options.warm_max_evaluations;
    out.action = SarimaRefitAction::WarmRefit;
    out.model =
        fit_sarima_impl(tail, order, refit_opts, raw_parameters(incumbent));
    RRP_COUNTER_ADD("rrp.ts.warm_refits", 1);
  } else {
    out.action = SarimaRefitAction::ScratchRefit;
    out.model = fit_sarima_impl(tail, order, refit_opts, {});
    RRP_COUNTER_ADD("rrp.ts.scratch_refits", 1);
  }
  RRP_TRACE_ARG("action", static_cast<int>(out.action));
  return out;
}

std::vector<double> forecast(const SarimaModel& model,
                             std::span<const double> x, std::size_t h) {
  RRP_TRACE_SPAN("ts.forecast");
  RRP_EXPECTS(h >= 1);
  const SarimaOrder& order = model.order;

  // Record intermediate series so each differencing layer can be
  // inverted in turn: first the d first-differences, then the D
  // seasonal differences.
  std::vector<std::vector<double>> layers;
  layers.emplace_back(x.begin(), x.end());
  for (std::size_t i = 0; i < order.d; ++i)
    layers.push_back(difference(layers.back(), 1));
  for (std::size_t i = 0; i < order.D; ++i)
    layers.push_back(difference(layers.back(), order.s));

  const std::vector<double>& w = layers.back();
  SparseLags lags;
  lags.assign(model.ar_full, model.ma_full);
  std::vector<double> zext(w.size());
  for (std::size_t t = 0; t < w.size(); ++t) zext[t] = w[t] - model.mean;
  std::vector<double> eext(w.size());
  sparse_css(w, model.mean, lags, eext);

  // Recursive point forecasts on the differenced scale; future
  // innovations are zero.
  for (std::size_t step = 0; step < h; ++step) {
    const std::size_t t = zext.size();
    double pred = 0.0;
    for (const Lag& a : lags.ar) {
      if (t < a.lag) break;
      pred += a.coeff * zext[t - a.lag];
    }
    for (const Lag& m : lags.ma) {
      if (t < m.lag) break;
      pred += m.coeff * eext[t - m.lag];
    }
    zext.push_back(pred);
    eext.push_back(0.0);
  }
  std::vector<double> w_hat(zext.end() - static_cast<std::ptrdiff_t>(h),
                            zext.end());
  for (double& v : w_hat) v += model.mean;

  // Invert the differencing, deepest layer first.
  std::vector<double> cur = std::move(w_hat);
  for (std::size_t i = 0; i < order.D; ++i) {
    const auto& base = layers[layers.size() - 2 - i];
    cur = undifference(base, cur, order.s);
  }
  for (std::size_t i = 0; i < order.d; ++i) {
    const auto& base = layers[order.d - 1 - i];
    cur = undifference(base, cur, 1);
  }
  RRP_ENSURES(cur.size() == h);
  return cur;
}

std::vector<double> mean_forecast(std::span<const double> x, std::size_t h) {
  return std::vector<double>(h, rrp::stats::mean(x));
}

std::vector<double> psi_weights(const SarimaModel& model, std::size_t h) {
  RRP_EXPECTS(h >= 1);
  // Full autoregressive polynomial: phi(B) * Phi(B^s) * (1-B)^d *
  // (1-B^s)^D, as a coefficient array with index = lag.
  std::vector<double> ar_poly(model.ar_full.size() + 1, 0.0);
  ar_poly[0] = 1.0;
  for (std::size_t l = 1; l < ar_poly.size(); ++l)
    ar_poly[l] = -model.ar_full[l - 1];
  const std::vector<double> diff1 = {1.0, -1.0};
  for (std::size_t i = 0; i < model.order.d; ++i)
    ar_poly = poly_multiply(ar_poly, diff1);
  if (model.order.D > 0) {
    std::vector<double> diffs(model.order.s + 1, 0.0);
    diffs[0] = 1.0;
    diffs[model.order.s] = -1.0;
    for (std::size_t i = 0; i < model.order.D; ++i)
      ar_poly = poly_multiply(ar_poly, diffs);
  }
  // Recursion coefficients a_l = -c_l and MA coefficients m_l.
  std::vector<double> psi(h, 0.0);
  psi[0] = 1.0;
  for (std::size_t j = 1; j < h; ++j) {
    double v = j <= model.ma_full.size() ? model.ma_full[j - 1] : 0.0;
    for (std::size_t l = 1; l <= j && l < ar_poly.size(); ++l)
      v += -ar_poly[l] * psi[j - l];
    psi[j] = v;
  }
  return psi;
}

ForecastInterval forecast_interval(const SarimaModel& model,
                                   std::span<const double> x, std::size_t h,
                                   double level) {
  RRP_EXPECTS(level > 0.0 && level < 1.0);
  ForecastInterval out;
  out.level = level;
  out.point = forecast(model, x, h);
  const auto psi = psi_weights(model, h);
  const double z = special::normal_quantile(0.5 + level / 2.0);
  out.lower.resize(h);
  out.upper.resize(h);
  double var = 0.0;
  for (std::size_t step = 0; step < h; ++step) {
    var += psi[step] * psi[step] * model.sigma2;
    const double half_width = z * std::sqrt(var);
    out.lower[step] = out.point[step] - half_width;
    out.upper[step] = out.point[step] + half_width;
  }
  return out;
}

}  // namespace rrp::ts
