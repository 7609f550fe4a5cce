#include "timeseries/acf.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/stats.hpp"

namespace rrp::ts {

std::vector<double> acf(std::span<const double> x, std::size_t max_lag) {
  RRP_EXPECTS(x.size() >= 2);
  RRP_EXPECTS(max_lag < x.size());
  const double m = rrp::stats::mean(x);
  const std::size_t n = x.size();
  double c0 = 0.0;
  for (double v : x) c0 += (v - m) * (v - m);
  c0 /= static_cast<double>(n);
  RRP_EXPECTS(c0 > 0.0);
  std::vector<double> r(max_lag + 1, 0.0);
  r[0] = 1.0;
  for (std::size_t k = 1; k <= max_lag; ++k) {
    double ck = 0.0;
    for (std::size_t t = k; t < n; ++t) ck += (x[t] - m) * (x[t - k] - m);
    ck /= static_cast<double>(n);
    r[k] = ck / c0;
  }
  return r;
}

std::vector<double> pacf(std::span<const double> x, std::size_t max_lag) {
  RRP_EXPECTS(max_lag >= 1);
  const std::vector<double> r = acf(x, max_lag);
  // Durbin-Levinson recursion over the autocorrelation sequence.
  std::vector<double> out(max_lag, 0.0);
  std::vector<double> phi(max_lag + 1, 0.0), prev(max_lag + 1, 0.0);
  double v = 1.0;
  for (std::size_t k = 1; k <= max_lag; ++k) {
    double num = r[k];
    for (std::size_t j = 1; j < k; ++j) num -= prev[j] * r[k - j];
    const double a = num / v;
    phi[k] = a;
    for (std::size_t j = 1; j < k; ++j) phi[j] = prev[j] - a * prev[k - j];
    v *= (1.0 - a * a);
    if (v <= 0.0) v = 1e-12;  // numerically degenerate, keep going
    out[k - 1] = a;
    prev = phi;
  }
  return out;
}

double white_noise_band(std::size_t n) {
  RRP_EXPECTS(n >= 2);
  return 1.96 / std::sqrt(static_cast<double>(n));
}

std::vector<double> pacf_to_ar(std::span<const double> partial) {
  std::vector<double> phi(partial.begin(), partial.end());
  pacf_to_ar_in_place(phi);
  return phi;
}

void pacf_to_ar_in_place(std::span<double> coeffs) {
  for (double r : coeffs) RRP_EXPECTS(std::fabs(r) < 1.0);
  // Order j + 1 from order j: phi_i <- phi_i - a * phi_{j-1-i} for
  // i < j, with a = coeffs[j].  The update pairs i with j-1-i, so each
  // pair is read before either is written.
  for (std::size_t j = 1; j < coeffs.size(); ++j) {
    const double a = coeffs[j];
    for (std::size_t i = 0, k = j - 1; i <= k; ++i, --k) {
      const double lo = coeffs[i];
      const double hi = coeffs[k];
      coeffs[i] = lo - a * hi;
      if (k != i) coeffs[k] = hi - a * lo;
      if (k == 0) break;
    }
  }
}

std::vector<double> ar_to_pacf(std::span<const double> ar) {
  // Runs the Durbin-Levinson step-down: at order j the last coefficient
  // IS the j-th partial, and the order-(j-1) coefficients satisfy
  // prev[i] = (cur[i] + a * cur[j-1-i]) / (1 - a^2).
  const std::size_t k = ar.size();
  std::vector<double> partial(k, 0.0);
  std::vector<double> cur(ar.begin(), ar.end());
  constexpr double kEdge = 1.0 - 1e-9;
  for (std::size_t j = k; j > 0; --j) {
    double a = cur[j - 1];
    if (!(std::fabs(a) < kEdge)) a = std::copysign(kEdge, a);
    partial[j - 1] = a;
    const double denom = std::max(1.0 - a * a, 1e-12);
    std::vector<double> prev(j - 1, 0.0);
    for (std::size_t i = 0; i + 1 < j; ++i)
      prev[i] = (cur[i] + a * cur[j - 2 - i]) / denom;
    cur = std::move(prev);
  }
  return partial;
}

}  // namespace rrp::ts
