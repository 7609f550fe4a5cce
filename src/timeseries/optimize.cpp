#include "timeseries/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.hpp"

namespace rrp::ts {

namespace {

/// Solves (A + mu diag(d)) h = -g for the n x n row-major symmetric
/// positive semi-definite A by Cholesky, with `factor` as scratch.
/// False when the damped matrix is not numerically positive definite.
bool solve_damped(std::span<const double> a, std::span<const double> d,
                  double mu, std::span<const double> g,
                  std::span<double> factor, std::span<double> h) {
  const std::size_t n = g.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a[i * n + j] + (i == j ? mu * d[i] : 0.0);
      for (std::size_t k = 0; k < j; ++k)
        sum -= factor[i * n + k] * factor[j * n + k];
      if (i == j) {
        if (!(sum > 0.0)) return false;
        factor[i * n + i] = std::sqrt(sum);
      } else {
        factor[i * n + j] = sum / factor[j * n + j];
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double sum = -g[i];
    for (std::size_t k = 0; k < i; ++k) sum -= factor[i * n + k] * h[k];
    h[i] = sum / factor[i * n + i];
  }
  for (std::size_t i = n; i-- > 0;) {
    double sum = h[i];
    for (std::size_t k = i + 1; k < n; ++k) sum -= factor[k * n + i] * h[k];
    h[i] = sum / factor[i * n + i];
  }
  return std::all_of(h.begin(), h.end(),
                     [](double v) { return std::isfinite(v); });
}

}  // namespace

LeastSquaresResult levenberg_marquardt(const ResidualFn& residuals,
                                       std::vector<double> start,
                                       const LeastSquaresOptions& opt) {
  const std::size_t n = start.size();
  RRP_EXPECTS(n >= 1);
  RRP_EXPECTS(opt.max_evaluations >= 1);

  LeastSquaresResult result;
  result.x = std::move(start);
  ++result.evaluations;
  const std::span<const double> r0 = residuals(result.x);
  const std::size_t m = r0.size();
  std::vector<double> r(r0.begin(), r0.end());
  // Copies the residuals at `x` into `out` and returns their sum of
  // squares, which is not finite when a residual is not.
  auto evaluate = [&](std::span<const double> x, std::vector<double>& out) {
    ++result.evaluations;
    const std::span<const double> v = residuals(x);
    RRP_EXPECTS(v.size() == m);
    std::copy(v.begin(), v.end(), out.begin());
    double sum = 0.0;
    for (double e : out) sum += e * e;
    return sum;
  };
  for (double e : r) result.value += e * e;
  if (!std::isfinite(result.value)) {
    result.value = std::numeric_limits<double>::infinity();
    return result;
  }

  // Jacobian (column-major, m x n), the normal matrix A = J'J, the
  // gradient g = J'r, and Marquardt's diagonal scale.
  std::vector<double> jac(m * n), trial(m), x_new(n), retry(m), x_retry(n);
  std::vector<double> a(n * n), g(n), scale(n, 0.0), factor(n * n), h(n);
  const double step_rel = std::sqrt(std::numeric_limits<double>::epsilon());
  double mu = 1e-3;
  double nu = 2.0;
  bool have_jacobian = false;
  for (;;) {
    if (!have_jacobian) {
      // Room for the n columns and at least one trial step.
      if (result.evaluations + n + 1 > opt.max_evaluations) break;
      for (std::size_t j = 0; j < n; ++j) {
        x_new = result.x;
        x_new[j] += step_rel * std::max(std::fabs(result.x[j]), 1.0);
        const double step = x_new[j] - result.x[j];
        const bool finite = std::isfinite(evaluate(x_new, trial));
        double* col = jac.data() + j * m;
        for (std::size_t i = 0; i < m; ++i)
          col[i] = finite ? (trial[i] - r[i]) / step : 0.0;
      }
      for (std::size_t j = 0; j < n; ++j) {
        const double* cj = jac.data() + j * m;
        double gj = 0.0;
        for (std::size_t i = 0; i < m; ++i) gj += cj[i] * r[i];
        g[j] = gj;
        for (std::size_t k = 0; k <= j; ++k) {
          const double* ck = jac.data() + k * m;
          double s = 0.0;
          for (std::size_t i = 0; i < m; ++i) s += cj[i] * ck[i];
          a[j * n + k] = s;
          a[k * n + j] = s;
        }
        // The scale follows diag(A) up at once but down by at most 4x
        // per Jacobian: a parameter whose column shrinks (a tanh-mapped
        // one nearing saturation, say) speeds up over a few steps
        // instead of leaping into the flat region in one.
        scale[j] = std::max(a[j * n + j], 0.25 * scale[j]);
      }
      have_jacobian = true;

      double cosine = 0.0;
      const double r_norm = std::sqrt(result.value);
      for (std::size_t j = 0; j < n; ++j) {
        if (a[j * n + j] > 0.0)
          cosine = std::max(cosine, std::fabs(g[j]) /
                                        (std::sqrt(a[j * n + j]) * r_norm));
      }
      if (result.value == 0.0 || cosine <= opt.gradient_tolerance) {
        result.converged = true;
        break;
      }
    }
    if (result.evaluations + 1 > opt.max_evaluations) break;

    // A column that has never moved the residuals gets a small scale
    // relative to the others, so the damped matrix stays definite.
    const double floor =
        1e-12 * *std::max_element(scale.begin(), scale.end());
    for (double& s : scale) s = std::max(s, floor);
    if (!solve_damped(a, scale, mu, g, factor, h)) {
      mu *= nu;
      nu *= 2.0;
      if (!std::isfinite(mu)) break;
      continue;
    }
    // Decrease of the sum of squares the linear model predicts, and the
    // sum's slope along h.
    double predicted = 0.0;
    double slope = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      predicted += h[j] * (mu * scale[j] * h[j] - g[j]);
      slope += 2.0 * g[j] * h[j];
      x_new[j] = result.x[j] + h[j];
    }
    double value_new = evaluate(x_new, trial);
    const double actual = result.value - value_new;
    const double tiny = opt.decrease_tolerance * result.value;
    const bool stalled = predicted <= tiny && std::fabs(actual) <= tiny;
    if (std::isfinite(value_new) && actual > 0.0) {
      // Gauss-Newton leaves out the residuals' own curvature, and near
      // a ridge of the sum it overshoots along h.  The parabola through
      // the two values and the slope locates the minimum along h; when
      // it lies well short of the step, one more evaluation tries it.
      const double curvature = value_new - result.value - slope;
      const double t = curvature > 0.0 ? -slope / (2.0 * curvature) : 1.0;
      if (t > 0.1 && t < 0.8 &&
          result.evaluations + 1 <= opt.max_evaluations) {
        for (std::size_t j = 0; j < n; ++j)
          x_retry[j] = result.x[j] + t * h[j];
        const double value_retry = evaluate(x_retry, retry);
        if (value_retry < value_new) {
          std::swap(x_new, x_retry);
          std::swap(trial, retry);
          value_new = value_retry;
        }
      }
      std::swap(result.x, x_new);
      std::swap(r, trial);
      result.value = value_new;
      have_jacobian = false;
      const double rho = actual / predicted;
      const double c = 2.0 * rho - 1.0;
      mu = std::max(mu * std::max(1.0 / 3.0, 1.0 - c * c * c), 1e-15);
      nu = 2.0;
    } else {
      mu *= nu;
      nu *= 2.0;
    }
    if (stalled) {
      result.converged = true;
      break;
    }
    if (!std::isfinite(mu)) break;
  }
  return result;
}

NelderMeadResult nelder_mead(
    const std::function<double(const std::vector<double>&)>& fn,
    std::vector<double> start, const NelderMeadOptions& opt) {
  const std::size_t n = start.size();
  RRP_EXPECTS(n >= 1);

  NelderMeadResult result;
  result.evaluations = 0;
  auto eval = [&](const std::vector<double>& x) {
    ++result.evaluations;
    const double v = fn(x);
    return std::isnan(v) ? std::numeric_limits<double>::infinity() : v;
  };

  // Initial simplex: start point plus one perturbed vertex per dimension.
  std::vector<std::vector<double>> simplex;
  std::vector<double> values;
  simplex.push_back(start);
  values.push_back(eval(start));
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> v = start;
    const double step =
        opt.initial_step * (std::fabs(v[i]) > 1e-8 ? std::fabs(v[i]) : 1.0);
    v[i] += step;
    simplex.push_back(v);
    values.push_back(eval(simplex.back()));
  }

  std::vector<std::size_t> order(n + 1);
  while (result.evaluations < opt.max_evaluations) {
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&values](std::size_t a,
                                                    std::size_t b) {
      return values[a] < values[b];
    });
    const std::size_t best = order.front();
    const std::size_t worst = order.back();
    const std::size_t second_worst = order[n - 1];

    if (std::isfinite(values[best]) &&
        values[worst] - values[best] <
            opt.tolerance * (1.0 + std::fabs(values[best]))) {
      // Value spread alone can vanish with vertices straddling the
      // minimum; also require the simplex itself to have collapsed.
      double diameter = 0.0;
      for (std::size_t k = 0; k <= n; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
          diameter = std::max(
              diameter, std::fabs(simplex[k][i] - simplex[best][i]) /
                            (1.0 + std::fabs(simplex[best][i])));
        }
      }
      if (diameter < opt.tolerance_x) {
        result.converged = true;
        break;
      }
    }

    // Centroid of all but the worst vertex.
    std::vector<double> centroid(n, 0.0);
    for (std::size_t k = 0; k <= n; ++k) {
      if (k == worst) continue;
      for (std::size_t i = 0; i < n; ++i) centroid[i] += simplex[k][i];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    auto along = [&](double t) {
      std::vector<double> x(n);
      for (std::size_t i = 0; i < n; ++i)
        x[i] = centroid[i] + t * (centroid[i] - simplex[worst][i]);
      return x;
    };

    const std::vector<double> reflected = along(opt.reflection);
    const double fr = eval(reflected);
    if (fr < values[best]) {
      const std::vector<double> expanded = along(opt.expansion);
      const double fe = eval(expanded);
      if (fe < fr) {
        simplex[worst] = expanded;
        values[worst] = fe;
      } else {
        simplex[worst] = reflected;
        values[worst] = fr;
      }
    } else if (fr < values[second_worst]) {
      simplex[worst] = reflected;
      values[worst] = fr;
    } else {
      const bool outside = fr < values[worst];
      const std::vector<double> contracted =
          along(outside ? opt.contraction : -opt.contraction);
      const double fc = eval(contracted);
      if (fc < std::min(fr, values[worst])) {
        simplex[worst] = contracted;
        values[worst] = fc;
      } else {
        // Shrink toward the best vertex.
        for (std::size_t k = 0; k <= n; ++k) {
          if (k == best) continue;
          for (std::size_t i = 0; i < n; ++i) {
            simplex[k][i] = simplex[best][i] +
                            opt.shrink * (simplex[k][i] - simplex[best][i]);
          }
          values[k] = eval(simplex[k]);
        }
      }
    }
  }

  const auto best_it = std::min_element(values.begin(), values.end());
  result.value = *best_it;
  result.x = simplex[static_cast<std::size_t>(
      std::distance(values.begin(), best_it))];
  return result;
}

}  // namespace rrp::ts
