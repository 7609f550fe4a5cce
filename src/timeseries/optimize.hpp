// Local optimisers for the time-series fitters.  Kept generic: any
// callable on a parameter vector can be minimised.
//
//  * levenberg_marquardt minimises a sum of squared residuals; the
//    SARIMA fitter uses it on the conditional-sum-of-squares residuals.
//  * nelder_mead is a derivative-free simplex search on a scalar
//    objective; the ETS fitter uses it.
#pragma once

#include <functional>
#include <span>
#include <vector>

namespace rrp::ts {

struct LeastSquaresOptions {
  /// Cap on residual evaluations, Jacobian columns included.
  std::size_t max_evaluations = 20000;
  /// Converged when every Jacobian column is this close to orthogonal
  /// to the residual vector: max_j |J_j . r| / (|J_j| |r|).
  double gradient_tolerance = 1e-7;
  /// Converged when a step's actual and predicted decrease of the sum
  /// of squares are both at most this fraction of it.
  double decrease_tolerance = 1e-9;
};

struct LeastSquaresResult {
  std::vector<double> x;
  double value = 0.0;  ///< sum of squared residuals at x
  std::size_t evaluations = 0;
  bool converged = false;
};

/// Returns the residual vector at a parameter point.  The span must stay
/// valid until the next call, and every call must return the same
/// number of residuals.
using ResidualFn =
    std::function<std::span<const double>(std::span<const double>)>;

/// Minimises the sum of squared residuals starting from `start`, by
/// Levenberg-Marquardt with a forward-difference Jacobian (one residual
/// evaluation per parameter), Marquardt's diagonal scaling and
/// Nielsen's damping update; an accepted step that overshoots the
/// minimum along its direction gets one parabolic retry.  A step whose
/// residuals are not all finite is rejected like one that does not
/// decrease the sum.
LeastSquaresResult levenberg_marquardt(const ResidualFn& residuals,
                                       std::vector<double> start,
                                       const LeastSquaresOptions& options = {});

struct NelderMeadOptions {
  std::size_t max_evaluations = 20000;
  double initial_step = 0.1;     ///< simplex edge relative to start point
  double tolerance = 1e-10;      ///< spread of simplex values at convergence
  double tolerance_x = 1e-7;     ///< simplex diameter at convergence
  double reflection = 1.0;
  double expansion = 2.0;
  double contraction = 0.5;
  double shrink = 0.5;
};

struct NelderMeadResult {
  std::vector<double> x;
  double value = 0.0;
  std::size_t evaluations = 0;
  bool converged = false;
};

/// Minimises `fn` starting from `start`.  The objective may return
/// +infinity to reject a region (used for penalised constraints).
NelderMeadResult nelder_mead(
    const std::function<double(const std::vector<double>&)>& fn,
    std::vector<double> start, const NelderMeadOptions& options = {});

}  // namespace rrp::ts
