#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/invariant.hpp"
#include "obs/obs.hpp"

namespace rrp::lp {

namespace {
constexpr double kPivotTol = 1e-9;
/// install_basis() moves the current factor onto a start basis by
/// column replacement when at most m / kReplaceShare positions differ;
/// beyond that one fresh factorisation is cheaper than the FTRANs and
/// the eta fill the replacements would cost.
constexpr std::size_t kReplaceShare = 8;
/// A replacement pivot below this fraction of its FTRAN column's
/// largest entry would amplify rounding through the eta file, so the
/// install falls back to a fresh factorisation instead.
constexpr double kReplacePivotRatio = 1e-6;
/// Relative residual of B x_B + sum_nonbasic A_j v_j = 0 beyond which
/// the end of a solve refactorises and recomputes x_B.
constexpr double kResidualTol = 1e-9;

// Process-wide factorisation counters for the metrics scrape; a
// solver's own counts are its factor_stats().  Three sites share the
// eta counter, so both are cached accessors rather than macro sites.
obs::Counter& refactorizations_counter() {
  static obs::Counter& c =
      obs::global_registry().counter("rrp.lp.refactorizations");
  return c;
}
obs::Counter& eta_updates_counter() {
  static obs::Counter& c =
      obs::global_registry().counter("rrp.lp.eta_updates");
  return c;
}
}  // namespace

SimplexSolver::SimplexSolver(const LinearProgram& lp) {
  m_ = lp.num_rows();
  n_ = lp.num_variables();
  total_ = n_ + m_;
  sense_ = lp.sense();

  cols_.resize(total_);
  lb_.assign(total_, 0.0);
  ub_.assign(total_, kInfinity);
  obj_.assign(n_, 0.0);
  for (std::size_t j = 0; j < n_; ++j) {
    lb_[j] = lp.variable(j).lo;
    ub_[j] = lp.variable(j).hi;
    obj_[j] = lp.variable(j).objective;
  }
  row_start_.assign(1, 0);
  for (std::size_t r = 0; r < m_; ++r) {
    for (const Entry& e : lp.row(r).entries) {
      cols_[e.col].push_back(Entry{r, e.coeff});
      rows_.push_back(e);
    }
    row_start_.push_back(rows_.size());
    // Slack: a'x - s = 0, s in [row.lo, row.hi].
    const std::size_t s = n_ + r;
    cols_[s].push_back(Entry{r, -1.0});
    lb_[s] = lp.row(r).lo;
    ub_[s] = lp.row(r).hi;
  }

  status_.assign(total_, BasisStatus::AtLower);
  value_.assign(total_, 0.0);
  basis_.resize(m_);
  xb_.resize(m_);
  w_.resize(m_);
  y_.resize(m_);
  rho_.resize(m_);
  rhs_.resize(m_);
  resid_.resize(m_);
  cost_.assign(total_, 0.0);
  d_.assign(total_, 0.0);
  alpha_dense_.assign(n_, 0.0);
}

void SimplexSolver::set_variable_bounds(std::size_t j, double lo, double hi) {
  RRP_EXPECTS(j < n_);
  RRP_EXPECTS(lo <= hi);
  lb_[j] = lo;
  ub_[j] = hi;
}

void SimplexSolver::set_objective(std::size_t j, double coeff) {
  RRP_EXPECTS(j < n_);
  RRP_EXPECTS(std::isfinite(coeff));
  obj_[j] = coeff;
}

void SimplexSolver::add_row(const Row& row) {
  RRP_EXPECTS(row.lo <= row.hi);
  const std::size_t r = m_;
  for (const Entry& e : row.entries) {
    RRP_EXPECTS(e.col < n_);
    cols_[e.col].push_back(Entry{r, e.coeff});
    rows_.push_back(e);
  }
  row_start_.push_back(rows_.size());
  // The new slack takes index n_ + r, after every existing column, and
  // enters the basis at the new position r: the extended basis is block
  // triangular, so it stays nonsingular, and every reduced cost is
  // unchanged, so an optimal basis stays dual feasible.  A current
  // factor is bordered with the row's coefficients on the basic
  // columns, the last entry of each column that has one in row r.
  if (factor_current_) {
    border_.clear();
    for (std::size_t pos = 0; pos < m_; ++pos) {
      const std::vector<Entry>& col = cols_[basis_[pos]];
      if (!col.empty() && col.back().col == r)
        border_.push_back(Entry{pos, col.back().coeff});
    }
    lu_.append_row(border_);
  }
  cols_.push_back({Entry{r, -1.0}});
  lb_.push_back(row.lo);
  ub_.push_back(row.hi);
  status_.push_back(BasisStatus::Basic);
  value_.push_back(0.0);
  basis_.push_back(n_ + r);
  ++m_;
  ++total_;
  for (std::vector<double>* v : {&xb_, &w_, &y_, &rho_, &rhs_, &resid_})
    v->resize(m_);
  cost_.push_back(0.0);
  d_.push_back(0.0);
}

void SimplexSolver::ftran(std::size_t j) const {
  // w = Binv * A_j, via the sparse solve B w = A_j.
  for (std::size_t i : w_nz_) w_[i] = 0.0;
  w_nz_.clear();
  for (const Entry& e : cols_[j]) {
    w_[e.col] += e.coeff;
    w_nz_.push_back(e.col);
  }
  lu_.ftran(w_, w_nz_);
}

void SimplexSolver::compute_duals(const std::vector<double>& cost) const {
  // y = c_B^T * Binv, via the sparse solve B^T y = c_B.
  for (std::size_t i = 0; i < m_; ++i) y_[i] = cost[basis_[i]];
  list_nonzeros(y_, y_nz_);
  lu_.btran(y_, y_nz_);
}

double SimplexSolver::reduced_cost(std::size_t j,
                                   const std::vector<double>& cost) const {
  double d = cost[j];
  for (const Entry& e : cols_[j]) d -= y_[e.col] * e.coeff;
  return d;
}

void SimplexSolver::price_nonbasic(const std::vector<double>& cost) {
  compute_duals(cost);
  for (std::size_t j = 0; j < total_; ++j)
    d_[j] = status_[j] == BasisStatus::Basic ? 0.0 : reduced_cost(j, cost);
}

void SimplexSolver::form_pivot_row() {
  // alpha_j = rho' A_j over rho's nonzeros: each structural alpha sums
  // rho_i * a_ij over i ascending, the order of its column in cols_, so
  // it is the same double a column scan gives.  A slack's column is
  // -e_i, so its alpha is -rho_i.  alpha_dense_ is all +0.0 between
  // calls; a column enters alpha_cols_ again when its sum cancels to
  // zero, which the sort + unique folds away.  Both passes walk rho's
  // ascending nonzero list.
  alpha_cols_.clear();
  for (std::size_t i : rho_nz_) {
    const double rho_i = rho_[i];
    if (rho_i == 0.0) continue;
    for (std::size_t k = row_start_[i]; k < row_start_[i + 1]; ++k) {
      const std::size_t j = rows_[k].col;
      if (status_[j] == BasisStatus::Basic) continue;
      if (alpha_dense_[j] == 0.0) alpha_cols_.push_back(j);
      alpha_dense_[j] += rho_i * rows_[k].coeff;
    }
  }
  std::sort(alpha_cols_.begin(), alpha_cols_.end());
  alpha_cols_.erase(std::unique(alpha_cols_.begin(), alpha_cols_.end()),
                    alpha_cols_.end());
  alpha_row_.clear();
  for (std::size_t j : alpha_cols_) {
    alpha_row_.push_back(Entry{j, alpha_dense_[j]});
    alpha_dense_[j] = 0.0;
  }
  for (std::size_t i : rho_nz_) {
    if (rho_[i] != 0.0 && status_[n_ + i] != BasisStatus::Basic)
      alpha_row_.push_back(Entry{n_ + i, -rho_[i]});
  }
}

void SimplexSolver::refactorize() {
  RRP_TRACE_SPAN("lp.refactor");
  lu_.factorize(m_, cols_, basis_);  // throws NumericalError if singular
  const double fill = lu_.fill_ratio();
  ++factor_stats_.refactorizations;
  factor_stats_.fill_ratio_sum += fill;
  refactorizations_counter().add(1);
  RRP_TRACE_ARG("fill_ratio", fill);
  RRP_HISTOGRAM_OBSERVE("rrp.lp.fill_ratio", fill,
                        {1.0, 1.5, 2.0, 3.0, 5.0, 8.0});
  // Fill trigger for the eta file: once the accumulated eta nonzeros
  // outgrow the factor itself, replaying them costs more than a fresh
  // factorisation would.
  eta_nnz_cap_ = std::max<std::size_t>(4 * m_, 2 * lu_.factor_nonzeros());
  pivots_since_refactor_ = 0;
  recompute_basic_values();
#if RRP_INVARIANTS_ENABLED
  // Cheap structural check on every refactorization; the expensive
  // Binv*B dcheck runs only at solve end (see check_basis()).
  verify_basis(m_, total_, basis_);
#endif
}

void SimplexSolver::recompute_basic_values() {
  // x_B = Binv * (0 - sum_nonbasic A_j v_j).
  std::fill(rhs_.begin(), rhs_.end(), 0.0);
  for (std::size_t j = 0; j < total_; ++j) {
    if (status_[j] == BasisStatus::Basic || value_[j] == 0.0) continue;
    for (const Entry& e : cols_[j]) rhs_[e.col] -= e.coeff * value_[j];
  }
  xb_ = rhs_;
  list_nonzeros(xb_, xb_nz_);
  lu_.ftran(xb_, xb_nz_);
}

bool SimplexSolver::basic_values_accurate() const {
  // rhs_ still holds -sum_nonbasic A_j v_j from recompute_basic_values(),
  // so the residual of the system is B x_B - rhs_.
  std::fill(resid_.begin(), resid_.end(), 0.0);
  double scale = 0.0;
  for (std::size_t pos = 0; pos < m_; ++pos) {
    scale = std::max(scale, std::fabs(xb_[pos]));
    for (const Entry& e : cols_[basis_[pos]])
      resid_[e.col] += e.coeff * xb_[pos];
  }
  double residual = 0.0;
  for (std::size_t i = 0; i < m_; ++i) {
    scale = std::max(scale, std::fabs(rhs_[i]));
    residual = std::max(residual, std::fabs(resid_[i] - rhs_[i]));
  }
  return residual <= kResidualTol * (1.0 + scale);
}

void SimplexSolver::check_basis() const {
#if RRP_INVARIANTS_ENABLED
  verify_basis(m_, total_, basis_);
  std::size_t basic_count = 0;
  for (std::size_t j = 0; j < total_; ++j)
    if (status_[j] == BasisStatus::Basic) ++basic_count;
  RRP_INVARIANT_MSG(basic_count == m_,
                    std::to_string(basic_count) + " variables marked basic");
  for (std::size_t i = 0; i < m_; ++i)
    RRP_INVARIANT(status_[basis_[i]] == BasisStatus::Basic);
  // Factorization dcheck: Binv * B ~= I, verified column by column via
  // FTRAN.  The full sweep is O(m^2) solves — prohibitive at the sparse
  // solver's problem sizes — so by default a deterministic sample of at
  // most 8 columns is checked; define RRP_EXPENSIVE_INVARIANTS to
  // opt in to the exhaustive sweep.
#if defined(RRP_EXPENSIVE_INVARIANTS)
  const std::size_t stride = 1;
#else
  const std::size_t stride = std::max<std::size_t>(1, m_ / 8);
#endif
  for (std::size_t pos = 0; pos < m_; pos += stride) {
    ftran(basis_[pos]);
    for (std::size_t i = 0; i < m_; ++i) {
      const double expect = i == pos ? 1.0 : 0.0;
      RRP_DCHECK_MSG(std::fabs(w_[i] - expect) <= 1e-5,
                     "Binv*B deviates at (" + std::to_string(i) + "," +
                         std::to_string(pos) + ")");
    }
  }
#endif
}

void SimplexSolver::check_optimality(const std::vector<double>& cost) const {
#if RRP_INVARIANTS_ENABLED
  // Primal feasibility: every basic value within its bounds.
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t bi = basis_[i];
    const double ptol = 1e-5 * (1.0 + std::fabs(xb_[i]));
    RRP_INVARIANT_MSG(xb_[i] >= lb_[bi] - ptol && xb_[i] <= ub_[bi] + ptol,
                      "basic variable " + std::to_string(bi) +
                          " out of bounds: " + std::to_string(xb_[i]));
  }
  // Dual: reduced costs bounded — no nonbasic variable may price out as
  // an improving direction beyond tolerance at a claimed optimum.
  double cscale = 0.0;
  for (double c : cost) cscale = std::max(cscale, std::fabs(c));
  const double dtol = 1e-4 * (1.0 + cscale);
  compute_duals(cost);
  for (std::size_t j = 0; j < total_; ++j) {
    if (status_[j] == BasisStatus::Basic) continue;
    if (lb_[j] == ub_[j])  // rrp-lint: allow(float-equality)
      continue;  // fixed: any reduced cost is fine
    const double d = reduced_cost(j, cost);
    RRP_INVARIANT_MSG(std::isfinite(d),
                      "reduced cost of " + std::to_string(j) + " not finite");
    switch (status_[j]) {
      case BasisStatus::AtLower:
        RRP_INVARIANT_MSG(d >= -dtol, "improving reduced cost " +
                                          std::to_string(d) + " at lower");
        break;
      case BasisStatus::AtUpper:
        RRP_INVARIANT_MSG(d <= dtol, "improving reduced cost " +
                                         std::to_string(d) + " at upper");
        break;
      case BasisStatus::FreeAtZero:
        RRP_INVARIANT_MSG(std::fabs(d) <= dtol,
                          "free variable with nonzero reduced cost " +
                              std::to_string(d));
        break;
      case BasisStatus::Basic:
        break;
    }
  }
#else
  (void)cost;
#endif
}

void SimplexSolver::check_reduced_costs(const std::vector<double>& cost)
    const {
#if RRP_INVARIANTS_ENABLED
  // run_dual's updated d_ against reduced costs priced afresh through
  // the current factor.
  double cscale = 0.0;
  for (double c : cost) cscale = std::max(cscale, std::fabs(c));
  const double tol = 1e-9 * (1.0 + cscale);
  compute_duals(cost);
  for (std::size_t j = 0; j < total_; ++j) {
    if (status_[j] == BasisStatus::Basic) continue;
    const double fresh = reduced_cost(j, cost);
    RRP_INVARIANT_MSG(std::fabs(d_[j] - fresh) <= tol,
                      "updated reduced cost of " + std::to_string(j) + " is " +
                          std::to_string(d_[j]) + ", priced afresh " +
                          std::to_string(fresh));
  }
#else
  (void)cost;
#endif
}

void SimplexSolver::check_work_lists() const {
#if RRP_INVARIANTS_ENABLED
  const auto check = [this](const std::vector<double>& v,
                            const std::vector<std::size_t>& nz,
                            const char* name) {
    std::vector<char> listed(m_, 0);
    for (std::size_t k = 0; k < nz.size(); ++k) {
      RRP_INVARIANT_MSG(nz[k] < m_ && (k == 0 || nz[k - 1] < nz[k]),
                        std::string(name) +
                            "'s nonzero list is not ascending at entry " +
                            std::to_string(k));
      listed[nz[k]] = 1;
    }
    for (std::size_t i = 0; i < m_; ++i)
      RRP_INVARIANT_MSG(listed[i] != 0 || v[i] == 0.0,
                        std::string(name) + "[" + std::to_string(i) +
                            "] is nonzero outside its list");
  };
  check(w_, w_nz_, "w");
  check(rho_, rho_nz_, "rho");
#endif
}

double SimplexSolver::current_objective(const std::vector<double>& cost)
    const {
  double obj = 0.0;
  for (std::size_t j = 0; j < total_; ++j) {
    if (status_[j] != BasisStatus::Basic && cost[j] != 0.0)
      obj += cost[j] * value_[j];
  }
  for (std::size_t i = 0; i < m_; ++i) obj += cost[basis_[i]] * xb_[i];
  return obj;
}

SimplexSolver::PhaseResult SimplexSolver::run_phase(
    const std::vector<double>& cost, std::size_t max_iters) {
  const double dtol = opt_->optimality_tol;
  std::size_t stall = 0;
  double last_obj = current_objective(cost);
  bool use_bland = opt_->pricing == Pricing::Bland;
  const auto done = [&](PhaseResult result) {
    check_work_lists();
    return result;
  };

  for (std::size_t iter = 0; iter < max_iters; ++iter, ++iterations_) {
    // One deadline poll per pivot; a pointer compare when unlimited.
    if (opt_->deadline.expired()) return done(PhaseResult::TimeLimit);
    RRP_COUNTER_ADD("rrp.lp.pivots.primal", 1);
    compute_duals(cost);

    // --- Pricing: choose the entering variable and its direction. ---
    std::size_t enter = total_;
    int dir = 0;
    double best_score = dtol;
    for (std::size_t j = 0; j < total_; ++j) {
      if (status_[j] == BasisStatus::Basic) continue;
      if (lb_[j] == ub_[j])  // rrp-lint: allow(float-equality)
        continue;  // fixed: can never move
      const double d = reduced_cost(j, cost);
      int cand_dir = 0;
      double score = 0.0;
      switch (status_[j]) {
        case BasisStatus::AtLower:
          if (d < -dtol) { cand_dir = +1; score = -d; }
          break;
        case BasisStatus::AtUpper:
          if (d > dtol) { cand_dir = -1; score = d; }
          break;
        case BasisStatus::FreeAtZero:
          if (std::fabs(d) > dtol) {
            cand_dir = d < 0.0 ? +1 : -1;
            score = std::fabs(d);
          }
          break;
        case BasisStatus::Basic:
          break;
      }
      if (cand_dir == 0) continue;
      if (use_bland) {  // first eligible index
        enter = j;
        dir = cand_dir;
        break;
      }
      if (score > best_score) {
        best_score = score;
        enter = j;
        dir = cand_dir;
      }
    }
    if (enter == total_) return done(PhaseResult::Optimal);

    // --- Ratio test. ---
    ftran(enter);
    // Limit from the entering variable's own opposite bound.
    double t_max = kInfinity;
    int limit_kind = 0;  // 0: own bound flip, 1: basic leaves
    std::size_t leave_pos = m_;
    bool leave_at_upper = false;
    if (dir > 0 && ub_[enter] < kInfinity) t_max = ub_[enter] - value_[enter];
    if (dir < 0 && lb_[enter] > -kInfinity) t_max = value_[enter] - lb_[enter];

    for (std::size_t i : w_nz_) {
      const double delta = -static_cast<double>(dir) * w_[i];  // d x_B[i]/dt
      if (std::fabs(delta) <= kPivotTol) continue;
      const std::size_t bi = basis_[i];
      double t_i = kInfinity;
      bool hits_upper = false;
      if (delta < 0.0) {
        if (lb_[bi] > -kInfinity) t_i = (xb_[i] - lb_[bi]) / (-delta);
      } else {
        if (ub_[bi] < kInfinity) {
          t_i = (ub_[bi] - xb_[i]) / delta;
          hits_upper = true;
        }
      }
      if (t_i < -opt_->feasibility_tol) t_i = 0.0;  // clamp tiny negatives
      t_i = std::max(t_i, 0.0);
      // Prefer strictly smaller ratios; among near-ties keep the larger
      // pivot element for numerical stability.
      if (t_i < t_max - 1e-12 ||
          (t_i < t_max + 1e-12 && limit_kind == 1 &&
           std::fabs(w_[i]) > std::fabs(w_[leave_pos]))) {
        t_max = t_i;
        limit_kind = 1;
        leave_pos = i;
        leave_at_upper = hits_upper;
      }
    }

    if (t_max == kInfinity) return done(PhaseResult::Unbounded);

    // --- Apply the step. ---
    const double step = std::max(t_max, 0.0);
    for (std::size_t i : w_nz_)
      xb_[i] -= static_cast<double>(dir) * step * w_[i];

    if (limit_kind == 0) {
      // Bound flip: the entering variable moves to its other bound.
      value_[enter] += static_cast<double>(dir) * step;
      status_[enter] =
          dir > 0 ? BasisStatus::AtUpper : BasisStatus::AtLower;
    } else {
      const std::size_t leave = basis_[leave_pos];
      // Snap the leaving variable exactly onto its bound.
      value_[leave] = leave_at_upper ? ub_[leave] : lb_[leave];
      status_[leave] =
          leave_at_upper ? BasisStatus::AtUpper : BasisStatus::AtLower;
      const double enter_val = value_[enter] + static_cast<double>(dir) * step;
      basis_[leave_pos] = enter;
      status_[enter] = BasisStatus::Basic;
      xb_[leave_pos] = enter_val;
      // Product-form eta update of the factorisation.
      const double piv = w_[leave_pos];
      if (std::fabs(piv) < kPivotTol)
        throw NumericalError("simplex: vanishing pivot element");
      lu_.update(leave_pos, w_, w_nz_);
      ++factor_stats_.eta_updates;
      eta_updates_counter().add(1);
      if (++pivots_since_refactor_ >= opt_->refactor_every ||
          lu_.eta_nonzeros() > eta_nnz_cap_)
        refactorize();
    }

    // --- Stall detection -> Bland fallback. ---
    const double obj = current_objective(cost);
    if (obj < last_obj - 1e-10 * (1.0 + std::fabs(last_obj))) {
      stall = 0;
      if (opt_->pricing != Pricing::Bland) use_bland = false;
      last_obj = obj;
    } else if (++stall >= opt_->stall_limit) {
      use_bland = true;
    }
  }
  return done(PhaseResult::IterationLimit);
}

SimplexSolver::DualResult SimplexSolver::run_dual(
    const std::vector<double>& cost, std::size_t max_iters, bool bland) {
  // Bounded-variable dual simplex: pick the basic variable with the
  // largest bound violation, drive it exactly onto the violated bound,
  // and admit the entering column by the dual ratio test (min |d|/|a|),
  // which preserves dual feasibility of the starting basis.  When no
  // column can move the leaving row toward its bound, row r is a primal
  // infeasibility certificate independent of the objective.  Under
  // Bland's rule (requested, or after stall_limit pivots without dual
  // progress) both choices take the least variable index instead, which
  // keeps fully degenerate runs finite.
  //
  // d_ holds every nonbasic reduced cost, priced from one BTRAN of c_B
  // at the first pivot of a run and at the first one after a
  // refactorisation; every other pivot updates it from the pivot row
  // alpha_r the ratio test forms anyway (y moves by theta_D * rho, so
  // d_j drops by theta_D * alpha_rj), which leaves one BTRAN per pivot:
  // rho itself.
  bool priced = false;
  const bool pinned_bland = bland || opt_->pricing == Pricing::Bland;
  bool use_bland = pinned_bland;
  std::size_t stall = 0;
  const auto done = [&](DualResult result) {
    if (priced) check_reduced_costs(cost);
    check_work_lists();
    return result;
  };
  for (std::size_t iter = 0; iter < max_iters; ++iter, ++iterations_) {
    if (opt_->deadline.expired()) return done(DualResult::TimeLimit);
    RRP_COUNTER_ADD("rrp.lp.pivots.dual", 1);

    // --- Leaving row: most violated (or least-index) basic variable. ---
    std::size_t r = m_;
    bool below = false;
    double worst = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t bi = basis_[i];
      const double tol = opt_->feasibility_tol * (1.0 + std::fabs(xb_[i]));
      const double under = lb_[bi] - xb_[i];
      const double over = xb_[i] - ub_[bi];
      const double viol = std::max(under, over);
      if (!(viol > tol)) continue;  // feasible (a NaN never leaves)
      const bool better =
          use_bland ? r == m_ || bi < basis_[r] : viol > worst;
      if (better) {
        worst = viol;
        r = i;
        below = under > over;
      }
    }
    if (r == m_) return done(DualResult::Feasible);

    const std::size_t leave = basis_[r];
    const double target = below ? lb_[leave] : ub_[leave];
    const double sigma = below ? +1.0 : -1.0;  // required sign of d xb_r
    if (!priced) {
      price_nonbasic(cost);
      priced = true;
    }
    // Row r of the basis inverse: BTRAN of the r-th unit vector.
    for (std::size_t i : rho_nz_) rho_[i] = 0.0;
    rho_[r] = 1.0;
    rho_nz_.assign(1, r);
    lu_.btran(rho_, rho_nz_);
    form_pivot_row();

    // --- Entering column: dual ratio test over the nonbasics with a
    // nonzero in the pivot row, in ascending index order. ---
    std::size_t enter = total_;
    int enter_dir = 0;
    double enter_alpha = 0.0;
    double best_ratio = kInfinity;
    for (const Entry& a : alpha_row_) {
      const std::size_t j = a.col;
      if (lb_[j] == ub_[j])  // rrp-lint: allow(float-equality)
        continue;  // fixed: can never move
      const double alpha = a.coeff;
      if (std::fabs(alpha) <= kPivotTol) continue;
      int dir = 0;
      switch (status_[j]) {
        case BasisStatus::AtLower: dir = +1; break;
        case BasisStatus::AtUpper: dir = -1; break;
        case BasisStatus::FreeAtZero:
          dir = sigma * alpha < 0.0 ? +1 : -1;
          break;
        case BasisStatus::Basic: break;
      }
      // Moving x_j by dir changes xb_r by -alpha*dir; require the move
      // to push xb_r toward its violated bound.
      if (sigma * alpha * static_cast<double>(dir) >= 0.0) continue;
      const double ratio = std::fabs(d_[j]) / std::fabs(alpha);
      // Near-ties keep the larger pivot element for stability, or the
      // least index (the first one seen) under Bland's rule.
      if (ratio < best_ratio - 1e-12 ||
          (!use_bland && ratio < best_ratio + 1e-12 &&
           std::fabs(alpha) > std::fabs(enter_alpha))) {
        best_ratio = ratio;
        enter = j;
        enter_dir = dir;
        enter_alpha = alpha;
      }
    }
    if (enter == total_) return done(DualResult::Infeasible);

    // --- Pivot: land xb_r exactly on its violated bound. ---
    const std::size_t refactorizations = factor_stats_.refactorizations;
    ftran(enter);
    // Accuracy trigger: the FTRAN pivot and the BTRAN-derived alpha are
    // the same number through exact arithmetic; disagreement means the
    // eta file has drifted, so rebuild the factorisation and retry.
    if (std::fabs(w_[r] - enter_alpha) >
        1e-7 * (1.0 + std::fabs(enter_alpha))) {
      refactorize();
      ftran(enter);
    }
    const double piv = w_[r];
    if (std::fabs(piv) < kPivotTol)
      throw NumericalError("dual simplex: vanishing pivot element");
    const double denom = -piv * static_cast<double>(enter_dir);
    const double t = std::max((target - xb_[r]) / denom, 0.0);
    for (std::size_t i : w_nz_)
      xb_[i] -= static_cast<double>(enter_dir) * t * w_[i];
    value_[leave] = target;
    status_[leave] = below ? BasisStatus::AtLower : BasisStatus::AtUpper;
    const double enter_val =
        value_[enter] + static_cast<double>(enter_dir) * t;
    basis_[r] = enter;
    status_[enter] = BasisStatus::Basic;
    xb_[r] = enter_val;
    lu_.update(r, w_, w_nz_);
    ++factor_stats_.eta_updates;
    eta_updates_counter().add(1);
    if (++pivots_since_refactor_ >= opt_->refactor_every ||
        lu_.eta_nonzeros() > eta_nnz_cap_)
      refactorize();

    // --- Reduced costs: updated over the pivot row's nonzeros, else
    // priced afresh at the next pivot (through the fresh factor after a
    // refactorisation). ---
    if (factor_stats_.refactorizations == refactorizations) {
      const double theta = d_[enter] / enter_alpha;
      for (const Entry& a : alpha_row_) d_[a.col] -= theta * a.coeff;
      d_[enter] = 0.0;
      d_[leave] = -theta;
    } else {
      priced = false;
    }

    // --- Stall detection -> Bland fallback.  The dual objective rises
    // by best_ratio times the leaving row's violation, so a zero ratio
    // is a dual-degenerate pivot. ---
    if (best_ratio > 1e-12) {
      stall = 0;
      use_bland = pinned_bland;
    } else if (++stall >= opt_->stall_limit) {
      use_bland = true;
    }
  }
  return done(DualResult::IterationLimit);
}

const std::vector<double>& SimplexSolver::model_cost() {
  const double sense = sense_ == Sense::Maximize ? -1.0 : 1.0;
  std::fill(cost_.begin(), cost_.end(), 0.0);
  for (std::size_t j = 0; j < n_; ++j) cost_[j] = sense * obj_[j];
  return cost_;
}

Solution SimplexSolver::stopped(SolveStatus status) const {
  Solution sol;
  sol.status = status;
  sol.iterations = iterations_;
  return sol;
}

Solution SimplexSolver::finish_primal() {
  const std::vector<double>& cost = model_cost();
  const PhaseResult pr = run_phase(cost, opt_->max_iterations);
  if (pr == PhaseResult::IterationLimit)
    return stopped(SolveStatus::IterationLimit);
  if (pr == PhaseResult::TimeLimit) return stopped(SolveStatus::TimeLimit);
  if (pr == PhaseResult::Unbounded) return stopped(SolveStatus::Unbounded);

  // Final x_B through the factor and eta file the pivots left behind; a
  // fresh factorisation only when the residual shows they have drifted.
  // run_phase's last pricing left the duals in y_, which stay current
  // unless that factorisation replaces the factor they came through.
  recompute_basic_values();
  bool duals_current = true;
  if (!basic_values_accurate()) {
    refactorize();
    duals_current = false;
  }
  check_basis();
  check_optimality(cost);
  last_optimal_ = true;
  factor_current_ = true;
  return optimal_solution(cost, duals_current);
}

Solution SimplexSolver::refactored_solution() {
  if (m_ == 0) return solve_bound_only();
  RRP_EXPECTS(last_optimal_);
  factor_current_ = false;  // until the factorisation below succeeds
  refactorize();
  factor_current_ = true;
  return optimal_solution(model_cost(), false);
}

Solution SimplexSolver::optimal_solution(const std::vector<double>& cost,
                                         bool duals_current) {
  Solution sol = stopped(SolveStatus::Optimal);
  sol.x.assign(n_, 0.0);
  for (std::size_t j = 0; j < n_; ++j)
    if (status_[j] != BasisStatus::Basic) sol.x[j] = value_[j];
  for (std::size_t i = 0; i < m_; ++i)
    if (basis_[i] < n_) sol.x[basis_[i]] = xb_[i];
  double objective = 0.0;
  for (std::size_t j = 0; j < n_; ++j) objective += obj_[j] * sol.x[j];
  sol.objective = objective;
  if (!duals_current) compute_duals(cost);
  sol.duals = y_;
  sol.reduced_costs.assign(n_, 0.0);
  for (std::size_t j = 0; j < n_; ++j)
    sol.reduced_costs[j] = reduced_cost(j, cost);
  return sol;
}

Solution SimplexSolver::cold_solve() {
  RRP_TRACE_SPAN("lp.cold_solve");
  RRP_TRACE_ARG("rows", m_);
  // Slack basis (B = -I, so the duals are zero and every reduced cost is
  // the column's cost).  Each structural sits at the bound its cost
  // favours, which makes the start dual feasible unless some cost pulls
  // towards an infinite bound; columns without such a bound rest at
  // their finite bound nearest zero (0 when free).
  const std::vector<double>& cost = model_cost();
  bool dual_feasible = true;
  for (std::size_t j = 0; j < n_; ++j) {
    const bool lo_finite = lb_[j] > -kInfinity;
    const bool hi_finite = ub_[j] < kInfinity;
    BasisStatus s = BasisStatus::FreeAtZero;
    if (cost[j] > 0.0 && lo_finite) {
      s = BasisStatus::AtLower;
    } else if (cost[j] < 0.0 && hi_finite) {
      s = BasisStatus::AtUpper;
    } else {
      if (cost[j] != 0.0) dual_feasible = false;
      if (lo_finite && (!hi_finite || std::fabs(lb_[j]) <= std::fabs(ub_[j])))
        s = BasisStatus::AtLower;
      else if (hi_finite)
        s = BasisStatus::AtUpper;
    }
    status_[j] = s;
    value_[j] = s == BasisStatus::AtLower   ? lb_[j]
                : s == BasisStatus::AtUpper ? ub_[j]
                                            : 0.0;
  }
  for (std::size_t r = 0; r < m_; ++r) {
    basis_[r] = n_ + r;
    status_[n_ + r] = BasisStatus::Basic;
    value_[n_ + r] = 0.0;
  }
  refactorize();  // also recomputes xb_ = the row activities

  // The dual simplex restores primal feasibility.  A start that is not
  // dual feasible runs it on the zero objective instead (every basis is
  // dual feasible there), under Bland's rule since every pivot is dual
  // degenerate; the primal loop in finish_primal then optimises from the
  // feasible vertex it reaches.
  DualResult dres = DualResult::Feasible;
  if (dual_feasible) {
    dres = run_dual(cost, opt_->max_iterations, false);
  } else {
    const std::vector<double> zero(total_, 0.0);
    dres = run_dual(zero, opt_->max_iterations, true);
  }
  if (dres == DualResult::Infeasible) {
    factor_current_ = true;  // run_dual stops before the pivot
    return stopped(SolveStatus::Infeasible);
  }
  if (dres == DualResult::IterationLimit)
    return stopped(SolveStatus::IterationLimit);
  if (dres == DualResult::TimeLimit) return stopped(SolveStatus::TimeLimit);
  return finish_primal();
}

bool SimplexSolver::replace_columns(const std::vector<std::size_t>& target) {
  std::vector<std::size_t>& pending = replace_pending_;
  pending.clear();
  for (std::size_t pos = 0; pos < m_; ++pos)
    if (target[pos] != basis_[pos]) pending.push_back(pos);
  if (pending.size() > m_ / kReplaceShare ||
      pivots_since_refactor_ + pending.size() >= opt_->refactor_every)
    return false;
  // FTRAN every entering column once; column k, with nonzero list
  // lists[k], belongs to pending[k], which is set to m_ once its
  // position has been replaced.
  std::vector<double>& cols = replace_cols_;
  std::vector<std::vector<std::size_t>>& lists = replace_nz_;
  cols.resize(pending.size() * m_);
  if (lists.size() < pending.size()) lists.resize(pending.size());
  for (std::size_t k = 0; k < pending.size(); ++k) {
    ftran(target[pending[k]]);
    std::copy(w_.begin(), w_.end(), cols.begin() + k * m_);
    lists[k] = w_nz_;
  }
  // Each pass replaces every position whose pivot is usable and defers
  // the rest: a column may only be able to enter once another position
  // has been replaced (one still basic elsewhere has a zero pivot).  The
  // columns still waiting are brought through each new eta exactly as
  // FTRAN would replay it.  A pass without progress, e.g. two swapped
  // columns, leaves the install to a fresh factorisation.
  for (std::size_t left = pending.size(); left > 0;) {
    const std::size_t before = left;
    for (std::size_t k = 0; k < pending.size(); ++k) {
      const std::size_t pos = pending[k];
      if (pos == m_) continue;
      const std::span<const double> w(cols.data() + k * m_, m_);
      const std::vector<std::size_t>& w_nz = lists[k];
      double wmax = 0.0;
      for (std::size_t i : w_nz) wmax = std::max(wmax, std::fabs(w[i]));
      const double piv = w[pos];
      if (std::fabs(piv) < kPivotTol ||
          std::fabs(piv) < kReplacePivotRatio * wmax)
        continue;
      lu_.update(pos, w, w_nz);
      basis_[pos] = target[pos];
      pending[k] = m_;
      --left;
      ++factor_stats_.eta_updates;
      eta_updates_counter().add(1);
      ++pivots_since_refactor_;
      if (lu_.eta_nonzeros() > eta_nnz_cap_) return false;
      for (std::size_t q = 0; q < pending.size(); ++q) {
        if (pending[q] == m_) continue;
        double* u = cols.data() + q * m_;
        const double t = u[pos];
        if (t == 0.0) continue;
        const double scaled = t / piv;
        for (std::size_t i : w_nz)
          if (i != pos && w[i] != 0.0) u[i] -= w[i] * scaled;
        u[pos] = scaled;
        // u's nonzeros now lie within its list and w's.
        replace_merge_.clear();
        std::set_union(lists[q].begin(), lists[q].end(), w_nz.begin(),
                       w_nz.end(), std::back_inserter(replace_merge_));
        lists[q].swap(replace_merge_);
      }
    }
    if (left == before) return false;
  }
  return true;
}

bool SimplexSolver::install_basis(const Basis& start, bool factor_current) {
  if (start.basic.size() != m_ || start.status.size() != total_) return false;
  // Structural consistency: basic entries distinct, in range, and
  // agreeing with the status vector.
  std::vector<char> seen(total_, 0);
  for (std::size_t pos = 0; pos < m_; ++pos) {
    const std::size_t j = start.basic[pos];
    if (j >= total_ || seen[j] != 0) return false;
    if (start.status[j] != BasisStatus::Basic) return false;
    seen[j] = 1;
  }
  for (std::size_t j = 0; j < total_; ++j) {
    if (start.status[j] == BasisStatus::Basic && seen[j] == 0) return false;
  }

  for (std::size_t j = 0; j < total_; ++j) {
    BasisStatus s = start.status[j];
    // Re-anchor nonbasic variables whose preferred bound is (or became)
    // infinite; bounds may have moved since the basis was exported.
    if (s == BasisStatus::AtLower && lb_[j] <= -kInfinity)
      s = ub_[j] < kInfinity ? BasisStatus::AtUpper : BasisStatus::FreeAtZero;
    if (s == BasisStatus::AtUpper && ub_[j] >= kInfinity)
      s = lb_[j] > -kInfinity ? BasisStatus::AtLower : BasisStatus::FreeAtZero;
    if (s == BasisStatus::FreeAtZero &&
        (lb_[j] > -kInfinity || ub_[j] < kInfinity))
      s = lb_[j] > -kInfinity ? BasisStatus::AtLower : BasisStatus::AtUpper;
    status_[j] = s;
    switch (s) {
      case BasisStatus::AtLower: value_[j] = lb_[j]; break;
      case BasisStatus::AtUpper: value_[j] = ub_[j]; break;
      default: value_[j] = 0.0; break;
    }
  }
  if (factor_current && replace_columns(start.basic)) {
    recompute_basic_values();  // the nonbasic values were just re-set
    check_basis();  // the replaced factor must still invert the basis
    return true;
  }
  std::copy(start.basic.begin(), start.basic.end(), basis_.begin());
  try {
    refactorize();  // throws NumericalError when the start basis is singular
  } catch (const NumericalError&) {
    return false;
  }
  return true;
}

Solution SimplexSolver::solve_bound_only() const {
  // Pure bound problem: each variable sits at its cheapest finite bound.
  Solution sol;
  sol.status = SolveStatus::Optimal;
  sol.x.assign(n_, 0.0);
  const double sense = sense_ == Sense::Maximize ? -1.0 : 1.0;
  for (std::size_t j = 0; j < n_; ++j) {
    const double c = sense * obj_[j];
    if (c > 0.0) {
      if (lb_[j] == -kInfinity) {
        sol.status = SolveStatus::Unbounded;
        return sol;
      }
      sol.x[j] = lb_[j];
    } else if (c < 0.0) {
      if (ub_[j] == kInfinity) {
        sol.status = SolveStatus::Unbounded;
        return sol;
      }
      sol.x[j] = ub_[j];
    } else {
      sol.x[j] = std::clamp(0.0, lb_[j], ub_[j]);
    }
  }
  double objective = 0.0;
  for (std::size_t j = 0; j < n_; ++j) objective += obj_[j] * sol.x[j];
  sol.objective = objective;
  sol.reduced_costs.assign(n_, 0.0);
  for (std::size_t j = 0; j < n_; ++j)
    sol.reduced_costs[j] = sense * obj_[j];
  return sol;
}

Solution SimplexSolver::solve(const SimplexOptions& options) {
  last_warm_ = false;
  last_optimal_ = false;
  factor_current_ = false;
  iterations_ = 0;
  if (options.fault_injector != nullptr &&
      options.fault_injector->consume_lp_fault()) {
    throw NumericalError("simplex: injected numerical failure");
  }
  if (options.deadline.expired()) return stopped(SolveStatus::TimeLimit);
  if (m_ == 0) return solve_bound_only();
  opt_ = &options;
  return cold_solve();
}

Solution SimplexSolver::solve_from(const Basis& start,
                                   const SimplexOptions& options) {
  // Only a solve that ends Optimal or Infeasible sets factor_current_
  // again, so a stop on a limit or a throw anywhere below leaves the
  // factor unusable.
  const bool factor_current = factor_current_;
  last_warm_ = false;
  last_optimal_ = false;
  factor_current_ = false;
  iterations_ = 0;
  if (options.fault_injector != nullptr &&
      options.fault_injector->consume_lp_fault()) {
    throw NumericalError("simplex: injected numerical failure");
  }
  if (options.deadline.expired()) return stopped(SolveStatus::TimeLimit);
  if (m_ == 0) return solve_bound_only();
  opt_ = &options;
  if (start.empty()) return cold_solve();

  // Opened before the install, so its column-replacement FTRANs count
  // as warm-solve time; a fallback's lp.cold_solve span nests inside.
  RRP_TRACE_SPAN("lp.warm_solve");
  RRP_TRACE_ARG("rows", m_);
  if (!install_basis(start, factor_current)) return cold_solve();
  // Re-optimise: dual simplex restores primal feasibility (bound changes
  // leave the parent basis dual feasible), then the primal loop cleans
  // up any residual dual infeasibility (objective edits).  Numerical
  // trouble on the warm path is never fatal — fall back to a cold solve.
  try {
    const DualResult dres = run_dual(model_cost(), opt_->max_iterations,
                                     false);
    if (dres == DualResult::TimeLimit) return stopped(SolveStatus::TimeLimit);
    if (dres == DualResult::IterationLimit) return cold_solve();
    if (dres == DualResult::Infeasible)
      factor_current_ = true;  // run_dual stops before the pivot
    Solution sol = dres == DualResult::Infeasible
                       ? stopped(SolveStatus::Infeasible)
                       : finish_primal();
    last_warm_ = true;
    return sol;
  } catch (const NumericalError&) {
    return cold_solve();
  }
}

Basis SimplexSolver::basis() const {
  Basis b;
  if (!last_optimal_) return b;
  b.basic = basis_;
  b.status = status_;
  return b;
}

void verify_basis(std::size_t num_rows, std::size_t num_columns,
                  std::span<const std::size_t> basis) {
  if (basis.size() != num_rows) {
    ::rrp::detail::invariant_fail(
        "invariant", "basis.size() == num_rows", __FILE__, __LINE__,
        "basis has " + std::to_string(basis.size()) + " entries for " +
            std::to_string(num_rows) + " rows");
  }
  std::vector<char> seen(num_columns, 0);
  for (std::size_t pos = 0; pos < basis.size(); ++pos) {
    const std::size_t j = basis[pos];
    if (j >= num_columns) {
      ::rrp::detail::invariant_fail(
          "invariant", "basis[pos] < num_columns", __FILE__, __LINE__,
          "position " + std::to_string(pos) + " holds out-of-range column " +
              std::to_string(j));
    }
    if (seen[j]) {
      ::rrp::detail::invariant_fail(
          "invariant", "basis entries are distinct", __FILE__, __LINE__,
          "column " + std::to_string(j) + " is basic in two positions");
    }
    seen[j] = 1;
  }
}

Solution solve(const LinearProgram& lp, const SimplexOptions& options) {
  SimplexSolver solver(lp);
  return solver.solve(options);
}

}  // namespace rrp::lp
