// Bounded-variable revised simplex, dual first.
//
// Internals: every ranged row `lo <= a'x <= hi` gets a slack variable
// bounded by [lo, hi] so the system becomes Ax = 0 with box-constrained
// variables.  A cold solve starts from the all-slack basis with every
// structural at the bound its cost favours; when that start is dual
// feasible (any minimisation of nonnegative costs over x >= 0, such as
// DRRP and SRRP) the dual simplex runs straight to the optimum.
// Otherwise a feasibility pass runs the dual simplex on the zero
// objective from the same basis, and the primal simplex optimises from
// the feasible vertex it reaches.  Either way a primal loop closes the
// solve; after a dual-feasible start it is a single pricing pass that
// confirms optimality.  Both loops switch to Bland's least-index rule
// during stalls (or throughout under Pricing::Bland) to guarantee
// finiteness under degeneracy.
//
// A dual pivot costs one BTRAN (the pivot row rho of the basis
// inverse), one FTRAN (the entering column) and work proportional to
// their nonzeros.  The nonbasic reduced costs are kept and updated from
// the pivot row, d_j -= theta_D * alpha_rj; a BTRAN of c_B prices them
// afresh only at the first pivot of a dual run and at the first pivot
// after a refactorisation.  The pivot row alpha_r = rho' A_N is formed
// from a row-major copy of A over rho's nonzeros, and the ratio test
// and the update walk only its nonzeros, in ascending column order.
// Each alpha is the same double a scan over every column gives; the
// updated reduced costs can differ from fresh pricing in the last bits,
// and the ratio test breaks near-ties within an absolute 1e-12, so the
// pivot sequence of the full-pricing scan is kept on the measured
// workloads but is not guaranteed.  The leaving row comes from a list
// of the primal infeasible basis positions, built by one scan at the
// start of a dual run and after a refactorisation and updated over w's
// nonzeros after each pivot; the pick is that of a scan of all m rows.
//
// The program is held flat.  The solver copies the LinearProgram's
// compressed rows as they are (the pivot row is formed from them) and
// builds [A -I] column-wise from them once, by a counting sort into
// one start array and one entry array, slack columns included.
// add_row appends to the row copy; the column arrays take every row
// appended since at the start of the next solve, in one rebuild.
//
// The basis is held as a sparse LU factorisation (lp::SparseLu) with
// product-form eta updates per pivot; FTRAN/BTRAN are sparse triangular
// solves that return their result's nonzero list, so the entering
// column w and the pivot row rho of the basis inverse are cleared,
// applied to x_B, turned into etas and into alpha_r by walking those
// lists, not all m rows.  The factor and its eta file live across
// solves.  A fresh factorisation happens only:
//
//   * at the all-slack basis of a cold solve;
//   * when the SimplexOptions::refactor_every update cap or the eta-file
//     fill cap is reached (replacement updates at install count too);
//   * when the dual simplex's accuracy check sees the FTRAN pivot and
//     the BTRAN row disagree;
//   * at the end of a solve, only if the residual of
//     B x_B + sum_nonbasic A_j v_j = 0, with x_B recomputed through the
//     current factor, shows drift;
//   * when a warm start cannot be installed by column replacement (see
//     below).
//
// add_row borders a current factor with the new row instead (the new
// slack is basic at a new last position), so appending rows needs no
// refactorisation.
//
// A warm start is installed by column replacement: each basis position
// where the start differs from the current basis costs one FTRAN and
// one eta update, in an order that keeps every replacement pivot usable.
// The install falls back to a fresh factorisation when more than m/8
// positions differ, no order avoids a too-small pivot (a singular
// intermediate basis), a cap would be crossed, or the factor is not
// known to match the current basis — it is known only after a solve
// that ended Optimal or Infeasible (the dual simplex proves
// infeasibility before pivoting, so its factor still matches), and any
// stop on a limit or a throw forgets it.
//
// Two entry points share that engine:
//
//   * `solve(lp, options)` — one-shot: build the working arrays, solve,
//     throw them away.
//   * `SimplexSolver` — a persistent solver object that keeps the
//     column structure, factorised basis and preallocated work buffers
//     alive across calls, supports `set_variable_bounds` /
//     `set_objective` / `add_row` without rebuilding the model, and can
//     re-optimise from a caller-supplied starting basis (`solve_from`).
//     A bound change against an optimal parent basis leaves the basis
//     dual feasible, so re-optimisation runs the dual simplex until
//     primal feasibility is restored and finishes with (usually zero)
//     primal pivots — the warm-start path under rrp::milp's branch &
//     bound.  Primal pivots do real work there only after
//     `set_objective` edits that break dual feasibility.  Any
//     structural or numerical trouble with the starting basis (wrong
//     shape, singular factorisation, running out of iterations)
//     silently falls back to a cold solve, so `solve_from` is never
//     less robust than `solve`.
//
// This is the LP engine under rrp::milp's branch & bound, which in turn
// solves the paper's DRRP and SRRP mixed-integer programs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/deadline.hpp"
#include "lp/model.hpp"
#include "lp/sparse_lu.hpp"

namespace rrp::testing {
class FaultInjector;
}  // namespace rrp::testing

namespace rrp::lp {

enum class Pricing {
  Dantzig,  ///< most negative reduced cost (default)
  Bland,    ///< least index; slow but never cycles
};

struct SimplexOptions {
  Pricing pricing = Pricing::Dantzig;
  std::size_t max_iterations = 50000;
  /// Upper bound on eta updates between sparse-LU refactorisations.
  /// Fill-in growth and the dual-pivot accuracy check can refactorise
  /// earlier; this cap is the recovery lever (the branch & bound
  /// ladder sets it to 1 to eliminate eta drift entirely).
  std::size_t refactor_every = 64;
  /// Consecutive non-improving pivots before falling back to Bland.
  std::size_t stall_limit = 200;
  double feasibility_tol = 1e-7;
  double optimality_tol = 1e-7;
  /// Wall-clock budget; polled once per pivot.  On expiry the solve
  /// returns SolveStatus::TimeLimit instead of iterating further.
  /// Defaults to unlimited (a single pointer compare per pivot).
  common::Deadline deadline;
  /// Test hook: when set, each solve() call first consumes one armed LP
  /// failure from the injector and throws rrp::NumericalError if armed.
  /// Production callers leave this null.
  const testing::FaultInjector* fault_injector = nullptr;
};

/// Where a column sits in an exported basis snapshot.
enum class BasisStatus : unsigned char {
  Basic,
  AtLower,
  AtUpper,
  FreeAtZero,  ///< free variable resting at zero
};

/// A snapshot of a simplex basis over the structural + slack columns.
/// Produced by SimplexSolver::basis() after an optimal solve and
/// consumed by SimplexSolver::solve_from() to warm start a
/// re-optimisation; a default-constructed (empty) basis means "no warm
/// start available".
struct Basis {
  std::vector<std::size_t> basic;   ///< basic variable index per row
  std::vector<BasisStatus> status;  ///< one per structural + slack column

  bool empty() const { return basic.empty(); }
};

/// Solves the LP.  Never throws on infeasible/unbounded inputs (that is
/// reported through Solution::status); throws rrp::NumericalError only
/// if the basis algebra degenerates beyond repair.
Solution solve(const LinearProgram& lp, const SimplexOptions& options = {});

/// Verifies that `basis` is a structurally consistent simplex basis for
/// a system with `num_rows` rows and `num_columns` columns (structural +
/// slack): exactly one entry per row, every index in range, no
/// variable basic in two positions.  Throws rrp::ContractViolation on
/// the first inconsistency.  Used by the solver's internal invariant
/// checks (RRP_CHECK_INVARIANTS builds) and exposed so tests can feed it
/// a deliberately corrupted basis.
void verify_basis(std::size_t num_rows, std::size_t num_columns,
                  std::span<const std::size_t> basis);

/// Cumulative sparse-factorisation telemetry over a SimplexSolver's
/// lifetime; aggregated across B&B workers into milp::MipResult and
/// surfaced by bench_solvers_json (fill-in ratio, refactor cadence).
struct FactorizationStats {
  std::size_t refactorizations = 0;  ///< sparse LU rebuilds
  std::size_t eta_updates = 0;       ///< pivots absorbed as eta updates

  double fill_ratio_sum = 0.0;  ///< sum of nnz(L+U)/nnz(B) over rebuilds

  /// Mean fill-in ratio per refactorisation (1.0 = no fill).
  double mean_fill_ratio() const {
    return refactorizations == 0
               ? 0.0
               : fill_ratio_sum / static_cast<double>(refactorizations);
  }
  /// Mean eta updates absorbed between consecutive refactorisations.
  double refactor_cadence() const {
    return refactorizations == 0
               ? 0.0
               : static_cast<double>(eta_updates) /
                     static_cast<double>(refactorizations);
  }

  FactorizationStats& operator+=(const FactorizationStats& o) {
    refactorizations += o.refactorizations;
    eta_updates += o.eta_updates;
    fill_ratio_sum += o.fill_ratio_sum;
    return *this;
  }
  bool operator==(const FactorizationStats&) const = default;
};

/// Persistent simplex solver: copies the problem structure once at
/// construction and reuses every working array across solves.  Not
/// thread safe — give each thread its own instance (cheap: one copy of
/// the column structure plus the sparse basis factorisation).
class SimplexSolver {
 public:
  /// Snapshots the program (columns, bounds, objective, sense); the
  /// LinearProgram itself is not referenced afterwards.
  explicit SimplexSolver(const LinearProgram& lp);

  std::size_t num_variables() const { return n_; }
  std::size_t num_rows() const { return m_; }

  /// Replaces the bounds of structural variable `j` without rebuilding
  /// anything.  Requires lo <= hi.
  void set_variable_bounds(std::size_t j, double lo, double hi);
  double lower_bound(std::size_t j) const { return lb_[j]; }
  double upper_bound(std::size_t j) const { return ub_[j]; }

  /// Replaces the objective coefficient of structural variable `j`.
  void set_objective(std::size_t j, double coeff);
  double objective_coefficient(std::size_t j) const { return obj_[j]; }

  /// Appends the ranged row `row.lo <= row . x <= row.hi` over the
  /// structural columns (entries with distinct columns, as
  /// LinearProgram::add_row stores them).  Its slack is column
  /// num_variables() + num_rows() - 1 and enters basis() as basic, so
  /// after an Optimal solve basis() is a dual-feasible start for
  /// solve_from on the extended program.  The column arrays take the
  /// row at the next solve.
  void add_row(const Row& row);

  /// Column j of [A -I] (structural, then slack columns): its (row,
  /// coeff) entries, ascending by row.  Requires every added row to
  /// have been through a solve since.
  std::span<const Entry> column(std::size_t j) const {
    RRP_EXPECTS(column_rows_ == m_ && j < total_);
    return columns()[j];
  }

  /// Cold solve from the all-slack basis, identical in behaviour to the
  /// free solve() function: the dual simplex when that start is dual
  /// feasible, else a zero-objective dual feasibility pass followed by
  /// primal pivots (see the file comment).
  Solution solve(const SimplexOptions& options = {});

  /// Re-optimises from `start` (typically the parent B&B node's optimal
  /// basis).  Restores primal feasibility with the dual simplex, then
  /// runs the primal loop, which pivots only when an objective edit left
  /// the start dual infeasible.  Falls back to a cold solve when the
  /// start basis is empty, structurally unusable, singular, or the
  /// re-optimisation runs out of iterations; last_solve_was_warm()
  /// reports which path produced the returned solution.
  Solution solve_from(const Basis& start, const SimplexOptions& options = {});

  /// The most recent Optimal solution re-derived from a fresh
  /// factorisation of its basis.  A solve reuses the factor its
  /// predecessors left, so the last bits of its answer depend on them;
  /// this answer depends only on the basis, the bounds and the
  /// objective.  Branch & bound calls it where those predecessors vary:
  /// for incumbents from nodes below the root, whose worker's earlier
  /// nodes depend on scheduling, and in every root cut round, whose
  /// separator's ties would flip on last bits.  Root node points skip
  /// it: their factor history is the same at every jobs count.
  /// Requires the last solve to have ended Optimal; throws
  /// rrp::NumericalError if the fresh factorisation finds the basis
  /// singular.
  Solution refactored_solution();

  /// Basis of the most recent Optimal solve (extended by the slacks of
  /// any rows added since), or an empty basis when the last solve did
  /// not finish Optimal.
  Basis basis() const;

  /// True when the last solve() / solve_from() answered from the
  /// caller's start basis; false for cold solves and fallbacks.
  bool last_solve_was_warm() const { return last_warm_; }

  /// Cumulative factorisation telemetry since construction.
  const FactorizationStats& factor_stats() const { return factor_stats_; }

 private:
  enum class PhaseResult { Optimal, Unbounded, IterationLimit, TimeLimit };
  enum class DualResult { Feasible, Infeasible, IterationLimit, TimeLimit };

  Solution solve_bound_only() const;  ///< closed form for m_ == 0
  /// [A -I] by column; current once sync_columns() has run.
  Columns columns() const { return Columns{col_start_, col_entries_}; }
  /// Fills col_start_/col_entries_ from the row-major copy.
  void build_columns();
  /// build_columns() when rows were added since it last ran.
  void sync_columns();
  Solution cold_solve();
  /// Installs `start` as the basis and its factor: by column replacement
  /// in the current factor when `factor_current` says it matches basis_
  /// and replace_columns() succeeds, else by a fresh factorisation.
  bool install_basis(const Basis& start, bool factor_current);
  /// Product-form replacement of each basis position where `target`
  /// differs from basis_.  False when too many differ, a cap would be
  /// crossed or no remaining position has a usable pivot; basis_ may
  /// then be half replaced.
  bool replace_columns(const std::vector<std::size_t>& target);
  /// `bland` pins the least-index rule for the whole run.
  DualResult run_dual(const std::vector<double>& cost, std::size_t max_iters,
                      bool bland);
  PhaseResult run_phase(const std::vector<double>& cost,
                        std::size_t max_iters);
  Solution finish_primal();
  /// Reads x, objective, duals and reduced costs off an optimal basis.
  /// `duals_current`: y_ already holds c_B' B^-1 through the current
  /// factor (run_phase's last pricing), so no BTRAN is needed.
  Solution optimal_solution(const std::vector<double>& cost,
                            bool duals_current);
  Solution stopped(SolveStatus status) const;  ///< status + iterations only
  const std::vector<double>& model_cost();
  void refactorize();
  void recompute_basic_values();
  /// Residual check of recompute_basic_values()'s x_B.
  bool basic_values_accurate() const;
  void compute_duals(const std::vector<double>& cost) const;  ///< into y_
  double reduced_cost(std::size_t j, const std::vector<double>& cost) const;
  /// d_ for every nonbasic column from one BTRAN of c_B (0 for basics).
  void price_nonbasic(const std::vector<double>& cost);
  /// alpha_row_ = the nonbasic nonzeros of rho' [A -I], from rho_.
  void form_pivot_row();
  void ftran(std::size_t j) const;  ///< Binv * A_j into w_ and w_nz_
  double current_objective(const std::vector<double>& cost) const;
  void check_basis() const;
  void check_optimality(const std::vector<double>& cost) const;
  /// Invariant builds: d_ matches reduced costs priced afresh.
  void check_reduced_costs(const std::vector<double>& cost) const;
  /// Invariant builds: w_ and rho_ are zero outside their nonzero lists,
  /// which are ascending and duplicate free.
  void check_work_lists() const;
  /// True when basis position i violates a bound of its variable by
  /// more than the feasibility tolerance.
  bool violated(std::size_t i) const;
  /// infeasible_ from a scan of every basis position.
  void list_infeasible();
  /// Adds or removes position i after x_B[i] or basis_[i] changed.
  void update_infeasible(std::size_t i);
  /// Invariant builds: infeasible_ matches a scan of every position.
  void check_infeasible_list() const;
  /// Invariant builds: (r, below) is the leaving row a scan of all m
  /// positions in ascending order picks (largest violation, the first
  /// position on a tie; under Bland the least variable index).
  void check_leaving_row(std::size_t r, bool below, bool bland) const;

  // Problem data (bounds/objective mutable via setters).
  std::size_t m_ = 0;      ///< rows
  std::size_t n_ = 0;      ///< structural variables
  std::size_t total_ = 0;  ///< structural + slack
  Sense sense_ = Sense::Minimize;
  /// Row-major copy of the structural part of A, the program's own
  /// arrays: row i's entries (structural column, coeff) are
  /// rows_[row_start_[i], row_start_[i+1]).
  std::vector<Entry> rows_;
  std::vector<std::size_t> row_start_;
  /// [A -I] by column: column j's (row, coeff) entries are
  /// col_entries_[col_start_[j], col_start_[j + 1]), built from rows_
  /// by a counting sort, slack columns included.  They cover the first
  /// column_rows_ rows; add_row() leaves the rest to the next solve.
  std::vector<std::size_t> col_start_;
  std::vector<Entry> col_entries_;
  std::size_t column_rows_ = 0;
  std::vector<double> lb_, ub_;
  std::vector<double> obj_;  ///< structural objective coefficients

  // Persistent solve state (valid between calls; rebuilt as needed).
  std::vector<BasisStatus> status_;
  std::vector<double> value_;       ///< meaningful for nonbasic variables
  std::vector<std::size_t> basis_;  ///< variable index per basis position
  std::vector<double> xb_;          ///< basic variable values
  SparseLu lu_;                     ///< B = P^T L U Q^T + eta file
  /// Eta-file fill trigger: refactorise when the eta nonzeros outgrow
  /// this cap (set from the factor size at each refactorisation).
  std::size_t eta_nnz_cap_ = 0;
  FactorizationStats factor_stats_;
  std::size_t pivots_since_refactor_ = 0;
  std::size_t iterations_ = 0;
  bool last_optimal_ = false;
  bool last_warm_ = false;
  /// lu_ (with its eta file) factorises basis_.  Set only when a solve
  /// ends Optimal or Infeasible; cleared on entry to every solve.
  bool factor_current_ = false;
  const SimplexOptions* opt_ = nullptr;  ///< options of the active solve

  // Preallocated work buffers (one allocation for the solver lifetime).
  // w_ and rho_ are zero outside their nonzero lists (ascending, as
  // SparseLu::ftran/btran leave them), so clearing, updating x_B and
  // forming the pivot row cost their nonzeros rather than m.
  mutable std::vector<double> w_;  ///< ftran result
  mutable std::vector<std::size_t> w_nz_;
  mutable std::vector<double> y_;  ///< duals
  mutable std::vector<std::size_t> y_nz_;
  std::vector<double> rho_;  ///< btran of a unit vector (dual row)
  std::vector<std::size_t> rho_nz_;
  std::vector<double> d_;  ///< run_dual's nonbasic reduced costs
  /// run_dual's primal infeasible basis positions, unordered, and each
  /// position's index in that list (m_ when it is feasible).
  std::vector<std::size_t> infeasible_;
  std::vector<std::size_t> infeasible_at_;
  /// The dual pivot row: (column, alpha) for each nonbasic column with a
  /// nonzero in rho' [A -I], in ascending column order.
  std::vector<Entry> alpha_row_;
  std::vector<double> alpha_dense_;  ///< form_pivot_row() scratch, all +0.0
  std::vector<std::size_t> alpha_cols_;
  std::vector<double> rhs_;
  std::vector<std::size_t> xb_nz_;      ///< recompute_basic_values() scratch
  mutable std::vector<double> resid_;  ///< basic_values_accurate() scratch
  std::vector<double> cost_;           ///< model cost cache (min sense)
  // replace_columns() scratch: differing positions, their FTRANed
  // columns and those columns' nonzero lists.
  std::vector<std::size_t> replace_pending_;
  std::vector<double> replace_cols_;
  std::vector<std::vector<std::size_t>> replace_nz_;
  std::vector<std::size_t> replace_merge_;
  std::vector<Entry> border_;  ///< add_row(): new row by basis position
  std::vector<char> seen_;     ///< install_basis() scratch, all zero
};

}  // namespace rrp::lp
