// Sparse LU factorisation of a simplex basis with product-form updates.
//
// The basis matrix B of the revised simplex over the DRRP/SRRP
// deterministic equivalents is a staircase: balance rows couple each
// slot (or tree vertex) only to its parent, forcing rows are near
// diagonal, and slack columns are singletons.  A dense
// m x m inverse throws that structure away — every FTRAN/BTRAN and
// every eta update costs O(m^2), and each refactorisation O(m^3).
// This class keeps B = P^T L U Q^T with sparse column-stored L and U:
//
//   * factorize() runs a left-looking elimination with threshold
//     partial pivoting.  Columns are processed in ascending-nonzero
//     order (a counting sort, ties by ascending basis position: a
//     stable sort's order) and the pivot row is chosen among
//     numerically eligible candidates (|v| >= tau * max) by the
//     smallest static row count — a cheap Markowitz proxy that keeps
//     fill-in near zero on staircase bases.  A one-entry column on an
//     unpivoted row with a usable entry is a singleton step: its
//     diagonal is assigned directly (the all-slack B = -I is m of
//     them).  Every other column applies only the earlier steps its
//     nonzeros reach: a write into a pivoted row marks that row's step,
//     and the column scans just the span of marked steps, in ascending
//     order.  A column costs its own nonzeros and fill plus that span
//     rather than every earlier step, and L and U are the same doubles
//     a full scan gives.  The scratch is kept across calls, so a
//     refactorisation allocates nothing once the factor has reached
//     its size.
//   * ftran()/btran() solve B x = b and B^T y = c by permuted sparse
//     triangular solves, then replay the product-form eta file.  Both
//     take the vector together with its nonzero list: the list enters
//     naming the right-hand side's nonzeros (duplicates allowed; every
//     entry outside it must be zero) and leaves naming the result's
//     nonzeros, ascending and duplicate free, with the result zero
//     outside it.  A solve visits the listed entries, the steps whose
//     L or U column is non-empty (recorded by factorize(), in the order
//     dense sweeps over all m steps would visit them), and the eta
//     file.  A step whose U column is empty only divides by its
//     diagonal, which FTRAN does in the scatter and BTRAN in the
//     permute; BTRAN runs U^T and L^T in gather form.  Written steps
//     and positions are marked in bitsets, whose ascending drain emits
//     the list without a sort.  The doubles are those of dense passes
//     over all m steps (kept in test_sparse_lu.cpp as the reference),
//     apart from the sign of a zero.  The walk serves every factor:
//     against dense passes on the factors with more than half their
//     steps non-singleton (most of perfbench srrp_tree's), it ran
//     srrp_tree 8% faster and drrp_fl the same.  It loses on a dense
//     LP, whose solves fill most of m (bench_solvers_json's
//     simplex_dense_120x60 runs about 20% slower than with them).
//   * update() appends one eta matrix per basis exchange (the
//     product-form of the inverse), so a pivot costs O(nnz(w)) instead
//     of a dense O(m^2) row transformation.  All etas share one entry
//     array, each owning a [begin, end) slice of it, so the file grows
//     by amortised appends rather than one allocation per pivot.
//   * append_row() borders the factor with a new row whose slack is
//     basic at a new last position: the factor gains a diagonal -1
//     step and the eta file a row eta (the row's coefficients on the
//     basic columns), so cut rows need no refactorisation.
//
// The owner (lp::SimplexSolver) decides *when* to refactorise; the
// fill/accuracy counters exposed here (eta_nonzeros, fill_ratio) feed
// those triggers and the factorisation telemetry reported through
// milp::MipResult.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "lp/model.hpp"

namespace rrp::lp {

/// Lists the indices of x's nonzeros in `nz`, ascending.
void list_nonzeros(std::span<const double> x, std::vector<std::size_t>& nz);

/// Sparse columns stored flat (compressed sparse columns): column j's
/// entries, (row, coeff) pairs, are entries[start[j], start[j + 1]).
struct Columns {
  std::span<const std::size_t> start;
  std::span<const Entry> entries;

  std::span<const Entry> operator[](std::size_t j) const {
    return entries.subspan(start[j], start[j + 1] - start[j]);
  }
};

class SparseLu {
 public:
  /// Factorises the basis whose column at position `pos` is
  /// `cols[basis[pos]]` (duplicate rows within a column are summed).
  /// Clears any pending eta updates.  Throws rrp::NumericalError when
  /// the basis is numerically singular.
  void factorize(std::size_t m, Columns cols,
                 std::span<const std::size_t> basis);

  /// Solves B x = b in place: `x` enters holding b (size m, row space;
  /// zero outside `nz`) and leaves holding the solution in
  /// basis-position space.  `nz` enters listing b's nonzero rows
  /// (duplicates allowed) and leaves listing the solution's nonzero
  /// positions, ascending; x is zero outside it.
  void ftran(std::vector<double>& x, std::vector<std::size_t>& nz) const;

  /// Solves B^T y = c in place: `y` enters holding c (size m,
  /// basis-position space; zero outside `nz`) and leaves holding the
  /// duals in row space.  `nz` follows ftran()'s contract.
  void btran(std::vector<double>& y, std::vector<std::size_t>& nz) const;

  /// Appends the product-form eta for replacing basis position `pos`
  /// with a column whose FTRAN image is `w` (size m), whose nonzero
  /// positions `nz` lists ascending and duplicate free, as ftran()
  /// leaves it.  Requires |w[pos]| > 0; the caller checks pivot
  /// magnitude before committing.
  void update(std::size_t pos, std::span<const double> w,
              std::span<const std::size_t> nz);

  /// Extends B to [[B, 0], [r^T, -1]]: one new row, and a new basis
  /// position m holding that row's slack column (-1 in the new row
  /// only).  `row` lists r, the new row's coefficient on each existing
  /// basis position (Entry::col is a position).  Nonsingular whenever B
  /// is, so it never fails.
  void append_row(std::span<const Entry> row);

  std::size_t size() const { return m_; }
  bool factorized() const { return m_ > 0 && udiag_.size() == m_; }

  /// Eta matrices appended since the last factorize().
  std::size_t eta_count() const { return etas_.size(); }
  /// Total off-pivot nonzeros across the eta file (fill proxy).
  std::size_t eta_nonzeros() const { return eta_entries_.size(); }
  /// nnz(L + U) / nnz(B) of the last factorisation (>= 1; 0 before the
  /// first factorize).
  double fill_ratio() const {
    return base_nnz_ == 0 ? 0.0
                          : static_cast<double>(factor_nnz_) /
                                static_cast<double>(base_nnz_);
  }
  std::size_t factor_nonzeros() const { return factor_nnz_; }

 private:
  /// One eta matrix; its off-pivot entries (position, w_i), i != pos,
  /// are eta_entries_[begin, end).  A row eta (from append_row) holds
  /// the new row's coefficients instead and adds their dot product with
  /// x to x[pos] in FTRAN.
  struct Eta {
    std::size_t pos = 0;  ///< pivotal basis position
    double pivot = 0.0;   ///< w[pos]; unused by a row eta
    std::size_t begin = 0;
    std::size_t end = 0;
    bool row = false;
  };

  std::size_t m_ = 0;
  // Permutations, all in "step" space (step k = k-th pivot):
  std::vector<std::size_t> row_of_step_;  ///< original pivot row of step k
  std::vector<std::size_t> col_of_step_;  ///< basis position handled at k
  std::vector<std::size_t> step_of_row_;  ///< inverse of row_of_step_
  std::vector<std::size_t> step_of_col_;  ///< inverse of col_of_step_
  // L (unit diagonal, multipliers below) and U (diagonal in udiag_),
  // both stored column-wise over steps: column k's entries are
  // lent_[lstart_[k], lstart_[k+1]) and likewise for U; Entry::col is a
  // step index.
  std::vector<std::size_t> lstart_, ustart_;
  std::vector<Entry> lent_, uent_;
  std::vector<double> udiag_;
  // Steps whose L (U) column is non-empty, ascending; the solves'
  // sweeps visit only these.
  std::vector<std::size_t> lsteps_, usteps_;
  /// The solves' division outside the U sweep: udiag_[k] for a step
  /// without a U column, else 1.0 (exact), so it needs no branch.
  std::vector<double> lone_div_;
  std::vector<Eta> etas_;
  std::vector<Entry> eta_entries_;  ///< every eta's entries, in order
  std::size_t base_nnz_ = 0;
  std::size_t factor_nnz_ = 0;
  // Scratch of factorize() and the solves, all zero between calls:
  // step-space values and bitsets of the written steps and positions.
  mutable std::vector<double> work_;
  mutable std::vector<std::uint64_t> step_marks_;
  mutable std::vector<std::uint64_t> pos_marks_;
  // factorize() scratch, kept so a refactorisation allocates nothing
  // once the factor has reached its size: row counts, reached-step
  // marks (zero between calls), the column order, its counting sort's
  // bucket starts, and the rows the current column wrote.
  std::vector<std::size_t> row_count_;
  std::vector<char> reached_;
  std::vector<std::size_t> order_;
  std::vector<std::size_t> count_start_;
  std::vector<std::size_t> touched_;
};

}  // namespace rrp::lp
