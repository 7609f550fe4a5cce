#include "lp/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"

namespace rrp::lp {

namespace {
/// Relative threshold for partial pivoting: a row is numerically
/// eligible when its magnitude is within this factor of the column
/// maximum, leaving room to prefer sparsity among eligible rows.
constexpr double kPivotThreshold = 0.1;
/// Below this absolute magnitude a column has no usable pivot and the
/// basis is declared singular.
constexpr double kSingularTol = 1e-12;
}  // namespace

void SparseLu::factorize(std::size_t m,
                         const std::vector<std::vector<Entry>>& cols,
                         std::span<const std::size_t> basis) {
  m_ = m;
  etas_.clear();
  eta_entries_.clear();
  row_of_step_.assign(m, m);
  col_of_step_.assign(m, m);
  step_of_row_.assign(m, m);
  lcols_.assign(m, {});
  ucols_.assign(m, {});
  udiag_.assign(m, 0.0);
  work_.assign(m, 0.0);
  if (m == 0) {
    base_nnz_ = factor_nnz_ = 0;
    return;
  }

  // Static Markowitz data: row counts over the basis columns, and a
  // column order by ascending nonzero count (stable, so ties resolve by
  // basis position — deterministic across runs).
  std::vector<std::size_t> row_count(m, 0);
  base_nnz_ = 0;
  for (std::size_t pos = 0; pos < m; ++pos) {
    const auto& col = cols[basis[pos]];
    base_nnz_ += col.size();
    for (const Entry& e : col) ++row_count[e.col];
  }
  std::vector<std::size_t> order(m);
  for (std::size_t pos = 0; pos < m; ++pos) order[pos] = pos;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cols[basis[a]].size() < cols[basis[b]].size();
                   });

  // Left-looking elimination over a dense scratch column.  `touched`
  // tracks every row written so the scratch is re-zeroed in O(nnz).
  // A write that makes a pivoted row nonzero marks its step
  // (`reached[s] = k`), and [lo, hi) bounds the steps marked for the
  // current column k.
  std::vector<std::size_t> touched;
  touched.reserve(m);
  std::vector<std::size_t> reached(m, m);
  std::size_t lo = 0;
  std::size_t hi = 0;
  const auto write = [&](std::size_t k, std::size_t r) {
    if (work_[r] != 0.0) return;
    touched.push_back(r);
    const std::size_t s = step_of_row_[r];
    if (s == m) return;
    reached[s] = k;
    lo = std::min(lo, s);
    hi = std::max(hi, s + 1);
  };
  factor_nnz_ = 0;
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t pos = order[k];
    touched.clear();
    lo = m;
    hi = 0;
    for (const Entry& e : cols[basis[pos]]) {
      write(k, e.col);
      work_[e.col] += e.coeff;
    }
    // Apply the reached elimination steps in ascending order; L
    // multipliers still reference original rows at this point.  Step s
    // only writes rows pivoted after s, so the steps it reaches lie
    // ahead of the scan (which follows hi), and a step never reached
    // has a zero pivot-row value: the arithmetic, and its order, is that
    // of applying every step s < k with a nonzero value.
    for (std::size_t s = lo; s < hi; ++s) {
      if (reached[s] != k) continue;
      const double val = work_[row_of_step_[s]];
      if (val == 0.0) continue;
      ucols_[k].push_back(Entry{s, val});
      for (const Entry& l : lcols_[s]) {
        write(k, l.col);
        work_[l.col] -= l.coeff * val;
      }
    }
    // Threshold partial pivot over the unpivoted rows: numerically
    // eligible candidates compete on static sparsity, then magnitude,
    // then row index (full determinism).
    double vmax = 0.0;
    for (std::size_t r : touched) {
      if (step_of_row_[r] != m) continue;
      vmax = std::max(vmax, std::fabs(work_[r]));
    }
    if (vmax < kSingularTol) {
      for (std::size_t r : touched) work_[r] = 0.0;
      udiag_.clear();  // leave the object in a "not factorized" state
      throw NumericalError("SparseLu: singular basis at step " +
                           std::to_string(k));
    }
    const double eligible = kPivotThreshold * vmax;
    std::size_t prow = m;
    for (std::size_t r : touched) {
      if (step_of_row_[r] != m) continue;
      const double v = std::fabs(work_[r]);
      if (v < eligible || v < kSingularTol) continue;
      if (prow == m || row_count[r] < row_count[prow] ||
          (row_count[r] == row_count[prow] &&
           (v > std::fabs(work_[prow]) ||
            (v == std::fabs(work_[prow]) && r < prow)))) {
        prow = r;
      }
    }
    const double diag = work_[prow];
    row_of_step_[k] = prow;
    step_of_row_[prow] = k;
    col_of_step_[k] = pos;
    udiag_[k] = diag;
    for (std::size_t r : touched) {
      const double v = work_[r];
      work_[r] = 0.0;
      if (r == prow || v == 0.0 || step_of_row_[r] != m) continue;
      lcols_[k].push_back(Entry{r, v / diag});
    }
    factor_nnz_ += lcols_[k].size() + ucols_[k].size() + 1;
  }
  // Remap L multiplier rows from original-row space to step space (all
  // targets are pivoted by now, and always at a later step).
  for (std::size_t k = 0; k < m; ++k)
    for (Entry& l : lcols_[k]) l.col = step_of_row_[l.col];
}

void SparseLu::ftran(std::vector<double>& x) const {
  // Permute b into step space.
  for (std::size_t k = 0; k < m_; ++k) work_[k] = x[row_of_step_[k]];
  // Forward solve L z = P b (unit diagonal).
  for (std::size_t k = 0; k < m_; ++k) {
    const double v = work_[k];
    if (v == 0.0) continue;
    for (const Entry& l : lcols_[k]) work_[l.col] -= l.coeff * v;
  }
  // Backward solve U w = z, column oriented.
  for (std::size_t k = m_; k-- > 0;) {
    double v = work_[k];
    if (v == 0.0) continue;
    v /= udiag_[k];
    work_[k] = v;
    for (const Entry& u : ucols_[k]) work_[u.col] -= u.coeff * v;
  }
  // Scatter to basis-position space and replay the eta file forward.
  for (std::size_t k = 0; k < m_; ++k) x[col_of_step_[k]] = work_[k];
  for (const Eta& e : etas_) {
    if (e.row) {
      for (std::size_t k = e.begin; k < e.end; ++k)
        x[e.pos] += eta_entries_[k].coeff * x[eta_entries_[k].col];
      continue;
    }
    const double t = x[e.pos];
    if (t == 0.0) continue;
    const double scaled = t / e.pivot;
    x[e.pos] = scaled;
    for (std::size_t k = e.begin; k < e.end; ++k)
      x[eta_entries_[k].col] -= eta_entries_[k].coeff * scaled;
  }
}

void SparseLu::btran(std::vector<double>& y) const {
  // Eta transposes apply in reverse order; each touches one component.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    if (it->row) {
      const double t = y[it->pos];
      if (t == 0.0) continue;
      for (std::size_t k = it->begin; k < it->end; ++k)
        y[eta_entries_[k].col] += eta_entries_[k].coeff * t;
      continue;
    }
    double s = y[it->pos];
    for (std::size_t k = it->begin; k < it->end; ++k)
      s -= eta_entries_[k].coeff * y[eta_entries_[k].col];
    y[it->pos] = s / it->pivot;
  }
  // Permute c into step space.
  for (std::size_t k = 0; k < m_; ++k) work_[k] = y[col_of_step_[k]];
  // Forward solve U^T z = c: row k of U^T is column k of U.
  for (std::size_t k = 0; k < m_; ++k) {
    double s = work_[k];
    for (const Entry& u : ucols_[k]) s -= u.coeff * work_[u.col];
    work_[k] = s / udiag_[k];
  }
  // Backward solve L^T w = z (unit diagonal).
  for (std::size_t k = m_; k-- > 0;) {
    double s = work_[k];
    for (const Entry& l : lcols_[k]) s -= l.coeff * work_[l.col];
    work_[k] = s;
  }
  // Scatter to row space.
  for (std::size_t k = 0; k < m_; ++k) y[row_of_step_[k]] = work_[k];
}

void SparseLu::update(std::size_t pos, std::span<const double> w) {
  Eta eta;
  eta.pos = pos;
  eta.pivot = w[pos];
  eta.begin = eta_entries_.size();
  for (std::size_t i = 0; i < m_; ++i) {
    if (i == pos || w[i] == 0.0) continue;
    eta_entries_.push_back(Entry{i, w[i]});
  }
  eta.end = eta_entries_.size();
  etas_.push_back(eta);
}

void SparseLu::append_row(std::span<const Entry> row) {
  // [[B, 0], [r^T, -1]] = [[B, 0], [0, -1]] * [[I, 0], [-r^T, 1]]: the
  // first factor is the current one plus a diagonal step, the second a
  // row eta whose inverse [[I, 0], [r^T, 1]] FTRAN applies in order.
  const std::size_t p = m_++;
  row_of_step_.push_back(p);
  col_of_step_.push_back(p);
  step_of_row_.push_back(p);
  lcols_.emplace_back();
  ucols_.emplace_back();
  udiag_.push_back(-1.0);
  work_.push_back(0.0);
  ++base_nnz_;
  ++factor_nnz_;
  Eta eta;
  eta.pos = p;
  eta.row = true;
  eta.begin = eta_entries_.size();
  eta_entries_.insert(eta_entries_.end(), row.begin(), row.end());
  eta.end = eta_entries_.size();
  etas_.push_back(eta);
}

}  // namespace rrp::lp
