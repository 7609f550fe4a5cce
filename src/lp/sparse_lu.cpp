#include "lp/sparse_lu.hpp"

#include <algorithm>
#include <bit>
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

std::size_t bitset_words(std::size_t m) { return (m + 63) / 64; }

void set_bit(std::vector<std::uint64_t>& bits, std::size_t i) {
  bits[i >> 6] |= std::uint64_t{1} << (i & 63);
}

/// Calls f(i) for every set bit i in ascending order and clears them.
template <class F>
void drain(std::vector<std::uint64_t>& bits, F&& f) {
  for (std::size_t w = 0; w < bits.size(); ++w) {
    std::uint64_t word = bits[w];
    if (word == 0) continue;
    bits[w] = 0;
    const std::size_t base = w * 64;
    do {
      f(base + static_cast<std::size_t>(std::countr_zero(word)));
      word &= word - 1;
    } while (word != 0);
  }
}

/// Lists the marked indices where x is nonzero, ascending, and clears
/// the marks.
void emit_marked(std::vector<std::uint64_t>& marks,
                 const std::vector<double>& x, std::vector<std::size_t>& nz) {
  nz.resize(x.size());
  std::size_t n = 0;
  drain(marks, [&](std::size_t i) {
    nz[n] = i;
    n += x[i] != 0.0 ? 1 : 0;
  });
  nz.resize(n);
}

/// Replays the eta file forward on x (FTRAN); `written(i)` sees every
/// position the replay writes.
template <class Etas, class Written>
void replay_forward(const Etas& etas, const std::vector<Entry>& entries,
                    std::vector<double>& x, Written&& written) {
  for (const auto& e : etas) {
    if (e.row) {
      for (std::size_t k = e.begin; k < e.end; ++k)
        x[e.pos] += entries[k].coeff * x[entries[k].col];
      written(e.pos);
      continue;
    }
    const double t = x[e.pos];
    if (t == 0.0) continue;
    const double scaled = t / e.pivot;
    x[e.pos] = scaled;
    for (std::size_t k = e.begin; k < e.end; ++k) {
      x[entries[k].col] -= entries[k].coeff * scaled;
      written(entries[k].col);
    }
  }
}

/// Applies the eta transposes in reverse on y (BTRAN); `written(i)`
/// sees every position a row eta writes and every pivot position a
/// column eta leaves nonzero.
template <class Etas, class Written>
void replay_backward(const Etas& etas, const std::vector<Entry>& entries,
                     std::vector<double>& y, Written&& written) {
  for (auto it = etas.rbegin(); it != etas.rend(); ++it) {
    if (it->row) {
      const double t = y[it->pos];
      if (t == 0.0) continue;
      for (std::size_t k = it->begin; k < it->end; ++k) {
        y[entries[k].col] += entries[k].coeff * t;
        written(entries[k].col);
      }
      continue;
    }
    double s = y[it->pos];
    for (std::size_t k = it->begin; k < it->end; ++k)
      s -= entries[k].coeff * y[entries[k].col];
    s /= it->pivot;
    y[it->pos] = s;
    if (s != 0.0) written(it->pos);
  }
}

}  // namespace

void list_nonzeros(std::span<const double> x, std::vector<std::size_t>& nz) {
  // Every index is written and the count advances past the nonzeros
  // only: no branch on the data.
  nz.resize(x.size());
  std::size_t n = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    nz[n] = i;
    n += x[i] != 0.0 ? 1 : 0;
  }
  nz.resize(n);
}

void SparseLu::factorize(std::size_t m, Columns cols,
                         std::span<const std::size_t> basis) {
  m_ = m;
  etas_.clear();
  eta_entries_.clear();
  row_of_step_.assign(m, m);
  col_of_step_.assign(m, m);
  step_of_row_.assign(m, m);
  lstart_.assign(1, 0);
  ustart_.assign(1, 0);
  lent_.clear();
  uent_.clear();
  udiag_.assign(m, 0.0);
  work_.assign(m, 0.0);
  step_marks_.assign(bitset_words(m), 0);
  pos_marks_.assign(bitset_words(m), 0);
  if (m == 0) {
    base_nnz_ = factor_nnz_ = 0;
    step_of_col_.clear();
    lsteps_.clear();
    usteps_.clear();
    lone_div_.clear();
    return;
  }

  // Static Markowitz data: row counts over the basis columns, and a
  // column order by ascending nonzero count (stable, so ties resolve by
  // basis position — deterministic across runs).
  std::vector<std::size_t> row_count(m, 0);
  base_nnz_ = 0;
  for (std::size_t pos = 0; pos < m; ++pos) {
    const std::span<const Entry> col = cols[basis[pos]];
    base_nnz_ += col.size();
    for (const Entry& e : col) ++row_count[e.col];
  }
  std::vector<std::size_t> order;
  order.reserve(m);
  for (std::size_t pos = 0; pos < m; ++pos) order.push_back(pos);
  factor_nnz_ = 0;
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
      uent_.push_back(Entry{s, val});
      for (std::size_t q = lstart_[s]; q < lstart_[s + 1]; ++q) {
        const Entry& l = lent_[q];
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
      lent_.push_back(Entry{r, v / diag});
    }
    lstart_.push_back(lent_.size());
    ustart_.push_back(uent_.size());
  }
  factor_nnz_ = lent_.size() + uent_.size() + m;
  // Remap L multiplier rows from original-row space to step space (all
  // targets are pivoted by now, and always at a later step).
  for (Entry& l : lent_) l.col = step_of_row_[l.col];

  // What the solves visit: the position-to-step inverse, the steps
  // with an L and with a U column, and the division a step without a
  // U column makes outside the U sweep.
  step_of_col_.assign(m, m);
  lsteps_.clear();
  usteps_.clear();
  lone_div_.assign(m, 1.0);
  for (std::size_t k = 0; k < m; ++k) {
    step_of_col_[col_of_step_[k]] = k;
    if (lstart_[k] != lstart_[k + 1]) lsteps_.push_back(k);
    if (ustart_[k] != ustart_[k + 1])
      usteps_.push_back(k);
    else
      lone_div_[k] = udiag_[k];
  }
}

void SparseLu::ftran(std::vector<double>& x,
                     std::vector<std::size_t>& nz) const {
  const auto mark_step = [&](std::size_t k) { set_bit(step_marks_, k); };
  const auto mark_pos = [&](std::size_t p) { set_bit(pos_marks_, p); };
  // Permute b into step space.  The sum onto a zero is exact, and a
  // repeated row adds the zero its first visit left.
  for (std::size_t i : nz) {
    const std::size_t k = step_of_row_[i];
    work_[k] += x[i];
    x[i] = 0.0;
    mark_step(k);
  }
  // L z = P b over the steps with an L column.
  for (std::size_t k : lsteps_) {
    const double v = work_[k];
    if (v == 0.0) continue;
    for (std::size_t q = lstart_[k]; q < lstart_[k + 1]; ++q) {
      work_[lent_[q].col] -= lent_[q].coeff * v;
      mark_step(lent_[q].col);
    }
  }
  // U w = z over the steps with a U column, descending.
  for (auto it = usteps_.rbegin(); it != usteps_.rend(); ++it) {
    const std::size_t k = *it;
    double v = work_[k];
    if (v == 0.0) continue;
    v /= udiag_[k];
    work_[k] = v;
    for (std::size_t q = ustart_[k]; q < ustart_[k + 1]; ++q) {
      work_[uent_[q].col] -= uent_[q].coeff * v;
      mark_step(uent_[q].col);
    }
  }
  // Scatter the written steps to position space; a step without a U
  // column divides by its diagonal here, the U sweep's only work on it.
  drain(step_marks_, [&](std::size_t k) {
    const std::size_t p = col_of_step_[k];
    x[p] = work_[k] / lone_div_[k];
    work_[k] = 0.0;
    mark_pos(p);
  });
  replay_forward(etas_, eta_entries_, x, mark_pos);
  emit_marked(pos_marks_, x, nz);
}

void SparseLu::btran(std::vector<double>& y,
                     std::vector<std::size_t>& nz) const {
  const auto mark_step = [&](std::size_t k) { set_bit(step_marks_, k); };
  const auto mark_pos = [&](std::size_t p) { set_bit(pos_marks_, p); };
  for (std::size_t p : nz) mark_pos(p);
  replay_backward(etas_, eta_entries_, y, mark_pos);
  // Permute c into step space; a step without a U column divides by its
  // diagonal here, the U^T sweep's only work on it.
  drain(pos_marks_, [&](std::size_t p) {
    const std::size_t k = step_of_col_[p];
    work_[k] = y[p] / lone_div_[k];
    y[p] = 0.0;
    mark_step(k);
  });
  // U^T z = c and L^T w = z in gather form over the steps with a U
  // (ascending) and an L column (descending); a step is marked when its
  // value is nonzero.
  for (std::size_t k : usteps_) {
    double s = work_[k];
    for (std::size_t q = ustart_[k]; q < ustart_[k + 1]; ++q)
      s -= uent_[q].coeff * work_[uent_[q].col];
    s /= udiag_[k];
    work_[k] = s;
    step_marks_[k >> 6] |= std::uint64_t{s != 0.0} << (k & 63);
  }
  for (auto it = lsteps_.rbegin(); it != lsteps_.rend(); ++it) {
    const std::size_t k = *it;
    double s = work_[k];
    for (std::size_t q = lstart_[k]; q < lstart_[k + 1]; ++q)
      s -= lent_[q].coeff * work_[lent_[q].col];
    work_[k] = s;
    step_marks_[k >> 6] |= std::uint64_t{s != 0.0} << (k & 63);
  }
  // Scatter the marked steps to row space.
  drain(step_marks_, [&](std::size_t k) {
    const std::size_t r = row_of_step_[k];
    y[r] = work_[k];
    work_[k] = 0.0;
    mark_pos(r);
  });
  emit_marked(pos_marks_, y, nz);
}

void SparseLu::update(std::size_t pos, std::span<const double> w,
                      std::span<const std::size_t> nz) {
  Eta eta;
  eta.pos = pos;
  eta.pivot = w[pos];
  eta.begin = eta_entries_.size();
  for (std::size_t i : nz) {
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
  step_of_col_.push_back(p);
  lstart_.push_back(lent_.size());
  ustart_.push_back(uent_.size());
  udiag_.push_back(-1.0);
  lone_div_.push_back(-1.0);
  work_.push_back(0.0);
  step_marks_.resize(bitset_words(m_), 0);
  pos_marks_.resize(bitset_words(m_), 0);
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
