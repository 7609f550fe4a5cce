// SparseLu validated against a dense Gaussian-elimination reference:
// FTRAN / BTRAN solves, product-form eta updates, fill accounting, and the
// singular-basis throw, over random sparse bases and the staircase
// shapes the simplex actually produces on DRRP/SRRP relaxations.  The
// list-walk solves are checked bit for bit against the dense passes
// frozen below, nonzero lists included.
#include "lp/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace {

using rrp::lp::Entry;
using rrp::lp::SparseLu;

/// Column-sparse system: cols[j] holds (row, coeff) entries.
struct System {
  std::size_t m = 0;
  std::vector<std::vector<Entry>> cols;
  std::vector<std::size_t> basis;

  /// Row-major dense B (or B^T when `transpose`).
  std::vector<std::vector<double>> dense(bool transpose) const {
    std::vector<std::vector<double>> b(m, std::vector<double>(m, 0.0));
    for (std::size_t pos = 0; pos < m; ++pos)
      for (const Entry& e : cols[basis[pos]])
        (transpose ? b[pos][e.col] : b[e.col][pos]) += e.coeff;
    return b;
  }
};

/// Columns flattened as SparseLu::factorize takes them (the simplex's
/// compressed sparse columns).
struct Csc {
  std::vector<std::size_t> start{0};
  std::vector<Entry> entries;

  explicit Csc(const std::vector<std::vector<Entry>>& cols) {
    for (const std::vector<Entry>& col : cols) {
      entries.insert(entries.end(), col.begin(), col.end());
      start.push_back(entries.size());
    }
  }
  operator rrp::lp::Columns() const {  // NOLINT(google-explicit-constructor)
    return rrp::lp::Columns{start, entries};
  }
};

/// Dense reference solve of B x = r (B^T x = r when `transpose`) by
/// Gaussian elimination with partial pivoting.
std::vector<double> dense_solve(const System& sys, std::vector<double> r,
                                bool transpose) {
  std::vector<std::vector<double>> a = sys.dense(transpose);
  const std::size_t m = sys.m;
  for (std::size_t k = 0; k < m; ++k) {
    std::size_t p = k;
    for (std::size_t i = k + 1; i < m; ++i)
      if (std::fabs(a[i][k]) > std::fabs(a[p][k])) p = i;
    std::swap(a[k], a[p]);
    std::swap(r[k], r[p]);
    for (std::size_t i = k + 1; i < m; ++i) {
      const double f = a[i][k] / a[k][k];
      for (std::size_t j = k; j < m; ++j) a[i][j] -= f * a[k][j];
      r[i] -= f * r[k];
    }
  }
  for (std::size_t k = m; k-- > 0;) {
    for (std::size_t j = k + 1; j < m; ++j) r[k] -= a[k][j] * r[j];
    r[k] /= a[k][k];
  }
  return r;
}

/// Random sparse nonsingular basis: a guaranteed diagonal plus a few
/// off-diagonal entries per column.
System random_system(std::size_t m, rrp::Rng& rng) {
  System sys;
  sys.m = m;
  sys.cols.resize(m);
  sys.basis.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    sys.basis[j] = j;
    sys.cols[j].push_back(Entry{j, rng.uniform(1.0, 3.0)});
    const std::size_t extra = static_cast<std::size_t>(rng.uniform_int(0, 2));
    for (std::size_t k = 0; k < extra; ++k) {
      const std::size_t r = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
      if (r != j) sys.cols[j].push_back(Entry{r, rng.uniform(-1.0, 1.0)});
    }
  }
  return sys;
}

/// Staircase basis shaped like the DRRP deterministic equivalent:
/// column t couples rows t and t-1 (carry-over), plus slack singletons.
System staircase_system(std::size_t m) {
  System sys;
  sys.m = m;
  sys.cols.resize(m);
  sys.basis.resize(m);
  for (std::size_t t = 0; t < m; ++t) {
    sys.basis[t] = t;
    if (t % 3 == 2) {
      sys.cols[t].push_back(Entry{t, -1.0});  // slack singleton
    } else {
      sys.cols[t].push_back(Entry{t, 1.0});
      if (t > 0) sys.cols[t].push_back(Entry{t - 1, -0.9});
    }
  }
  return sys;
}

std::vector<double> random_vector(std::size_t m, rrp::Rng& rng) {
  std::vector<double> v(m);
  for (double& x : v) x = rng.uniform(-5.0, 5.0);
  return v;
}

/// x's nonzero indices, ascending: a nonzero list for the solves.
std::vector<std::size_t> nonzeros(const std::vector<double>& x) {
  std::vector<std::size_t> nz;
  rrp::lp::list_nonzeros(x, nz);
  return nz;
}

void ftran(const SparseLu& lu, std::vector<double>& x) {
  std::vector<std::size_t> nz = nonzeros(x);
  lu.ftran(x, nz);
}

void btran(const SparseLu& lu, std::vector<double>& y) {
  std::vector<std::size_t> nz = nonzeros(y);
  lu.btran(y, nz);
}

void update(SparseLu& lu, std::size_t pos, const std::vector<double>& w) {
  lu.update(pos, w, nonzeros(w));
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    d = std::max(d, std::fabs(a[i] - b[i]));
  return d;
}

void expect_solves_match(const System& sys, const SparseLu& lu,
                         rrp::Rng& rng, double tol = 1e-9) {
  for (int trial = 0; trial < 4; ++trial) {
    const std::vector<double> rhs = random_vector(sys.m, rng);
    std::vector<double> x = rhs;
    ftran(lu, x);
    const std::vector<double> want = dense_solve(sys, rhs, false);
    EXPECT_LT(max_abs_diff(x, want), tol) << "ftran mismatch";

    std::vector<double> y = rhs;
    btran(lu, y);
    const std::vector<double> want_t = dense_solve(sys, rhs, true);
    EXPECT_LT(max_abs_diff(y, want_t), tol) << "btran mismatch";
  }
}

TEST(SparseLu, MatchesDenseInverseOnRandomBases) {
  rrp::Rng rng(20260809);
  for (std::size_t m : {1u, 2u, 5u, 17u, 40u}) {
    System sys = random_system(m, rng);
    SparseLu lu;
    lu.factorize(sys.m, Csc(sys.cols), sys.basis);
    EXPECT_TRUE(lu.factorized());
    expect_solves_match(sys, lu, rng);
  }
}

TEST(SparseLu, StaircaseBasisFactorsWithoutFill) {
  System sys = staircase_system(30);
  SparseLu lu;
  lu.factorize(sys.m, Csc(sys.cols), sys.basis);
  // The staircase needs no elimination fill: nnz(L+U) == nnz(B).
  EXPECT_DOUBLE_EQ(lu.fill_ratio(), 1.0);
  rrp::Rng rng(7);
  expect_solves_match(sys, lu, rng);
}

TEST(SparseLu, DuplicateEntriesWithinColumnAreSummed) {
  System sys;
  sys.m = 2;
  sys.cols.resize(2);
  sys.basis = {0, 1};
  sys.cols[0] = {Entry{0, 1.0}, Entry{0, 1.5}, Entry{1, 0.5}};  // row 0: 2.5
  sys.cols[1] = {Entry{1, 2.0}};
  SparseLu lu;
  lu.factorize(sys.m, Csc(sys.cols), sys.basis);
  std::vector<double> x = {2.5, 4.5};  // B * (1, 2)^T
  ftran(lu, x);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SparseLu, UpdateMatchesRefactorisation) {
  rrp::Rng rng(42);
  System sys = random_system(25, rng);
  SparseLu lu;
  lu.factorize(sys.m, Csc(sys.cols), sys.basis);

  // Replace a few basis columns by spare columns via product-form
  // updates, mirroring what the simplex does per pivot.
  for (std::size_t pivot = 0; pivot < 5; ++pivot) {
    const std::size_t pos = 3 * pivot + 1;
    // New column: dense-ish random with a solid diagonal entry.
    std::vector<Entry> col{Entry{pos, rng.uniform(1.5, 2.5)}};
    col.push_back(
        Entry{(pos + 7) % sys.m, rng.uniform(-1.0, 1.0)});
    const std::size_t j = sys.cols.size();
    sys.cols.push_back(col);

    // w = Binv * A_j through the current factorisation.
    std::vector<double> w(sys.m, 0.0);
    for (const Entry& e : col) w[e.col] += e.coeff;
    ftran(lu, w);
    ASSERT_GT(std::fabs(w[pos]), 1e-9);
    update(lu, pos, w);
    sys.basis[pos] = j;
  }
  EXPECT_EQ(lu.eta_count(), 5u);

  // The updated factorisation must agree with a fresh one (and with the
  // dense reference solve) on the new basis.
  rrp::Rng probe(99);
  expect_solves_match(sys, lu, probe, 1e-8);

  SparseLu fresh;
  fresh.factorize(sys.m, Csc(sys.cols), sys.basis);
  EXPECT_EQ(fresh.eta_count(), 0u);
  rrp::Rng probe2(99);
  expect_solves_match(sys, fresh, probe2, 1e-8);
}

TEST(SparseLu, AppendedRowsMatchTheBorderedBasis) {
  // Rows appended to an updated factor, then more updates in the grown
  // space: every stage must solve like the dense bordered basis
  // [[B, 0], [r^T, -1]], whose new column is the new row's slack.
  rrp::Rng rng(314);
  System sys = random_system(12, rng);
  SparseLu lu;
  lu.factorize(sys.m, Csc(sys.cols), sys.basis);
  const auto replace = [&](std::size_t pos) {
    std::vector<Entry> col{Entry{pos, rng.uniform(1.5, 2.5)},
                           Entry{(pos + 5) % sys.m, rng.uniform(-1.0, 1.0)}};
    std::vector<double> w(sys.m, 0.0);
    for (const Entry& e : col) w[e.col] += e.coeff;
    ftran(lu, w);
    ASSERT_GT(std::fabs(w[pos]), 1e-9);
    update(lu, pos, w);
    sys.basis[pos] = sys.cols.size();
    sys.cols.push_back(std::move(col));
  };
  replace(2);
  replace(7);
  for (int added = 0; added < 3; ++added) {
    const std::size_t r = sys.m;
    std::vector<Entry> border;  // by basis position
    for (std::size_t pos = 0; pos < sys.m; pos += 3) {
      const double c = rng.uniform(-2.0, 2.0);
      border.push_back(Entry{pos, c});
      sys.cols[sys.basis[pos]].push_back(Entry{r, c});
    }
    lu.append_row(border);
    sys.basis.push_back(sys.cols.size());
    sys.cols.push_back({Entry{r, -1.0}});
    ++sys.m;
    EXPECT_EQ(lu.size(), sys.m);
    rrp::Rng probe(added);
    expect_solves_match(sys, lu, probe, 1e-8);
  }
  replace(1);
  replace(sys.m - 1);  // the last appended slack leaves the basis
  rrp::Rng probe(9);
  expect_solves_match(sys, lu, probe, 1e-8);
}

TEST(SparseLu, SingularBasisThrows) {
  System sys;
  sys.m = 3;
  sys.cols.resize(3);
  sys.basis = {0, 1, 2};
  sys.cols[0] = {Entry{0, 1.0}, Entry{1, 1.0}};
  sys.cols[1] = {Entry{0, 2.0}, Entry{1, 2.0}};  // parallel to column 0
  sys.cols[2] = {Entry{2, 1.0}};
  SparseLu lu;
  EXPECT_THROW(lu.factorize(sys.m, Csc(sys.cols), sys.basis),
               rrp::NumericalError);
  EXPECT_FALSE(lu.factorized());

  // The object must stay usable: refactorising a good basis succeeds.
  sys.cols[1] = {Entry{1, 1.0}};
  lu.factorize(sys.m, Csc(sys.cols), sys.basis);
  EXPECT_TRUE(lu.factorized());
  std::vector<double> x = {1.0, 1.0, 1.0};
  ftran(lu, x);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 0.0, 1e-12);
  EXPECT_NEAR(x[2], 1.0, 1e-12);
}

TEST(SparseLu, EmptyBasisIsTrivial) {
  SparseLu lu;
  std::vector<std::vector<Entry>> cols;
  std::vector<std::size_t> basis;
  lu.factorize(0, Csc(cols), basis);
  std::vector<double> x;
  ftran(lu, x);
  btran(lu, x);
  EXPECT_EQ(lu.eta_count(), 0u);
}

// The left-looking factorisation as it was before it learnt to visit
// only the steps a column reaches, to order the columns by a counting
// sort and to assign singleton steps directly: the columns are ordered
// by std::stable_sort, every column goes through the elimination, and
// every earlier step s < k is checked for each column k.  Its solves
// are the dense passes over all m steps and the eta file, its update()
// the dense scan of w, both as they were before the solves learnt to
// walk nonzero lists.  Kept frozen as the reference SparseLu must match
// bit for bit; a singular basis throws, naming the step as SparseLu
// does.
class DenseStepScanLu {
 public:
  void factorize(std::size_t m, const std::vector<std::vector<Entry>>& cols,
                 const std::vector<std::size_t>& basis) {
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
    std::vector<std::size_t> row_count(m, 0);
    for (std::size_t pos = 0; pos < m; ++pos)
      for (const Entry& e : cols[basis[pos]]) ++row_count[e.col];
    std::vector<std::size_t> order(m);
    for (std::size_t pos = 0; pos < m; ++pos) order[pos] = pos;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return cols[basis[a]].size() < cols[basis[b]].size();
                     });
    std::vector<std::size_t> touched;
    factor_nnz_ = 0;
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t pos = order[k];
      touched.clear();
      for (const Entry& e : cols[basis[pos]]) {
        if (work_[e.col] == 0.0) touched.push_back(e.col);
        work_[e.col] += e.coeff;
      }
      for (std::size_t s = 0; s < k; ++s) {
        const double val = work_[row_of_step_[s]];
        if (val == 0.0) continue;
        ucols_[k].push_back(Entry{s, val});
        for (const Entry& l : lcols_[s]) {
          if (work_[l.col] == 0.0) touched.push_back(l.col);
          work_[l.col] -= l.coeff * val;
        }
      }
      double vmax = 0.0;
      for (std::size_t r : touched) {
        if (step_of_row_[r] != m) continue;
        vmax = std::max(vmax, std::fabs(work_[r]));
      }
      if (vmax < 1e-12)
        throw rrp::NumericalError("reference: singular basis at step " +
                                  std::to_string(k));
      const double eligible = 0.1 * vmax;
      std::size_t prow = m;
      for (std::size_t r : touched) {
        if (step_of_row_[r] != m) continue;
        const double v = std::fabs(work_[r]);
        if (v < eligible || v < 1e-12) continue;
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
    for (std::size_t k = 0; k < m; ++k)
      for (Entry& l : lcols_[k]) l.col = step_of_row_[l.col];
  }

  void update(std::size_t pos, const std::vector<double>& w) {
    Eta eta{pos, w[pos], eta_entries_.size(), 0, false};
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == pos || w[i] == 0.0) continue;
      eta_entries_.push_back(Entry{i, w[i]});
    }
    eta.end = eta_entries_.size();
    etas_.push_back(eta);
  }

  void append_row(const std::vector<Entry>& row) {
    const std::size_t p = m_++;
    row_of_step_.push_back(p);
    col_of_step_.push_back(p);
    step_of_row_.push_back(p);
    lcols_.emplace_back();
    ucols_.emplace_back();
    udiag_.push_back(-1.0);
    work_.push_back(0.0);
    Eta eta{p, 0.0, eta_entries_.size(), 0, true};
    eta_entries_.insert(eta_entries_.end(), row.begin(), row.end());
    eta.end = eta_entries_.size();
    etas_.push_back(eta);
  }

  void ftran(std::vector<double>& x) {
    for (std::size_t k = 0; k < m_; ++k) work_[k] = x[row_of_step_[k]];
    for (std::size_t k = 0; k < m_; ++k) {
      const double v = work_[k];
      if (v == 0.0) continue;
      for (const Entry& l : lcols_[k]) work_[l.col] -= l.coeff * v;
    }
    for (std::size_t k = m_; k-- > 0;) {
      double v = work_[k];
      if (v == 0.0) continue;
      v /= udiag_[k];
      work_[k] = v;
      for (const Entry& u : ucols_[k]) work_[u.col] -= u.coeff * v;
    }
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

  void btran(std::vector<double>& y) {
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
    for (std::size_t k = 0; k < m_; ++k) work_[k] = y[col_of_step_[k]];
    for (std::size_t k = 0; k < m_; ++k) {
      double s = work_[k];
      for (const Entry& u : ucols_[k]) s -= u.coeff * work_[u.col];
      work_[k] = s / udiag_[k];
    }
    for (std::size_t k = m_; k-- > 0;) {
      double s = work_[k];
      for (const Entry& l : lcols_[k]) s -= l.coeff * work_[l.col];
      work_[k] = s;
    }
    for (std::size_t k = 0; k < m_; ++k) y[row_of_step_[k]] = work_[k];
  }

  std::size_t factor_nonzeros() const { return factor_nnz_; }

 private:
  struct Eta {
    std::size_t pos;
    double pivot;
    std::size_t begin;
    std::size_t end;
    bool row;
  };

  std::size_t m_ = 0;
  std::vector<Eta> etas_;
  std::vector<Entry> eta_entries_;
  std::vector<std::size_t> row_of_step_, col_of_step_, step_of_row_;
  std::vector<std::vector<Entry>> lcols_, ucols_;
  std::vector<double> udiag_, work_;
  std::size_t factor_nnz_ = 0;
};

/// Random sparse basis with real elimination work: `extra` off-diagonal
/// entries per column (some rows hit twice, so duplicates are summed)
/// and the diagonal moved by a random row permutation.
System tangled_system(std::size_t m, std::size_t extra, rrp::Rng& rng) {
  System sys;
  sys.m = m;
  sys.cols.resize(m);
  sys.basis.resize(m);
  std::vector<std::size_t> perm(m);
  for (std::size_t i = 0; i < m; ++i) perm[i] = i;
  for (std::size_t i = m; i-- > 1;)
    std::swap(perm[i], perm[static_cast<std::size_t>(rng.uniform_int(
                           0, static_cast<std::int64_t>(i)))]);
  for (std::size_t j = 0; j < m; ++j) {
    sys.basis[j] = m - 1 - j;  // positions hold the columns reversed
    sys.cols[j].push_back(Entry{perm[j], rng.uniform(0.5, 3.0)});
    for (std::size_t k = 0; k < extra; ++k) {
      const auto r = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
      sys.cols[j].push_back(Entry{r, rng.uniform(-1.0, 1.0)});
    }
  }
  return sys;
}

/// -I over m rows: the all-slack basis of a cold simplex solve.
System slack_system(std::size_t m) {
  System sys;
  sys.m = m;
  sys.cols.resize(m);
  sys.basis.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    sys.cols[i].push_back(Entry{i, -1.0});
    sys.basis[i] = i;
  }
  return sys;
}

TEST(SparseLu, FactorMatchesTheDenseStepScan) {
  rrp::Rng rng(20261019);
  std::vector<System> systems;
  for (std::size_t m : {1u, 3u, 12u, 40u, 90u}) {
    systems.push_back(random_system(m, rng));
    for (std::size_t extra : {1u, 3u, 6u})
      systems.push_back(tangled_system(m, extra, rng));
  }
  systems.push_back(slack_system(1));
  systems.push_back(slack_system(64));
  systems.push_back(staircase_system(30));
  systems.push_back(staircase_system(101));

  std::size_t compared = 0;
  std::size_t tangled_fill = 0;
  for (const System& sys : systems) {
    SparseLu lu;
    DenseStepScanLu ref;
    try {
      lu.factorize(sys.m, Csc(sys.cols), sys.basis);
    } catch (const rrp::NumericalError&) {
      continue;  // a singular random draw; the reference is not asked
    }
    ++compared;
    ref.factorize(sys.m, sys.cols, sys.basis);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    EXPECT_EQ(lu.factor_nonzeros(), ref.factor_nonzeros()) << "m " << sys.m;
    if (lu.fill_ratio() > 1.0) ++tangled_fill;
    for (int trial = 0; trial < 3; ++trial) {
      const std::vector<double> rhs = random_vector(sys.m, rng);
      std::vector<double> x = rhs, x_ref = rhs, y = rhs, y_ref = rhs;
      ftran(lu, x);
      ref.ftran(x_ref);
      btran(lu, y);
      ref.btran(y_ref);
      for (std::size_t i = 0; i < sys.m; ++i) {
        EXPECT_EQ(x[i], x_ref[i]) << "ftran, m " << sys.m << ", row " << i;
        EXPECT_EQ(y[i], y_ref[i]) << "btran, m " << sys.m << ", row " << i;
      }
    }
  }
  // The draws must include bases that need elimination fill, or the
  // comparison never exercises a reached step.
  EXPECT_GE(compared + 2, systems.size());
  EXPECT_GE(tangled_fill, 4u);
}

/// Random staircase basis over m rows, lower triangular with a solid
/// diagonal (so nonsingular): column t is a slack singleton (-1 in row
/// t) with probability `slack_share`, else it couples row t with row
/// t - 1 (a DRRP balance row) and, one time in three, with its tree
/// parent (t - 1) / 2 (an SRRP vertex).  Every non-slack column but the
/// first is a non-singleton step of the factor, so `slack_share` sets
/// the share of steps the list walk visits in its L and U sweeps.
System random_staircase(std::size_t m, double slack_share, rrp::Rng& rng) {
  System sys;
  sys.m = m;
  sys.cols.resize(m);
  sys.basis.resize(m);
  for (std::size_t t = 0; t < m; ++t) {
    sys.basis[t] = t;
    if (t == 0 || rng.uniform(0.0, 1.0) < slack_share) {
      sys.cols[t].push_back(Entry{t, -1.0});
      continue;
    }
    sys.cols[t].push_back(Entry{t - 1, rng.uniform(-1.0, -0.2)});
    sys.cols[t].push_back(Entry{t, rng.uniform(0.5, 2.0)});
    const std::size_t parent = (t - 1) / 2;
    if (parent + 1 < t && rng.uniform_int(0, 2) == 0)
      sys.cols[t].push_back(Entry{parent, rng.uniform(-1.0, 1.0)});
  }
  return sys;
}

/// Solves one right-hand side through `lu` (entering with `nz`) and
/// through the frozen dense passes; returns the first difference in the
/// values or a nonzero list that is not the ascending list of the dense
/// result's nonzeros, or "" when they agree.
std::string compare_solve(const SparseLu& lu, DenseStepScanLu& ref,
                          const std::vector<double>& rhs,
                          std::vector<std::size_t> nz, bool transpose) {
  const char* what = transpose ? "btran" : "ftran";
  std::vector<double> x = rhs;
  std::vector<double> x_ref = rhs;
  if (transpose) {
    lu.btran(x, nz);
    ref.btran(x_ref);
  } else {
    lu.ftran(x, nz);
    ref.ftran(x_ref);
  }
  std::vector<char> listed(x.size(), 0);
  for (std::size_t k = 0; k < nz.size(); ++k) {
    if (nz[k] >= x.size() || (k > 0 && nz[k - 1] >= nz[k]))
      return std::string(what) + ": list not ascending at entry " +
             std::to_string(k);
    listed[nz[k]] = 1;
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] != x_ref[i])  // == treats +0 and -0 as equal
      return std::string(what) + ": entry " + std::to_string(i) + " is " +
             std::to_string(x[i]) + ", dense passes give " +
             std::to_string(x_ref[i]);
    if (x[i] != 0.0 && listed[i] == 0)
      return std::string(what) + ": nonzero entry " + std::to_string(i) +
             " not listed";
    if (listed[i] != 0 && x_ref[i] == 0.0)
      return std::string(what) + ": entry " + std::to_string(i) +
             " listed, but the dense passes leave it zero";
  }
  return "";
}

/// Unit vectors, short sparse right-hand sides whose lists repeat an
/// entry, and full ones, each through FTRAN and BTRAN.
std::string compare_solves(const SparseLu& lu, DenseStepScanLu& ref,
                           std::size_t m, rrp::Rng& rng) {
  const auto index = [&] {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
  };
  for (bool transpose : {false, true}) {
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<double> rhs(m, 0.0);
      std::vector<std::size_t> nz;
      if (trial < 2) {
        nz.push_back(index());
        rhs[nz[0]] = 1.0;
      } else if (trial < 5) {
        for (int e = 0; e < trial; ++e) {
          const std::size_t i = index();
          rhs[i] = rng.uniform(-3.0, 3.0);
          nz.push_back(i);
        }
        nz.push_back(nz.front());  // duplicates are allowed
      } else {
        rhs = random_vector(m, rng);
        nz = nonzeros(rhs);
      }
      const std::string diff = compare_solve(lu, ref, rhs, nz, transpose);
      if (!diff.empty()) return diff;
    }
  }
  return "";
}

TEST(SparseLu, SolvesMatchTheFrozenDensePasses) {
  rrp::Rng rng(20261024);
  for (std::size_t m : {16u, 40u, 75u, 152u}) {
    for (double slack_share : {0.15, 0.35, 0.5, 0.65, 0.85}) {
      System sys = random_staircase(m, slack_share, rng);
      SparseLu lu;
      DenseStepScanLu ref;
      lu.factorize(sys.m, Csc(sys.cols), sys.basis);
      ref.factorize(sys.m, sys.cols, sys.basis);
      SCOPED_TRACE("m " + std::to_string(m) + ", slack share " +
                   std::to_string(slack_share));
      ASSERT_EQ(compare_solves(lu, ref, sys.m, rng), "") << "fresh factor";

      // Column etas: replace a basis column through both factors.
      const auto replace = [&](std::size_t pos) {
        std::vector<double> w(sys.m, 0.0);
        const std::size_t other = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(sys.m) - 1));
        w[pos] += rng.uniform(1.0, 2.0);
        w[other] += rng.uniform(-1.0, 1.0);
        std::vector<double> w_ref = w;
        std::vector<std::size_t> nz{pos, other};
        lu.ftran(w, nz);
        ref.ftran(w_ref);
        if (std::fabs(w[pos]) < 1e-3) return;  // keep B well conditioned
        lu.update(pos, w, nz);
        ref.update(pos, w_ref);
      };
      for (int k = 0; k < 4; ++k)
        replace(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(sys.m) - 1)));
      ASSERT_EQ(compare_solves(lu, ref, sys.m, rng), "") << "column etas";

      // Row etas: border the factor with two rows, then replace again,
      // the last appended position included.
      for (int added = 0; added < 2; ++added) {
        std::vector<Entry> border;
        for (std::size_t pos = added; pos < sys.m; pos += 4)
          border.push_back(Entry{pos, rng.uniform(-2.0, 2.0)});
        lu.append_row(border);
        ref.append_row(border);
        ++sys.m;
      }
      ASSERT_EQ(compare_solves(lu, ref, sys.m, rng), "") << "row etas";
      replace(sys.m - 1);
      replace(0);
      ASSERT_EQ(compare_solves(lu, ref, sys.m, rng), "") << "both etas";
    }
  }
}

/// Factorises `sys` with `lu` and with the frozen reference; returns
/// the first difference in where a singular basis is reported, in
/// factor_nonzeros() or in the solves' values and nonzero lists, or ""
/// when there is none.
std::string compare_factor(SparseLu& lu, const System& sys, rrp::Rng& rng) {
  const auto step = [](const rrp::NumericalError& e) {
    const std::string what = e.what();
    return what.substr(what.rfind(' ') + 1);
  };
  std::string singular;
  std::string ref_singular;
  try {
    lu.factorize(sys.m, Csc(sys.cols), sys.basis);
  } catch (const rrp::NumericalError& e) {
    singular = step(e);
  }
  DenseStepScanLu ref;
  try {
    ref.factorize(sys.m, sys.cols, sys.basis);
  } catch (const rrp::NumericalError& e) {
    ref_singular = step(e);
  }
  if (singular != ref_singular)
    return "singular at step '" + singular + "', the reference at '" +
           ref_singular + "'";
  if (!singular.empty()) return "";
  if (lu.factor_nonzeros() != ref.factor_nonzeros())
    return "factor_nonzeros " + std::to_string(lu.factor_nonzeros()) +
           ", the reference's " + std::to_string(ref.factor_nonzeros());
  return compare_solves(lu, ref, sys.m, rng);
}

/// `sys` with column `j` cut down to one entry on the row of its first
/// entry: a slack (-1) or a structural singleton.
void make_singleton(System& sys, std::size_t j, bool slack, rrp::Rng& rng) {
  const std::size_t row = sys.cols[j].front().col;
  sys.cols[j] = {Entry{row, slack ? -1.0 : rng.uniform(0.5, 3.0)}};
}

TEST(SparseLu, CountingSortAndSingletonStepsKeepTheFactor) {
  rrp::Rng rng(20261020);
  struct Case {
    std::string name;
    System sys;
    bool singular = false;
  };
  std::vector<Case> cases;
  for (std::size_t m : {1u, 7u, 64u, 130u})
    cases.push_back({"slack basis, m " + std::to_string(m), slack_system(m)});
  // Singleton and structural columns mixed, with ties in column count
  // among both, so the order within a count decides the pivots.
  for (std::size_t m : {12u, 40u, 90u}) {
    for (double share : {0.25, 0.5, 0.75}) {
      for (std::size_t extra : {1u, 2u}) {
        System sys = tangled_system(m, extra, rng);
        for (std::size_t j = 0; j < m; ++j)
          if (rng.uniform(0.0, 1.0) < share)
            make_singleton(sys, j, rng.uniform(0.0, 1.0) < 0.5, rng);
        cases.push_back({"mixed, m " + std::to_string(m) + ", share " +
                             std::to_string(share) + ", extra " +
                             std::to_string(extra),
                         std::move(sys)});
      }
    }
    cases.push_back(
        {"staircase, m " + std::to_string(m), random_staircase(m, 0.5, rng)});
  }
  // Under the ascending-count order every step before a singleton is a
  // singleton, so a singleton whose row an earlier step pivoted leaves
  // the basis singular: it goes through the elimination, and both
  // factorisations must report the same step.
  {
    System sys = tangled_system(20, 2, rng);
    for (std::size_t j = 0; j < 20; j += 3) make_singleton(sys, j, true, rng);
    sys.cols[13] = {Entry{sys.cols[3].front().col, 2.5}};
    cases.push_back({"structural singleton on a pivoted row", sys, true});
  }
  {
    System sys = tangled_system(16, 2, rng);
    for (std::size_t j = 1; j < 16; j += 2) make_singleton(sys, j, true, rng);
    sys.cols[13] = sys.cols[5];
    cases.push_back({"two slack singletons on one row", sys, true});
  }
  {
    System sys = slack_system(9);
    sys.cols[4] = {Entry{4, 1e-13}};  // below the pivot tolerance
    cases.push_back({"singleton too small to pivot on", sys, true});
  }

  // One object refactorises every basis in turn, singular ones among
  // them, so the scratch it keeps across calls must leave no trace.
  SparseLu lu;
  std::size_t singular_draws = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(compare_factor(lu, c.sys, rng), "");
    if (c.singular)
      EXPECT_FALSE(lu.factorized());
    else if (!lu.factorized())
      ++singular_draws;
  }
  // A random draw may be singular too, but most must factorise.
  EXPECT_LE(singular_draws, 4u);
}

TEST(SparseLu, EtaNonzeroAccountingTracksUpdates) {
  rrp::Rng rng(5);
  System sys = random_system(10, rng);
  SparseLu lu;
  lu.factorize(sys.m, Csc(sys.cols), sys.basis);
  EXPECT_EQ(lu.eta_nonzeros(), 0u);

  std::vector<double> w(sys.m, 0.0);
  w[2] = 1.0;
  w[5] = 0.25;
  w[7] = -0.5;
  update(lu, 2, w);
  EXPECT_EQ(lu.eta_count(), 1u);
  EXPECT_EQ(lu.eta_nonzeros(), 2u);  // off-pivot entries only

  lu.factorize(sys.m, Csc(sys.cols), sys.basis);
  EXPECT_EQ(lu.eta_count(), 0u);
  EXPECT_EQ(lu.eta_nonzeros(), 0u);
}

}  // namespace
