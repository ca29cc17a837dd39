#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "lp/lu.h"
#include "lp/model.h"
#include "lp/pdhg.h"
#include "lp/scaling.h"
#include "lp/simplex.h"
#include "lp/sparse.h"
#include "lp_certify.h"
#include "lp_fuzz.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/rng.h"

namespace wanplace::lp {
namespace {

/// One nonzero of a test matrix, in the order its row lists it.
struct Nonzero {
  std::size_t row;
  std::size_t col;
  double value;
};

/// The rows x cols matrix holding `entries`, compressed the way the solvers
/// compress theirs: as the rows of an LpModel.
SparseMatrix model_matrix(std::size_t rows, std::size_t cols,
                          const std::vector<Nonzero>& entries) {
  LpModel model;
  for (std::size_t j = 0; j < cols; ++j) model.add_variable(0, kInfinity, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::size_t> row_cols;
    std::vector<double> coeffs;
    for (const auto& e : entries) {
      if (e.row != r) continue;
      row_cols.push_back(e.col);
      coeffs.push_back(e.value);
    }
    model.add_row(RowType::Ge, 0, row_cols, coeffs);
  }
  return model.matrix();
}

/// Run `fn` with the metrics registry on; return what it recorded.
template <typename Fn>
obs::Snapshot metrics_during(Fn&& fn) {
  obs::Registry::global().enable(true);
  obs::Registry::global().reset();
  fn();
  auto snapshot = obs::Registry::global().snapshot();
  obs::Registry::global().enable(false);
  obs::Registry::global().reset();
  return snapshot;
}

/// Sum of metric `name` in `snapshot`; 0 when it never fired.
double metric_sum(const obs::Snapshot& snapshot, const char* name) {
  const auto it = snapshot.find(name);
  return it == snapshot.end() ? 0.0 : it->second.sum;
}

TEST(Sparse, MultiplyAndTranspose) {
  // [1 2 0]
  // [0 0 3]
  const SparseMatrix m =
      model_matrix(2, 3, {{0, 0, 1}, {0, 1, 2}, {1, 2, 3}});
  EXPECT_EQ(m.nonzeros(), 3u);
  std::vector<double> x{1, 10, 100}, out;
  m.multiply(x, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 21);
  EXPECT_DOUBLE_EQ(out[1], 300);

  std::vector<double> y{2, 5}, outT;
  m.multiply_transpose(y, outT);
  ASSERT_EQ(outT.size(), 3u);
  EXPECT_DOUBLE_EQ(outT[0], 2);
  EXPECT_DOUBLE_EQ(outT[1], 4);
  EXPECT_DOUBLE_EQ(outT[2], 15);
}

TEST(Sparse, DuplicatesSummedZerosDropped) {
  const SparseMatrix m =
      model_matrix(1, 2, {{0, 0, 1}, {0, 0, 2}, {0, 1, 5}, {0, 1, -5}});
  EXPECT_EQ(m.nonzeros(), 1u);
  std::vector<double> x{1, 1}, out;
  m.multiply(x, out);
  EXPECT_DOUBLE_EQ(out[0], 3);
}

TEST(Sparse, RowDotAndEntries) {
  const SparseMatrix m = model_matrix(2, 3, {{1, 0, 4}, {1, 2, -1}});
  std::vector<double> x{2, 0, 3};
  EXPECT_DOUBLE_EQ(m.row_dot(1, x), 5);
  EXPECT_DOUBLE_EQ(m.row_dot(0, x), 0);
  EXPECT_EQ(m.row_size(1), 2u);
  EXPECT_EQ(m.row_entry(1, 0).col, 0u);
  EXPECT_DOUBLE_EQ(m.row_entry(1, 1).value, -1);
}

TEST(Sparse, NormEstimates) {
  const SparseMatrix m = model_matrix(2, 2, {{0, 0, 3}, {1, 1, 4}});
  EXPECT_DOUBLE_EQ(m.max_abs(), 4);
  EXPECT_DOUBLE_EQ(m.frobenius_norm_squared(), 25);
  // Diagonal matrix: spectral norm is the max entry.
  EXPECT_NEAR(m.spectral_norm_estimate(), 4, 1e-6);
}

// The column view lists each column's rows ascending, sums a column a row
// repeats (in the row's order) and drops zero sums; the row view is its
// transpose, columns ascending within each row whatever order the model's
// rows gave them in.
TEST(Sparse, ColumnViewIsTheTransposeOfTheRowView) {
  LpModel model;
  for (int j = 0; j < 3; ++j) model.add_variable(0, kInfinity, 0);
  model.add_row(RowType::Ge, 0, {2, 0, 2, 1, 1}, {1, 4, 2, 5, -5});
  model.add_row(RowType::Le, 0, {}, {});
  model.add_row(RowType::Eq, 0, {1, 0}, {7, 0});

  const SparseMatrix columns = model.columns();
  ASSERT_EQ(columns.rows(), 3u);
  ASSERT_EQ(columns.cols(), 3u);
  ASSERT_EQ(columns.nonzeros(), 3u);
  ASSERT_EQ(columns.row_size(0), 1u);  // column 0: row 0 (4); row 2's 0 gone
  EXPECT_EQ(columns.row_entry(0, 0).col, 0u);
  EXPECT_EQ(columns.row_entry(0, 0).value, 4);
  ASSERT_EQ(columns.row_size(1), 1u);  // column 1: 5 - 5 dropped, row 2 (7)
  EXPECT_EQ(columns.row_entry(1, 0).col, 2u);
  EXPECT_EQ(columns.row_entry(1, 0).value, 7);
  ASSERT_EQ(columns.row_size(2), 1u);  // column 2: 1 + 2 in row 0
  EXPECT_EQ(columns.row_entry(2, 0).value, 3);

  const SparseMatrix rows = model.matrix();
  ASSERT_EQ(rows.rows(), 3u);
  ASSERT_EQ(rows.row_size(0), 2u);
  EXPECT_EQ(rows.row_entry(0, 0).col, 0u);
  EXPECT_EQ(rows.row_entry(0, 1).col, 2u);
  EXPECT_EQ(rows.row_size(1), 0u);
  ASSERT_EQ(rows.row_size(2), 1u);
  EXPECT_EQ(rows.row_entry(2, 0).col, 1u);
}

TEST(Scaling, RuizEquilibratesRowsAndCols) {
  const SparseMatrix m = model_matrix(
      2, 2, {{0, 0, 1000}, {0, 1, 2000}, {1, 0, 0.001}, {1, 1, 0.004}});
  const auto scaling = ruiz_scaling(m, 20);
  double row_max[2] = {0, 0}, col_max[2] = {0, 0};
  for (std::size_t r = 0; r < m.rows(); ++r) {
    m.for_row(r, [&](std::size_t c, double value) {
      const double v =
          std::abs(value) * scaling.row_scale[r] * scaling.col_scale[c];
      row_max[r] = std::max(row_max[r], v);
      col_max[c] = std::max(col_max[c], v);
    });
  }
  for (double v : row_max) EXPECT_NEAR(v, 1.0, 0.05);
  for (double v : col_max) EXPECT_NEAR(v, 1.0, 0.05);
}

// ---------------------------------------------------------------------------
// Sparse LU basis: factorize / FTRAN / BTRAN against dense reference
// arithmetic.

using LuColumns = std::vector<std::vector<BasisLu::Entry>>;

/// Random diagonally-dominant sparse basis (always nonsingular).
LuColumns random_basis_columns(Rng& rng, std::size_t m) {
  LuColumns columns(m);
  for (std::size_t p = 0; p < m; ++p) {
    columns[p].push_back(
        {static_cast<std::uint32_t>(p), 2.0 + rng.uniform(0, 1)});
    for (std::size_t r = 0; r < m; ++r) {
      if (r == p || !rng.bernoulli(0.15)) continue;
      columns[p].push_back(
          {static_cast<std::uint32_t>(r), rng.uniform(-1, 1)});
    }
  }
  return columns;
}

/// b[r] = sum_p B[r][p] * x[p] — dense reference product.
std::vector<double> basis_multiply(const LuColumns& columns,
                                   const std::vector<double>& x) {
  std::vector<double> b(columns.size(), 0.0);
  for (std::size_t p = 0; p < columns.size(); ++p)
    for (const auto& e : columns[p]) b[e.index] += e.value * x[p];
  return b;
}

/// c[p] = sum_r B[r][p] * y[r] — dense reference transpose product.
std::vector<double> basis_multiply_transpose(const LuColumns& columns,
                                             const std::vector<double>& y) {
  std::vector<double> c(columns.size(), 0.0);
  for (std::size_t p = 0; p < columns.size(); ++p)
    for (const auto& e : columns[p]) c[p] += e.value * y[e.index];
  return c;
}

TEST(LuBasis, FtranSolvesAgainstDenseMultiply) {
  Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = 5 + rng.uniform_index(40);
    const auto columns = random_basis_columns(rng, m);
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(m, columns));
    std::vector<double> x_true(m);
    for (auto& v : x_true) v = rng.uniform(-3, 3);
    auto rhs = basis_multiply(columns, x_true);
    lu.ftran(rhs);  // rhs -> position-space solution
    for (std::size_t p = 0; p < m; ++p)
      ASSERT_NEAR(rhs[p], x_true[p], 1e-9) << "trial " << trial;
  }
}

TEST(LuBasis, BtranSolvesTransposeAgainstDenseMultiply) {
  Rng rng(12);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = 5 + rng.uniform_index(40);
    const auto columns = random_basis_columns(rng, m);
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(m, columns));
    std::vector<double> y_true(m);
    for (auto& v : y_true) v = rng.uniform(-3, 3);
    auto c = basis_multiply_transpose(columns, y_true);
    lu.btran(c);  // position-space costs -> row-space duals
    for (std::size_t r = 0; r < m; ++r)
      ASSERT_NEAR(c[r], y_true[r], 1e-9) << "trial " << trial;
  }
}

TEST(LuBasis, SingularBasisRejected) {
  // Structural: an empty column.
  LuColumns zero_col(3);
  zero_col[0] = {{0, 1.0}};
  zero_col[1] = {{1, 1.0}};
  BasisLu lu;
  EXPECT_FALSE(lu.factorize(3, zero_col));

  // Numerical: two identical columns (rank 2).
  LuColumns dup(3);
  dup[0] = {{0, 1.0}, {1, 2.0}};
  dup[1] = {{0, 1.0}, {1, 2.0}};
  dup[2] = {{2, 1.0}};
  EXPECT_FALSE(lu.factorize(3, dup));

  // Sanity: a permutation of the identity factorizes fine afterwards.
  LuColumns perm(3);
  perm[0] = {{2, 1.0}};
  perm[1] = {{0, 1.0}};
  perm[2] = {{1, 1.0}};
  EXPECT_TRUE(lu.factorize(3, perm));
  std::vector<double> x{1, 2, 3};
  lu.ftran(x);  // row r holds column (r+1)%3, so x = (b[2], b[0], b[1])
  EXPECT_NEAR(x[0], 3, 1e-12);
  EXPECT_NEAR(x[1], 1, 1e-12);
  EXPECT_NEAR(x[2], 2, 1e-12);
}

/// Factorize a rank-deficient basis, expect `rank_gap` dependent columns
/// reported, swap each for the unit column of its paired unpivoted row, and
/// check the repaired basis factorizes and solves exactly.
void expect_repairable(LuColumns columns, std::size_t rank_gap) {
  const std::size_t m = columns.size();
  BasisLu lu;
  ASSERT_FALSE(lu.factorize(m, columns));
  const auto rows = lu.singular_rows();
  const auto positions = lu.singular_positions();
  ASSERT_EQ(rows.size(), rank_gap);
  ASSERT_EQ(positions.size(), rank_gap);
  EXPECT_TRUE(std::is_sorted(rows.begin(), rows.end()));
  EXPECT_TRUE(std::is_sorted(positions.begin(), positions.end()));
  for (std::size_t i = 0; i < rank_gap; ++i)
    columns[positions[i]] = {{rows[i], 1.0}};
  ASSERT_TRUE(lu.factorize(m, columns));
  EXPECT_TRUE(lu.singular_rows().empty());
  EXPECT_TRUE(lu.singular_positions().empty());
  Rng rng(17);
  std::vector<double> x_true(m);
  for (auto& v : x_true) v = rng.uniform(-3, 3);
  auto rhs = basis_multiply(columns, x_true);
  lu.ftran(rhs);
  for (std::size_t p = 0; p < m; ++p) EXPECT_NEAR(rhs[p], x_true[p], 1e-12);
}

TEST(LuBasis, SingularBasisReportsDependentColumns) {
  // Columns (1, 2) and (2, 4): rank 1.
  LuColumns pair(2);
  pair[0] = {{0, 1.0}, {1, 2.0}};
  pair[1] = {{0, 2.0}, {1, 4.0}};
  expect_repairable(pair, 1);

  // A nonsingular 6 x 6 basis whose columns 2 and 5 are overwritten by
  // combinations of the others: rank 4.
  Rng rng(13);
  LuColumns six = random_basis_columns(rng, 6);
  const auto combine = [&](std::size_t p, std::size_t a, double ca,
                           std::size_t b, double cb) {
    std::vector<double> dense(6, 0.0);
    for (const auto& e : six[a]) dense[e.index] += ca * e.value;
    for (const auto& e : six[b]) dense[e.index] += cb * e.value;
    six[p].clear();
    for (std::uint32_t r = 0; r < 6; ++r)
      if (dense[r] != 0) six[p].push_back({r, dense[r]});
  };
  combine(2, 0, 1.0, 1, 2.0);
  combine(5, 3, 1.0, 4, -1.0);
  expect_repairable(six, 2);

  // A successful factorize clears the lists.
  BasisLu lu;
  ASSERT_FALSE(lu.factorize(2, pair));
  ASSERT_TRUE(lu.factorize(6, random_basis_columns(rng, 6)));
  EXPECT_TRUE(lu.singular_rows().empty());
  EXPECT_TRUE(lu.singular_positions().empty());
}

// ---------------------------------------------------------------------------
// Forrest–Tomlin kernels: spike elimination, R-file solves and the
// stability-guard fallback, checked against fresh factorizations and
// dense reference arithmetic.

/// Push a random replacement column through the basis: ftran the incoming
/// column (stashing the spike), apply the update, and mirror the change in
/// `columns` for reference factorizations. Returns false when the update
/// was refused.
bool apply_random_replacement(Rng& rng, BasisLu& lu, LuColumns& columns,
                              std::size_t p) {
  const std::size_t m = columns.size();
  std::vector<BasisLu::Entry> incoming;
  incoming.push_back({static_cast<std::uint32_t>(p), 2.0 + rng.uniform(0, 1)});
  for (std::size_t r = 0; r < m; ++r)
    if (r != p && rng.bernoulli(0.2))
      incoming.push_back({static_cast<std::uint32_t>(r), rng.uniform(-1, 1)});
  std::vector<double> w(m, 0.0);
  for (const auto& e : incoming) w[e.index] = e.value;
  lu.ftran(w);
  if (!lu.update(p, 1e-12)) return false;
  columns[p] = incoming;
  return true;
}

TEST(LuBasisFt, SpikeEliminationMatchesFreshFactorization) {
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t m = 6 + rng.uniform_index(25);
    auto columns = random_basis_columns(rng, m);
    BasisLu updated;
    ASSERT_TRUE(updated.factorize(m, columns));

    for (int change = 0; change < 6; ++change)
      ASSERT_TRUE(apply_random_replacement(
          rng, updated, columns, rng.uniform_index(m)))
          << "trial " << trial << " change " << change;
    EXPECT_EQ(updated.update_count(), 6u);

    BasisLu fresh;
    ASSERT_TRUE(fresh.factorize(m, columns));
    std::vector<double> rhs(m);
    for (auto& v : rhs) v = rng.uniform(-2, 2);
    auto via_updates = rhs, via_fresh = rhs;
    updated.ftran(via_updates);
    fresh.ftran(via_fresh);
    for (std::size_t p = 0; p < m; ++p)
      ASSERT_NEAR(via_updates[p], via_fresh[p], 1e-8) << "trial " << trial;

    auto yt_updates = rhs, yt_fresh = rhs;
    updated.btran(yt_updates);
    fresh.btran(yt_fresh);
    for (std::size_t r = 0; r < m; ++r)
      ASSERT_NEAR(yt_updates[r], yt_fresh[r], 1e-8) << "trial " << trial;
  }
}

TEST(LuBasisFt, RFileSolvesMatchDenseReference) {
  // After updates, FTRAN/BTRAN run through the R-file; both must still
  // invert the *current* basis matrix exactly (checked against dense
  // reference products, not another factorization).
  Rng rng(22);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t m = 6 + rng.uniform_index(30);
    auto columns = random_basis_columns(rng, m);
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(m, columns));
    for (int change = 0; change < 8; ++change)
      ASSERT_TRUE(apply_random_replacement(
          rng, lu, columns, rng.uniform_index(m)));

    std::vector<double> x_true(m);
    for (auto& v : x_true) v = rng.uniform(-3, 3);
    auto rhs = basis_multiply(columns, x_true);
    lu.ftran(rhs);
    for (std::size_t p = 0; p < m; ++p)
      ASSERT_NEAR(rhs[p], x_true[p], 1e-8) << "trial " << trial;

    std::vector<double> y_true(m);
    for (auto& v : y_true) v = rng.uniform(-3, 3);
    auto c = basis_multiply_transpose(columns, y_true);
    lu.btran(c);
    for (std::size_t r = 0; r < m; ++r)
      ASSERT_NEAR(c[r], y_true[r], 1e-8) << "trial " << trial;
  }
}

TEST(LuBasisFt, StabilityGuardRefusesVanishingDiagonal) {
  // Identity basis; replacing column 0 with a column that has no component
  // on row 0 drives the eliminated diagonal to exactly zero — the guard
  // must refuse and leave the factorization untouched.
  LuColumns columns(2);
  columns[0] = {{0, 1.0}};
  columns[1] = {{1, 1.0}};
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(2, columns));
  std::vector<double> w{0.0, 5.0};
  lu.ftran(w);
  EXPECT_FALSE(lu.update(0, 1e-9));
  EXPECT_EQ(lu.update_count(), 0u);
  std::vector<double> x{7.0, 3.0};
  lu.ftran(x);
  EXPECT_DOUBLE_EQ(x[0], 7.0);
  EXPECT_DOUBLE_EQ(x[1], 3.0);
}

TEST(LuBasisFt, RelativeStabilityGuardRefusesCollapsingPivot) {
  // Identity basis, incoming column (1e-6, 1e6): the updated basis is
  // nearly parallel to the retained unit column, so the eliminated
  // diagonal (1e-6) survives the absolute min_pivot check but collapses
  // relative to the spike magnitude (1e6) — the relative guard must fire
  // and leave the factorization untouched.
  LuColumns columns(2);
  columns[0] = {{0, 1.0}};
  columns[1] = {{1, 1.0}};
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(2, columns));
  std::vector<double> w{1e-6, 1e6};
  lu.ftran(w);
  EXPECT_FALSE(lu.update(0, 1e-9));
  EXPECT_EQ(lu.update_count(), 0u);
  std::vector<double> x{7.0, 3.0};
  lu.ftran(x);
  EXPECT_DOUBLE_EQ(x[0], 7.0);
  EXPECT_DOUBLE_EQ(x[1], 3.0);
}

TEST(LuBasisFt, LongUpdateSequenceTracksFillAndStaysAccurate) {
  // 40 consecutive updates, periodically cross-checked against a fresh
  // factorization; the R-file and factor nonzero counters must track the
  // actual storage.
  Rng rng(24);
  const std::size_t m = 30;
  auto columns = random_basis_columns(rng, m);
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(m, columns));
  const std::size_t baseline = lu.baseline_nonzeros();
  EXPECT_EQ(baseline, lu.factor_nonzeros());

  std::size_t applied = 0;
  for (int change = 0; change < 40; ++change) {
    if (apply_random_replacement(rng, lu, columns, rng.uniform_index(m)))
      ++applied;
    if (change % 10 != 9) continue;
    BasisLu fresh;
    ASSERT_TRUE(fresh.factorize(m, columns));
    std::vector<double> rhs(m);
    for (auto& v : rhs) v = rng.uniform(-2, 2);
    auto a = rhs, b = rhs;
    lu.ftran(a);
    fresh.ftran(b);
    for (std::size_t p = 0; p < m; ++p)
      ASSERT_NEAR(a[p], b[p], 1e-7) << "after change " << change;
  }
  EXPECT_EQ(lu.update_count(), applied);
  EXPECT_GE(applied, 38u);  // random replacements virtually never refused
  EXPECT_GT(lu.r_nonzeros(), 0u);
}

// ---------------------------------------------------------------------------
// LU pivot-order goldens. The Markowitz search visits candidate columns by
// active count, then column index, and that order decides every pivot. A
// different order gives an equally valid factorization that differs only in
// the last bits of its solves, so these pin factor_nonzeros() and the exact
// bits of one FTRAN and one BTRAN per basis.

/// FNV-1a over the bit patterns of x: pins every entry bitwise.
std::uint64_t bits_digest(const std::vector<double>& x) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double v : x) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

/// Seeded sparse basis: the diagonal plus off-diagonal entries at the given
/// density, all drawn from {±0.5, ±1, ±2}. Dyadic values make exact
/// cancellation during elimination common.
LuColumns dyadic_basis_columns(Rng& rng, std::size_t m, double density) {
  static constexpr double kValues[] = {-2, -1, -0.5, 0.5, 1, 2};
  LuColumns columns(m);
  for (std::size_t p = 0; p < m; ++p)
    for (std::size_t r = 0; r < m; ++r)
      if (r == p || rng.bernoulli(density))
        columns[p].push_back({static_cast<std::uint32_t>(r),
                              kValues[rng.uniform_index(6)]});
  return columns;
}

void expect_lu_golden(const LuColumns& columns, std::size_t nonzeros,
                      std::uint64_t ftran_digest, std::uint64_t btran_digest) {
  const std::size_t m = columns.size();
  BasisLu lu;
  ASSERT_TRUE(lu.factorize(m, columns));
  EXPECT_EQ(lu.factor_nonzeros(), nonzeros);
  std::vector<double> rhs(m);
  for (std::size_t i = 0; i < m; ++i)
    rhs[i] = 1.0 + 0.25 * static_cast<double>(i % 7);
  auto x = rhs;
  lu.ftran(x);
  EXPECT_EQ(bits_digest(x), ftran_digest);
  auto y = rhs;
  lu.btran(y);
  EXPECT_EQ(bits_digest(y), btran_digest);
}

TEST(LuGolden, HeavyFillPivotOrder) {
  // 40 rows at 15% density: elimination more than doubles the nonzeros.
  Rng rng(1);
  expect_lu_golden(random_basis_columns(rng, 40), 568, 0x7c759340905b7cabULL,
                   0xf30992edb89dd210ULL);
}

TEST(LuGolden, CancelThenRefillPivotOrder) {
  // Seed 49 cancels an entry exactly and later fills the same (row,
  // column) in again before the search compacts that column, so the
  // column's row list holds the row twice and its next count is inflated.
  // The search's recount then differs from the stored count, so this basis
  // also pins when recounts take effect.
  Rng rng(49);
  expect_lu_golden(dyadic_basis_columns(rng, 48, 3.0 / 48), 316,
                   0x23685ede6c7479dbULL, 0x57be93ca8776bd43ULL);
}

TEST(LuGolden, TwoRefillsPivotOrder) {
  // Seed 131 takes the cancel-then-refill path twice.
  Rng rng(131);
  expect_lu_golden(dyadic_basis_columns(rng, 48, 3.0 / 48), 376,
                   0x1aa1ea1e291d0fd7ULL, 0xbc6ae8379768d4a0ULL);
}

// ---------------------------------------------------------------------------
// Simplex on hand-checkable LPs.

TEST(Simplex, SimpleTwoVariable) {
  // min -x - 2y  s.t.  x + y <= 4, x <= 3, y <= 2  =>  x=2? check: maximize
  // x + 2y over the region: y=2, x=2 -> objective -6.
  LpModel model;
  const auto x = model.add_variable(0, 3, -1);
  const auto y = model.add_variable(0, 2, -2);
  model.add_row(RowType::Le, 4, {x, y}, {1, 1});
  const auto sol = solve_simplex(model);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, -6, 1e-8);
  EXPECT_NEAR(sol.x[x], 2, 1e-8);
  EXPECT_NEAR(sol.x[y], 2, 1e-8);
}

TEST(Simplex, GeRowsRequireCoverage) {
  // min x + 3y  s.t. x + y >= 2, y >= 0.5
  LpModel model;
  const auto x = model.add_variable(0, kInfinity, 1);
  const auto y = model.add_variable(0, kInfinity, 3);
  model.add_row(RowType::Ge, 2, {x, y}, {1, 1});
  model.add_row(RowType::Ge, 0.5, {y}, {1});
  const auto sol = solve_simplex(model);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 1.5 + 1.5, 1e-8);  // x=1.5, y=0.5
}

TEST(Simplex, EqualityRow) {
  // min x + y  s.t. x + 2y = 3, x,y in [0, 10]
  LpModel model;
  const auto x = model.add_variable(0, 10, 1);
  const auto y = model.add_variable(0, 10, 1);
  model.add_row(RowType::Eq, 3, {x, y}, {1, 2});
  const auto sol = solve_simplex(model);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 1.5, 1e-8);  // all weight on y
  EXPECT_NEAR(sol.x[y], 1.5, 1e-8);
}

TEST(Simplex, NegativeLowerBounds) {
  // min x  s.t. x >= -5 (bound), x + y >= 0, y <= 2.
  LpModel model;
  const auto x = model.add_variable(-5, 5, 1);
  const auto y = model.add_variable(0, 2, 0);
  model.add_row(RowType::Ge, 0, {x, y}, {1, 1});
  const auto sol = solve_simplex(model);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, -2, 1e-8);  // x=-2, y=2
}

TEST(Simplex, InfeasibleDetected) {
  LpModel model;
  const auto x = model.add_variable(0, 1, 1);
  model.add_row(RowType::Ge, 5, {x}, {1});  // x >= 5 impossible with x <= 1
  const auto sol = solve_simplex(model);
  EXPECT_EQ(sol.status, SolveStatus::Infeasible);
}

TEST(Simplex, ConflictingRowsInfeasible) {
  LpModel model;
  const auto x = model.add_variable(0, 10, 1);
  const auto y = model.add_variable(0, 10, 1);
  model.add_row(RowType::Ge, 8, {x, y}, {1, 1});
  model.add_row(RowType::Le, 2, {x, y}, {1, 1});
  const auto sol = solve_simplex(model);
  EXPECT_EQ(sol.status, SolveStatus::Infeasible);
}

TEST(Simplex, UnboundedDetected) {
  LpModel model;
  const auto x = model.add_variable(0, kInfinity, -1);
  model.add_row(RowType::Ge, 0, {x}, {1});
  const auto sol = solve_simplex(model);
  EXPECT_EQ(sol.status, SolveStatus::Unbounded);
}

TEST(Simplex, FixedVariablesRespected) {
  LpModel model;
  const auto x = model.add_variable(0, 1, -10);
  const auto y = model.add_variable(0, 1, 1);
  model.fix_variable(x, 0.25);
  model.add_row(RowType::Ge, 1, {x, y}, {1, 1});
  const auto sol = solve_simplex(model);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.x[x], 0.25, 1e-9);
  EXPECT_NEAR(sol.x[y], 0.75, 1e-8);
}

// The smallest LP found whose basis the sparse LU calls singular after the
// simplex has pivoted into it. x_a's only entry (5e-9) clears the ratio
// test's pivot tolerance (1e-9), so it enters on fresh factors and the
// Forrest–Tomlin update accepts it; once x_b's 1e4 shares the basis, the
// LU's singularity threshold (1e-11 of the largest entry) rejects x_a's
// column, and the optimality check's refactorization finds the basis
// singular. The solve must roll back to the last factorized basis, refuse
// the pivot that breaks it again, and stop with a certified bound instead
// of aborting.
TEST(Simplex, SingularBasisAtCertifyRollsBack) {
  LpModel model;
  const auto a = model.add_variable(0, kInfinity, -1);
  const auto b = model.add_variable(0, kInfinity, -1);
  model.add_row(RowType::Le, 5e-9, {a}, {5e-9});
  model.add_row(RowType::Le, 1e4, {b}, {1e4});
  obs::Registry::global().enable(true);
  obs::Registry::global().reset();
  for (const auto method :
       {SimplexOptions::Method::Primal, SimplexOptions::Method::Dual}) {
    SimplexOptions options;
    options.method = method;
    LpSolution sol;
    ASSERT_NO_THROW(sol = solve_simplex(model, options));
    EXPECT_NE(sol.status, SolveStatus::Infeasible);
    EXPECT_LE(sol.dual_bound, -2 + 1e-9);  // the optimum is -2
    EXPECT_LE(model.max_violation(sol.x), 1e-9);
  }
  const auto snapshot = obs::Registry::global().snapshot();
  obs::Registry::global().enable(false);
  obs::Registry::global().reset();
  // Per solve: one rollback at the certify site, one more when the
  // replayed pivot breaks the basis again under a verifying factorization.
  const auto rollbacks = snapshot.find("simplex.refactor.singular_rollback");
  const auto verifies = snapshot.find("simplex.refactor.verify");
  ASSERT_NE(rollbacks, snapshot.end());
  ASSERT_NE(verifies, snapshot.end());
  EXPECT_GE(rollbacks->second.sum, 4.0);
  EXPECT_GE(verifies->second.sum, 2.0);
  // A recovery is a refactorization like any other: one cause each.
  double by_cause = 0;
  for (const auto& [name, value] : snapshot)
    if (name.rfind("simplex.refactor.", 0) == 0) by_cause += value.sum;
  EXPECT_EQ(by_cause, snapshot.at("simplex.refactorizations").sum);
}

TEST(Simplex, DualBoundMatchesObjectiveAtOptimum) {
  LpModel model;
  const auto x = model.add_variable(0, 3, 2);
  const auto y = model.add_variable(0, 3, 5);
  model.add_row(RowType::Ge, 4, {x, y}, {1, 1});
  const auto sol = solve_simplex(model);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 11, 1e-8);  // x=3, y=1
  EXPECT_NEAR(sol.dual_bound, sol.objective, 1e-6);
}

TEST(Simplex, SetCoverRelaxationFractional) {
  // Classic LP-relaxation of set cover: 3 elements, 3 sets each covering 2
  // elements; LP optimum 1.5, IP optimum 2.
  LpModel model;
  std::vector<std::size_t> sets;
  for (int s = 0; s < 3; ++s) sets.push_back(model.add_variable(0, 1, 1));
  model.add_row(RowType::Ge, 1, {sets[0], sets[1]}, {1, 1});
  model.add_row(RowType::Ge, 1, {sets[0], sets[2]}, {1, 1});
  model.add_row(RowType::Ge, 1, {sets[1], sets[2]}, {1, 1});
  const auto sol = solve_simplex(model);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 1.5, 1e-8);
}

// A model whose rows repeat a column and carry a cancelling 5, -5 pair, and
// its merged twin. min x0 + 2 x1 + 1.5 x2 s.t. 2 x0 + x1 >= 4,
// 1.5 x1 + x2 <= 6, x0 + 2 x2 = 3, 0 <= x <= 10: optimum 2.75 at
// (2, 0, 0.5).
LpModel repeated_columns_lp(bool merged) {
  LpModel model;
  const auto x0 = model.add_variable(0, 10, 1);
  const auto x1 = model.add_variable(0, 10, 2);
  const auto x2 = model.add_variable(0, 10, 1.5);
  if (merged) {
    model.add_row(RowType::Ge, 4, {x0, x1}, {2, 1});
    model.add_row(RowType::Le, 6, {x1, x2}, {1.5, 1});
    model.add_row(RowType::Eq, 3, {x0, x2}, {1, 2});
  } else {
    model.add_row(RowType::Ge, 4, {x2, x0, x1, x0, x2}, {5, 1, 1, 1, -5});
    model.add_row(RowType::Le, 6, {x1, x2, x1}, {1, 1, 0.5});
    model.add_row(RowType::Eq, 3, {x2, x0, x2}, {1, 1, 1});
  }
  return model;
}

// Repeated columns are summed and cancelling pairs dropped before any
// solver sees the matrix, so every solver reaches the merged twin's optimum.
TEST(SolverInput, RepeatedAndCancellingColumnsSolveLikeTheirMergedTwin) {
  const LpModel repeated = repeated_columns_lp(false);
  const LpModel merged = repeated_columns_lp(true);

  const auto a = solve_simplex(repeated);
  const auto b = solve_simplex(merged);
  ASSERT_EQ(a.status, SolveStatus::Optimal);
  ASSERT_EQ(b.status, SolveStatus::Optimal);
  EXPECT_TRUE(test::certify_optimal(repeated, a));
  EXPECT_TRUE(test::certify_optimal(merged, b));
  EXPECT_NEAR(b.objective, 2.75, 1e-9);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.x, b.x);
  EXPECT_NEAR(a.objective, b.objective, 1e-12);

  const auto pa = solve_pdhg(repeated);
  const auto pb = solve_pdhg(merged);
  ASSERT_EQ(pa.status, SolveStatus::Optimal);
  ASSERT_EQ(pb.status, SolveStatus::Optimal);
  EXPECT_EQ(pa.iterations, pb.iterations);
  EXPECT_EQ(pa.x, pb.x);
  EXPECT_NEAR(pa.dual_bound, pb.dual_bound, 1e-12);
  EXPECT_NEAR(pb.dual_bound, 2.75, 1e-3);
}

// ---------------------------------------------------------------------------
// The KKT certificate the solver tests rely on (tests/lp_certify.h) must
// accept an optimal pair and name the first condition a wrong one breaks.

TEST(Certificate, NamesTheFirstViolatedCondition) {
  // min x0 + x1 s.t. x0 + x1 >= 1, 0 <= x <= 2: optimum 1 with y = 1.
  LpModel model;
  const auto x0 = model.add_variable(0, 2, 1);
  const auto x1 = model.add_variable(0, 2, 1);
  model.add_row(RowType::Ge, 1, {x0, x1}, {1, 1});
  const auto verdict = [&](std::vector<double> x, double y, double objective) {
    LpSolution solution;
    solution.x = std::move(x);
    solution.y = {y};
    solution.objective = objective;
    const auto result = test::certify_optimal(model, solution);
    return result ? std::string("certified") : std::string(result.message());
  };
  EXPECT_EQ(verdict({1, 0}, 1, 1), "certified");
  EXPECT_NE(verdict({0, 0}, 1, 0).find("primal row"), std::string::npos);
  EXPECT_NE(verdict({1, 0}, 1, 2).find("objective"), std::string::npos);
  EXPECT_NE(verdict({1, 0}, -1, 1).find("dual sign"), std::string::npos);
  EXPECT_NE(verdict({1, 0}, 0.5, 1).find("reduced cost sign at column 0"),
            std::string::npos);
  EXPECT_NE(verdict({2, 0}, 1, 2).find("complementary slackness"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Certified dual bound.

TEST(DualBound, ArbitraryDualsAreValidLowerBounds) {
  LpModel model;
  const auto x = model.add_variable(0, 3, 2);
  const auto y = model.add_variable(0, 3, 5);
  model.add_row(RowType::Ge, 4, {x, y}, {1, 1});
  const auto opt = solve_simplex(model);
  ASSERT_EQ(opt.status, SolveStatus::Optimal);

  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> arbitrary{rng.uniform(-5, 5)};
    const double bound = certified_dual_bound(model, arbitrary);
    EXPECT_LE(bound, opt.objective + 1e-9);
  }
}

TEST(DualBound, ClampsWrongSignDuals) {
  LpModel model;
  model.add_variable(0, 1, 1);
  model.add_row(RowType::Le, 1, {0}, {1});
  // Positive dual on a Le row would be invalid; must be clamped, yielding
  // the trivial bound 0 (variables at lower bound).
  const double bound = certified_dual_bound(model, {100.0});
  EXPECT_DOUBLE_EQ(bound, 0);
}

TEST(DualBound, InfiniteBoxGivesMinusInfinity) {
  LpModel model;
  model.add_variable(-kInfinity, kInfinity, 1);
  model.add_row(RowType::Ge, 0, {0}, {2});
  // Dual 0 leaves reduced cost 1 on an unbounded-below variable.
  EXPECT_EQ(certified_dual_bound(model, {0.0}), -kInfinity);
}

// ---------------------------------------------------------------------------
// Randomized cross-validation: simplex is the oracle, PDHG must agree.

struct RandomLp {
  LpModel model;
};

RandomLp random_feasible_lp(Rng& rng, std::size_t vars, std::size_t rows,
                            bool with_equalities) {
  RandomLp out;
  std::vector<double> x0(vars);
  for (std::size_t j = 0; j < vars; ++j) {
    const double up = rng.uniform(0.5, 2.0);
    out.model.add_variable(0, up, rng.uniform(-1, 1));
    x0[j] = rng.uniform(0, up);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::size_t> cols;
    std::vector<double> coeffs;
    double activity = 0;
    for (std::size_t j = 0; j < vars; ++j) {
      if (!rng.bernoulli(0.4)) continue;
      const double a = rng.uniform(-2, 2);
      cols.push_back(j);
      coeffs.push_back(a);
      activity += a * x0[j];
    }
    if (cols.empty()) continue;
    const int kind = with_equalities ? static_cast<int>(rng.uniform_index(3))
                                     : static_cast<int>(rng.uniform_index(2));
    if (kind == 0)
      out.model.add_row(RowType::Ge, activity - rng.uniform(0, 1), cols,
                        coeffs);
    else if (kind == 1)
      out.model.add_row(RowType::Le, activity + rng.uniform(0, 1), cols,
                        coeffs);
    else
      out.model.add_row(RowType::Eq, activity, cols, coeffs);
  }
  return out;
}

class RandomLpSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpSweep, SimplexOptimalAndSelfConsistent) {
  Rng rng(1000 + GetParam());
  auto lp = random_feasible_lp(rng, 12, 10, /*with_equalities=*/true);
  const auto sol = solve_simplex(lp.model);
  ASSERT_EQ(sol.status, SolveStatus::Optimal) << "seed " << GetParam();
  EXPECT_LE(lp.model.max_violation(sol.x), 1e-6);
  // Strong duality at optimum.
  EXPECT_NEAR(sol.dual_bound, sol.objective,
              1e-5 * (1 + std::abs(sol.objective)));
}

TEST_P(RandomLpSweep, PdhgBoundNeverExceedsOptimum) {
  Rng rng(2000 + GetParam());
  auto lp = random_feasible_lp(rng, 10, 8, /*with_equalities=*/true);
  const auto exact = solve_simplex(lp.model);
  ASSERT_EQ(exact.status, SolveStatus::Optimal);

  PdhgOptions options;
  options.max_iterations = 30000;
  options.tolerance = 1e-6;
  const auto approx = solve_pdhg(lp.model, options);
  // The certificate may be loose but must never overstate.
  EXPECT_LE(approx.dual_bound,
            exact.objective + 1e-6 * (1 + std::abs(exact.objective)))
      << "seed " << GetParam();
}

TEST_P(RandomLpSweep, PdhgConvergesToOptimum) {
  Rng rng(3000 + GetParam());
  auto lp = random_feasible_lp(rng, 8, 6, /*with_equalities=*/false);
  const auto exact = solve_simplex(lp.model);
  ASSERT_EQ(exact.status, SolveStatus::Optimal);

  PdhgOptions options;
  options.max_iterations = 120000;
  options.tolerance = 1e-6;
  const auto approx = solve_pdhg(lp.model, options);
  const double scale = 1 + std::abs(exact.objective);
  EXPECT_NEAR(approx.dual_bound, exact.objective, 2e-3 * scale)
      << "seed " << GetParam();
  EXPECT_NEAR(approx.objective, exact.objective, 2e-3 * scale)
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpSweep, ::testing::Range(0, 12));

// ---------------------------------------------------------------------------
// Degenerate pivoting: Beale's classic cycling example. Dantzig pricing with
// a naive ratio test cycles forever on this LP; the stall detector must kick
// the solver into Bland's rule and terminate at the optimum.

LpModel beale_cycling_lp() {
  // min -0.75 x1 + 150 x2 - 0.02 x3 + 6 x4
  // s.t. 0.25 x1 - 60 x2 - 0.04 x3 + 9 x4 <= 0
  //      0.50 x1 - 90 x2 - 0.02 x3 + 3 x4 <= 0
  //      x3 <= 1,  x >= 0
  // Optimum -0.05 at x = (0.04, 0, 1, 0).
  LpModel model;
  const auto x1 = model.add_variable(0, kInfinity, -0.75);
  const auto x2 = model.add_variable(0, kInfinity, 150);
  const auto x3 = model.add_variable(0, kInfinity, -0.02);
  const auto x4 = model.add_variable(0, kInfinity, 6);
  model.add_row(RowType::Le, 0, {x1, x2, x3, x4}, {0.25, -60, -0.04, 9});
  model.add_row(RowType::Le, 0, {x1, x2, x3, x4}, {0.5, -90, -0.02, 3});
  model.add_row(RowType::Le, 1, {x3}, {1});
  return model;
}

TEST(SimplexDegenerate, BealeSolvedUnderImmediateBlandRule) {
  // Force Bland's rule from the first non-improving pivot (stall_limit 0):
  // the lowest-index tie-break makes every pivot sequence finite regardless
  // of degeneracy. Under Method::Dual the cold slack basis is already primal
  // feasible, so the switch happens in the primal cleanup of the shifted
  // costs.
  const auto model = beale_cycling_lp();
  for (const auto method :
       {SimplexOptions::Method::Primal, SimplexOptions::Method::Dual}) {
    SimplexOptions options;
    options.method = method;
    options.stall_limit = 0;
    LpSolution sol;
    const auto snapshot =
        metrics_during([&] { sol = solve_simplex(model, options); });
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_TRUE(test::certify_optimal(model, sol));
    EXPECT_NEAR(sol.objective, -0.05, 1e-9);
    EXPECT_GE(metric_sum(snapshot, "simplex.refactor.bland"), 1.0);
  }
}

TEST(SimplexDegenerate, TinyRefactorPeriodStaysExact) {
  // Refactorizing every pivot exercises the refresh path constantly; the
  // answer must not depend on the period.
  const auto model = beale_cycling_lp();
  SimplexOptions options;
  options.refactor_period = 1;
  const auto sol = solve_simplex(model, options);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, -0.05, 1e-9);
}

TEST(SimplexDegenerate, BealeCyclingSolvedUnderAllBases) {
  // The degenerate pivot sequence must terminate at a certified optimum
  // under the default configuration, whatever bases it passes through.
  const auto model = beale_cycling_lp();
  const auto sol = solve_simplex(model);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_TRUE(test::certify_optimal(model, sol));
  EXPECT_NEAR(sol.objective, -0.05, 1e-9);
  EXPECT_NEAR(sol.x[0], 0.04, 1e-9);
  EXPECT_NEAR(sol.x[2], 1.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Update-file drift guard: the refactorize-and-retry path must be invisible
// in the certified answer no matter how often it fires.

TEST(SimplexEta, ParanoidStabilityToleranceStillTerminates) {
  // lu_stability_tolerance close to 1 treats nearly every pivot under a
  // non-empty update file as suspected drift, forcing the
  // refactorize-and-retry path mid-iteration. After the rebuild the update
  // file is empty, so each retried pivot is accepted — the solver must
  // terminate at the exact optimum, never loop.
  const auto model = beale_cycling_lp();
  SimplexOptions options;
  options.lu_stability_tolerance = 0.9;
  const auto sol = solve_simplex(model, options);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, -0.05, 1e-9);

  for (int seed = 0; seed < 5; ++seed) {
    Rng rng(9200 + seed);
    auto lp = random_feasible_lp(rng, 10, 8, /*with_equalities=*/true);
    const auto paranoid = solve_simplex(lp.model, options);
    ASSERT_EQ(paranoid.status, SolveStatus::Optimal) << "seed " << seed;
    EXPECT_TRUE(test::certify_optimal(lp.model, paranoid)) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Differential test against PDHG: the default simplex optimum and PDHG must
// agree within the first-order method's tolerance.

TEST(SimplexDifferential, DefaultMatchesPdhgOnRandomModels) {
  for (int seed = 0; seed < 50; ++seed) {
    Rng rng(8000 + seed);
    auto lp = random_feasible_lp(rng, 9, 7, /*with_equalities=*/false);
    const auto exact = solve_simplex(lp.model);
    ASSERT_EQ(exact.status, SolveStatus::Optimal) << "seed " << seed;

    PdhgOptions options;
    options.max_iterations = 60000;
    options.tolerance = 1e-6;
    const auto approx = solve_pdhg(lp.model, options);
    const double scale = 1 + std::abs(exact.objective);
    // PDHG's certificate must never overstate the simplex optimum, and its
    // converged objective must land within first-order-method tolerance.
    EXPECT_LE(approx.dual_bound, exact.objective + 1e-6 * scale)
        << "seed " << seed;
    EXPECT_NEAR(approx.objective, exact.objective, 5e-3 * scale)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Dynamic Devex pricing: maintained reduced costs + pivot-row weight
// updates must reach a certified optimum, and stay exact across
// reference-framework resets and refactor cadences.

TEST(SimplexDevex, DynamicOptimumCertifiedOn50RandomModels) {
  for (int seed = 0; seed < 50; ++seed) {
    Rng rng(7500 + seed);
    const std::size_t vars = 8 + rng.uniform_index(12);
    const std::size_t rows = 6 + rng.uniform_index(10);
    auto lp = random_feasible_lp(rng, vars, rows, seed % 2 == 0);

    const auto dynamic = solve_simplex(lp.model);
    ASSERT_EQ(dynamic.status, SolveStatus::Optimal) << "seed " << seed;
    EXPECT_TRUE(test::certify_optimal(lp.model, dynamic)) << "seed " << seed;
    EXPECT_NEAR(dynamic.dual_bound, dynamic.objective,
                1e-5 * (1 + std::abs(dynamic.objective)))
        << "seed " << seed;
  }
}

TEST(SimplexDevex, ResetThresholdInvariantOnRandomModels) {
  // devex_reset_threshold = 1 forces a reference-framework reset after
  // essentially every pivot (weights grow monotonically from 1); the
  // pricing order changes, the certified optimum must not.
  for (int seed = 0; seed < 15; ++seed) {
    Rng rng(7600 + seed);
    auto lp = random_feasible_lp(rng, 14, 12, /*with_equalities=*/true);
    const auto reference = solve_simplex(lp.model);
    ASSERT_EQ(reference.status, SolveStatus::Optimal) << "seed " << seed;
    SimplexOptions resetty;
    resetty.devex_reset_threshold = 1.0;
    const auto sol = solve_simplex(lp.model, resetty);
    ASSERT_EQ(sol.status, SolveStatus::Optimal) << "seed " << seed;
    EXPECT_NEAR(sol.objective, reference.objective,
                1e-6 * (1 + std::abs(reference.objective)))
        << "seed " << seed;
  }
}

TEST(SimplexDevex, RefactorPeriodInvariantUnderForrestTomlin) {
  // Forcing refactorization every 1 / every 3 pivots versus the automatic
  // long period exercises totally different mixes of FT updates and
  // rebuilds; the answer must be period-independent.
  for (int seed = 0; seed < 10; ++seed) {
    Rng rng(7700 + seed);
    auto lp = random_feasible_lp(rng, 16, 12, /*with_equalities=*/true);
    const auto reference = solve_simplex(lp.model);
    ASSERT_EQ(reference.status, SolveStatus::Optimal) << "seed " << seed;
    const double scale = 1 + std::abs(reference.objective);
    for (const std::size_t period :
         {std::size_t{1}, std::size_t{3}, std::size_t{0}}) {
      SimplexOptions options;
      options.refactor_period = period;
      const auto sol = solve_simplex(lp.model, options);
      ASSERT_EQ(sol.status, SolveStatus::Optimal)
          << "seed " << seed << " period " << period;
      EXPECT_NEAR(sol.objective, reference.objective, 1e-6 * scale)
          << "seed " << seed << " period " << period;
    }
  }
}

TEST(SimplexDevex, FillGuardForcesRefactorizationsAndStaysExact) {
  // A fill factor below 1 makes the guard fire as soon as any update adds
  // a single nonzero; refactorization counts must reflect that and the
  // optimum must be unaffected.
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(7800 + seed);
    auto lp = random_feasible_lp(rng, 14, 12, /*with_equalities=*/true);
    const auto relaxed = solve_simplex(lp.model);
    ASSERT_EQ(relaxed.status, SolveStatus::Optimal) << "seed " << seed;
    SimplexOptions tight;
    tight.ft_fill_factor = 0.01;
    const auto guarded = solve_simplex(lp.model, tight);
    ASSERT_EQ(guarded.status, SolveStatus::Optimal) << "seed " << seed;
    EXPECT_GE(guarded.refactorizations, relaxed.refactorizations)
        << "seed " << seed;
    EXPECT_NEAR(guarded.objective, relaxed.objective,
                1e-6 * (1 + std::abs(relaxed.objective)))
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// PDHG-specific behaviour.

TEST(Pdhg, SolvesBoxOnlyProblem) {
  LpModel model;
  model.add_variable(0, 2, -3);
  model.add_variable(-1, 1, 4);
  const auto sol = solve_pdhg(model);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_DOUBLE_EQ(sol.objective, -6 - 4);
  EXPECT_DOUBLE_EQ(sol.dual_bound, sol.objective);
}

// With no rows, PDHG answers in closed form the way both simplex methods
// do: a zero-cost column sits at 0 clamped into its box, and a cost toward
// an infinite bound is unbounded.
SolveStatus solve_rowless_three_ways(const LpModel& model,
                                     const std::string& tag) {
  SimplexOptions dual;
  dual.method = SimplexOptions::Method::Dual;
  const auto pdhg = solve_pdhg(model);
  for (const auto& simplex :
       {solve_simplex(model), solve_simplex(model, dual)}) {
    EXPECT_EQ(simplex.status, pdhg.status) << tag;
    if (simplex.status != SolveStatus::Optimal) continue;
    EXPECT_TRUE(test::certify_optimal(model, simplex)) << tag;
    EXPECT_NEAR(simplex.objective, pdhg.objective, 1e-12) << tag;
  }
  if (pdhg.status == SolveStatus::Optimal) {
    EXPECT_TRUE(test::certify_optimal(model, pdhg)) << tag;
    EXPECT_EQ(pdhg.dual_bound, pdhg.objective) << tag;
  } else {
    EXPECT_EQ(pdhg.dual_bound, -kInfinity) << tag;
  }
  return pdhg.status;
}

TEST(Pdhg, RowlessZeroCostColumnsSitAtZeroInTheirBox) {
  LpModel model;
  model.add_variable(0, 2, -1);
  model.add_variable(-kInfinity, kInfinity, 0);
  model.add_variable(1, 3, 0);
  model.add_variable(-4, -2, 0);
  ASSERT_EQ(solve_rowless_three_ways(model, "zero-cost"), SolveStatus::Optimal);
  const auto sol = solve_pdhg(model);
  EXPECT_EQ(sol.x, (std::vector<double>{2, 0, 1, -2}));
  EXPECT_EQ(sol.objective, -2);
}

TEST(Pdhg, RowlessCostTowardInfiniteBoundIsUnbounded) {
  LpModel model;
  model.add_variable(0, 2, -1);
  model.add_variable(0, kInfinity, -1);
  EXPECT_EQ(solve_rowless_three_ways(model, "up"), SolveStatus::Unbounded);
  LpModel down;
  down.add_variable(-kInfinity, kInfinity, 0.5);
  EXPECT_EQ(solve_rowless_three_ways(down, "free"), SolveStatus::Unbounded);
}

// The warm-fuzz partner of fuzz_lp(50000 + 1428): every generated row came
// out empty and was skipped, leaving 27 columns and no rows.
TEST(Pdhg, RowlessFuzzPartnerSeed51428) {
  const auto fuzz = test::fuzz_lp(50000 + 1428);
  const auto partner = test::fuzz_warm_perturbed(fuzz, 50000 + 1428);
  ASSERT_EQ(partner.model.row_count(), 0u);
  ASSERT_EQ(partner.model.variable_count(), 27u);
  EXPECT_EQ(solve_rowless_three_ways(partner.model, "seed 51428"),
            SolveStatus::Optimal);
}

TEST(Pdhg, DetectsInfeasibilityViaThreshold) {
  LpModel model;
  const auto x = model.add_variable(0, 1, 1);
  model.add_row(RowType::Ge, 5, {x}, {1});
  PdhgOptions options;
  options.infeasibility_threshold = 10;  // any feasible point costs <= 1
  options.max_iterations = 50000;
  const auto sol = solve_pdhg(model, options);
  EXPECT_EQ(sol.status, SolveStatus::Infeasible);
}

TEST(Pdhg, BadlyScaledProblemStillConverges) {
  // Coefficients spread over 6 orders of magnitude — Ruiz scaling territory.
  LpModel model;
  const auto x = model.add_variable(0, 1, 1);
  const auto y = model.add_variable(0, 1, 1000);
  model.add_row(RowType::Ge, 500, {x, y}, {1000, 2000});
  const auto exact = solve_simplex(model);
  ASSERT_EQ(exact.status, SolveStatus::Optimal);
  PdhgOptions options;
  options.max_iterations = 100000;
  options.tolerance = 1e-6;
  const auto sol = solve_pdhg(model, options);
  EXPECT_NEAR(sol.dual_bound, exact.objective,
              1e-2 * (1 + std::abs(exact.objective)));
}

TEST(Pdhg, IterationLimitStillCertifies) {
  LpModel model;
  const auto x = model.add_variable(0, 3, 2);
  const auto y = model.add_variable(0, 3, 5);
  model.add_row(RowType::Ge, 4, {x, y}, {1, 1});
  PdhgOptions options;
  options.max_iterations = 50;  // far too few to converge
  options.check_period = 10;
  const auto sol = solve_pdhg(model, options);
  // Bound is certified whatever the status says: optimum is 11.
  EXPECT_LE(sol.dual_bound, 11 + 1e-9);
}

// ---------------------------------------------------------------------------
// Dual simplex + basis snapshots (warm-started re-optimization).

// min -x0 - 2 x1  s.t.  x0 + x1 <= 4, x0 + 3 x1 <= 6, 0 <= x <= 10.
// Optimum -5 at (3, 1).
LpModel dual_fixture() {
  LpModel model;
  const auto x0 = model.add_variable(0, 10, -1);
  const auto x1 = model.add_variable(0, 10, -2);
  model.add_row(RowType::Le, 4, {x0, x1}, {1, 1});
  model.add_row(RowType::Le, 6, {x0, x1}, {1, 3});
  return model;
}

TEST(SimplexDual, ColdDualMatchesPrimal) {
  const auto model = dual_fixture();
  const auto primal = solve_simplex(model);
  SimplexOptions dual;
  dual.method = SimplexOptions::Method::Dual;
  const auto sol = solve_simplex(model, dual);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, primal.objective, 1e-9);
  EXPECT_NEAR(sol.objective, -5, 1e-9);
  EXPECT_LE(model.max_violation(sol.x), 1e-9);
}

TEST(SimplexDual, SolutionExportsBasisSnapshot) {
  const auto model = dual_fixture();
  const auto sol = solve_simplex(model);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_TRUE(sol.basis.compatible(model.variable_count(), model.row_count()));
  std::size_t basic = 0;
  for (const auto s : sol.basis.status)
    if (s == BasisSnapshot::Basic) ++basic;
  EXPECT_EQ(basic, model.row_count());
}

TEST(SimplexDual, WarmResolveOfSameModelTakesZeroIterations) {
  const auto model = dual_fixture();
  const auto first = solve_simplex(model);
  SimplexOptions warm;
  warm.method = SimplexOptions::Method::Dual;
  warm.warm_start = &first.basis;
  const auto again = solve_simplex(model, warm);
  ASSERT_EQ(again.status, SolveStatus::Optimal);
  EXPECT_EQ(again.iterations, 0u);
  EXPECT_NEAR(again.objective, first.objective, 1e-12);
}

TEST(SimplexDual, WarmResolveAfterBoundChangeSavesPivots) {
  auto model = dual_fixture();
  const auto first = solve_simplex(model);
  // Tighten x0: the old basic point turns primal infeasible — the case the
  // dual method exists for.
  model.set_bounds(0, 0, 2);
  const auto cold = solve_simplex(model);
  SimplexOptions warm;
  warm.method = SimplexOptions::Method::Dual;
  warm.warm_start = &first.basis;
  const auto sol = solve_simplex(model, warm);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, cold.objective, 1e-9);
  EXPECT_LE(sol.iterations, cold.iterations);
  EXPECT_LE(model.max_violation(sol.x), 1e-9);
}

TEST(SimplexDual, DualDetectsInfeasibilityAfterBoundChange) {
  auto model = dual_fixture();
  model.add_row(RowType::Ge, 8, {std::size_t{0}, std::size_t{1}}, {1, 1});
  const auto first = solve_simplex(model);
  ASSERT_EQ(first.status, SolveStatus::Infeasible);

  auto feasible = dual_fixture();
  const auto seed = solve_simplex(feasible);
  // x0 + x1 <= 4 but both fixed near their upper bound: infeasible.
  feasible.set_bounds(0, 9, 10);
  feasible.set_bounds(1, 9, 10);
  SimplexOptions warm;
  warm.method = SimplexOptions::Method::Dual;
  warm.warm_start = &seed.basis;
  const auto sol = solve_simplex(feasible, warm);
  EXPECT_EQ(sol.status, SolveStatus::Infeasible);
}

TEST(SimplexDual, UnboundedFallsBackToPrimal) {
  LpModel model;
  model.add_variable(0, kInfinity, -1);
  SimplexOptions options;
  options.method = SimplexOptions::Method::Dual;
  const auto sol = solve_simplex(model, options);
  EXPECT_EQ(sol.status, SolveStatus::Unbounded);
}

TEST(SimplexDual, IncompatibleSnapshotIgnored) {
  const auto small = dual_fixture();
  const auto seed = solve_simplex(small);
  LpModel bigger;
  const auto x0 = bigger.add_variable(0, 1, 1);
  const auto x1 = bigger.add_variable(0, 1, 1);
  const auto x2 = bigger.add_variable(0, 1, 1);
  bigger.add_row(RowType::Ge, 2, {x0, x1, x2}, {1, 1, 1});
  SimplexOptions options;
  options.method = SimplexOptions::Method::Dual;
  options.warm_start = &seed.basis;  // wrong shape: must be ignored
  const auto sol = solve_simplex(bigger, options);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 2, 1e-9);
}

TEST(SimplexDual, WarmPrimalAcceptsFeasibleBasis) {
  // Primal method with a warm basis that is still primal feasible (the
  // objective changed, not the bounds): phase 1 is skipped entirely.
  auto model = dual_fixture();
  const auto first = solve_simplex(model);
  model.set_objective(0, -3);  // optimum moves along the first row
  SimplexOptions warm;
  warm.warm_start = &first.basis;
  const auto sol = solve_simplex(model, warm);
  const auto cold = solve_simplex(model);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, cold.objective, 1e-9);
  EXPECT_LE(sol.iterations, cold.iterations);
}

TEST(SimplexDual, WarmImportOutcomesAreCounted) {
  // One solve per outcome of a warm import; every attempt lands in exactly
  // one outcome counter, and every solve still reaches the cold optimum. A
  // singular snapshot is repaired (its dependent column swapped for a
  // slack) and accepted, so it counts as accepted and repaired.
  const auto model = dual_fixture();
  const auto first = solve_simplex(model);
  ASSERT_EQ(first.status, SolveStatus::Optimal);

  BasisSnapshot wrong_dims = first.basis;
  wrong_dims.rows += 1;
  BasisSnapshot duplicate = first.basis;
  duplicate.basis.assign(model.row_count(), 0);  // x0 twice
  // Columns (1, 2) and (2, 4): dependent, so a basis of both is singular.
  LpModel dependent;
  const auto a = dependent.add_variable(0, 10, -1);
  const auto b = dependent.add_variable(0, 10, -1);
  dependent.add_row(RowType::Le, 4, {a, b}, {1, 2});
  dependent.add_row(RowType::Le, 8, {a, b}, {2, 4});
  BasisSnapshot singular = solve_simplex(dependent).basis;
  singular.status = {BasisSnapshot::Basic, BasisSnapshot::Basic,
                     BasisSnapshot::AtLower, BasisSnapshot::AtLower};
  singular.basis = {0, 1};
  auto tightened = dual_fixture();
  tightened.set_bounds(0, 0, 2);  // the old basic point leaves its bounds

  obs::Registry::global().enable(true);
  obs::Registry::global().reset();
  const auto solve = [](const LpModel& target, const BasisSnapshot& snap,
                        SimplexOptions::Method method) {
    SimplexOptions options;
    options.method = method;
    options.warm_start = &snap;
    const auto sol = solve_simplex(target, options);
    const auto cold = solve_simplex(target);
    EXPECT_EQ(sol.status, cold.status);
    EXPECT_NEAR(sol.objective, cold.objective, 1e-9);
  };
  using Method = SimplexOptions::Method;
  solve(model, first.basis, Method::Primal);  // accepted
  solve(model, first.basis, Method::Dual);    // accepted
  solve(model, wrong_dims, Method::Primal);   // shape
  solve(model, duplicate, Method::Dual);      // shape
  solve(dependent, singular, Method::Primal);  // repaired, accepted
  solve(tightened, first.basis, Method::Primal);  // infeasible
  const auto snapshot = obs::Registry::global().snapshot();
  obs::Registry::global().enable(false);
  obs::Registry::global().reset();

  const auto count = [&](const char* name) {
    const auto it = snapshot.find(name);
    return it == snapshot.end() ? 0.0 : it->second.sum;
  };
  EXPECT_EQ(count("simplex.warm.attempts"), 6.0);
  EXPECT_EQ(count("simplex.warm.accepted"), 3.0);
  EXPECT_EQ(count("simplex.warm.repaired"), 1.0);
  EXPECT_EQ(count("simplex.warm.shape"), 2.0);
  EXPECT_EQ(count("simplex.warm.singular"), 0.0);
  EXPECT_EQ(count("simplex.warm.infeasible"), 1.0);
  EXPECT_LE(count("simplex.warm.repaired"), count("simplex.warm.accepted"));
  EXPECT_EQ(count("simplex.warm.attempts"),
            count("simplex.warm.accepted") + count("simplex.warm.shape") +
                count("simplex.warm.singular") +
                count("simplex.warm.infeasible"));
}

// ---------------------------------------------------------------------------
// The dual loop's recovery paths: the pre-pivot stability guards, the
// post-pivot singular rollback and the stall -> Bland -> cold-primal abort.
// Each solve must still end in a certified answer.

TEST(SimplexDualRecovery, DriftGuardRetriesWarmPivotsOnFreshFactors) {
  // lu_stability_tolerance 0.9 treats nearly every pivot under a non-empty
  // update file as drift, so the warm dual re-solve of a tightened model
  // refactorizes and retries mid-loop. No cost is shifted, so every retry
  // happens in the dual loop itself, not in a primal cleanup.
  for (const int seed : {3, 14}) {
    Rng rng(4100 + seed);
    auto lp = random_feasible_lp(rng, 14, 12, /*with_equalities=*/false);
    const auto first = solve_simplex(lp.model);
    ASSERT_EQ(first.status, SolveStatus::Optimal) << "seed " << seed;
    for (std::size_t j = 0; j < lp.model.variable_count(); j += 2)
      lp.model.set_bounds(j, 0, 0.3 * lp.model.upper(j));
    const auto cold = solve_simplex(lp.model);
    SimplexOptions options;
    options.method = SimplexOptions::Method::Dual;
    options.warm_start = &first.basis;
    options.lu_stability_tolerance = 0.9;
    LpSolution sol;
    const auto snapshot =
        metrics_during([&] { sol = solve_simplex(lp.model, options); });
    ASSERT_EQ(sol.status, SolveStatus::Optimal) << "seed " << seed;
    EXPECT_TRUE(test::certify_optimal(lp.model, sol)) << "seed " << seed;
    EXPECT_NEAR(sol.objective, cold.objective, 1e-9) << "seed " << seed;
    EXPECT_GE(metric_sum(snapshot, "simplex.refactor.drift"), 1.0)
        << "seed " << seed;
    EXPECT_EQ(metric_sum(snapshot, "simplex.dual.cost_shifts"), 0.0)
        << "seed " << seed;
    EXPECT_EQ(metric_sum(snapshot, "simplex.dual.fallbacks"), 0.0)
        << "seed " << seed;
  }
}

// The dual twin of Simplex.SingularBasisAtCertifyRollsBack. The columns are
// boxed, so the cold dual start flips both to their upper bounds and the
// rows turn primal infeasible; the dual then pivots b (1e4) and a (5e-9)
// into the basis, which the LU calls singular. By default the drift guard
// retries a's pivot on fresh factors first. With the guard off and refactor
// period 2, a's pivot is committed under an update file, the period
// refactorization finds the basis singular, and the pivot is rolled back.
// Either way a verifying factorization later finds a's pivot, chosen on
// fresh factors, breaking the basis itself, and the dual hands the model
// to the cold primal.
TEST(SimplexDualRecovery, SingularPivotRollsBackThenFallsBackToPrimal) {
  LpModel model;
  const auto a = model.add_variable(0, 1e8, -1);
  const auto b = model.add_variable(0, 10, -1);
  model.add_row(RowType::Le, 5e-9, {a}, {5e-9});
  model.add_row(RowType::Le, 1e4, {b}, {1e4});
  for (const std::size_t period : {std::size_t{0}, std::size_t{2}}) {
    SimplexOptions options;
    options.method = SimplexOptions::Method::Dual;
    options.refactor_period = period;
    if (period == 2) options.lu_stability_tolerance = 0;
    LpSolution sol;
    const auto snapshot =
        metrics_during([&] { sol = solve_simplex(model, options); });
    EXPECT_NE(sol.status, SolveStatus::Infeasible) << "period " << period;
    EXPECT_LE(sol.dual_bound, -2 + 1e-9) << "period " << period;
    EXPECT_LE(model.max_violation(sol.x), 1e-9) << "period " << period;
    EXPECT_EQ(metric_sum(snapshot, "simplex.dual.fallbacks"), 1.0)
        << "period " << period;
    EXPECT_GE(metric_sum(snapshot, "simplex.refactor.singular_rollback"), 2.0)
        << "period " << period;
    EXPECT_GE(metric_sum(snapshot, "simplex.refactor.verify"), 1.0)
        << "period " << period;
    if (period == 2) {
      EXPECT_GE(metric_sum(snapshot, "simplex.refactor.period"), 1.0);
    }
  }
}

TEST(SimplexDualRecovery, StallOutlastingBlandModeFallsBackToPrimal) {
  // Every cost is zero, so each dual pivot is dual degenerate and the dual
  // objective never moves. With stall_limit 0 the first pivot switches to
  // Bland mode and the second outlasts it (8 x stall_limit pivots): the
  // dual aborts and the cold primal answers.
  LpModel model;
  const auto a = model.add_variable(0, kInfinity, 0);
  const auto b = model.add_variable(0, kInfinity, 0);
  const auto c = model.add_variable(0, kInfinity, 0);
  model.add_row(RowType::Ge, 1, {a, b}, {1, 1});
  model.add_row(RowType::Ge, 1, {b, c}, {1, 1});
  model.add_row(RowType::Ge, 1, {a, c}, {1, 1});
  SimplexOptions options;
  options.method = SimplexOptions::Method::Dual;
  options.stall_limit = 0;
  LpSolution sol;
  const auto snapshot =
      metrics_during([&] { sol = solve_simplex(model, options); });
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_TRUE(test::certify_optimal(model, sol));
  EXPECT_EQ(sol.objective, 0.0);
  EXPECT_EQ(metric_sum(snapshot, "simplex.dual.fallbacks"), 1.0);
  EXPECT_GE(metric_sum(snapshot, "simplex.refactor.bland"), 1.0);
}

}  // namespace
}  // namespace wanplace::lp
