// Hyper-sparse FTRAN/BTRAN kernels (lp/lu.h)
// against the dense scatter paths and fresh factorizations, plus
// solver-level equivalence of the sparse kernel plumbing in
// lp/simplex.cpp: the sparse paths are designed to perform identical
// arithmetic on identical active sets, so nonzero results must match the
// dense paths bit for bit (zero signs may differ; == treats them equal),
// and the solver's pivot sequence must be independent of the density
// threshold.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "lp/lu.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "lp_fuzz.h"
#include "util/rng.h"

namespace wanplace::lp {
namespace {

using test::FuzzLp;
using test::fuzz_adversarial_lp;
using test::fuzz_base_seed;
using test::fuzz_lp;
using test::fuzz_shard_count;

using LuColumns = std::vector<std::vector<BasisLu::Entry>>;

LuColumns random_basis_columns(Rng& rng, std::size_t m, double density) {
  LuColumns columns(m);
  for (std::size_t p = 0; p < m; ++p) {
    columns[p].push_back(
        {static_cast<std::uint32_t>(p), 2.0 + rng.uniform(0, 1)});
    for (std::size_t r = 0; r < m; ++r) {
      if (r == p || !rng.bernoulli(density)) continue;
      columns[p].push_back(
          {static_cast<std::uint32_t>(r), rng.uniform(-1, 1)});
    }
  }
  return columns;
}

/// Replace column p of the basis through the spike path, mirroring the
/// change in `columns`. Returns false when the update was refused.
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

/// Sparse RHS with `nnz` random nonzeros; returns the dense vector and its
/// nonzero pattern.
std::vector<double> random_sparse_rhs(Rng& rng, std::size_t m,
                                      std::size_t nnz,
                                      std::vector<std::uint32_t>& pattern) {
  std::vector<double> x(m, 0.0);
  pattern.clear();
  for (std::size_t k = 0; k < nnz; ++k) {
    const auto r = static_cast<std::uint32_t>(rng.uniform_index(m));
    if (x[r] == 0.0) pattern.push_back(r);
    x[r] = rng.uniform(-2, 2);
    if (x[r] == 0.0) x[r] = 1.0;  // keep the pattern honest
  }
  return x;
}

/// An FT basis that has been through `updates` random column replacements,
/// with `columns` mirroring the final basis matrix.
void make_updated_ft_basis(Rng& rng, std::size_t m, std::size_t updates,
                           BasisLu& lu, LuColumns& columns) {
  columns = random_basis_columns(rng, m, 0.08);
  ASSERT_TRUE(lu.factorize(m, columns));
  for (std::size_t u = 0; u < updates; ++u)
    apply_random_replacement(rng, lu, columns, rng.uniform_index(m));
}

TEST(LuKernel, FtranSparseMatchesDenseBitExact) {
  Rng rng(101);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t m = 20 + rng.uniform_index(60);
    BasisLu lu;
    LuColumns columns;
    make_updated_ft_basis(rng, m, 1 + rng.uniform_index(8), lu, columns);

    std::vector<std::uint32_t> pattern;
    auto x = random_sparse_rhs(rng, m, 1 + rng.uniform_index(3), pattern);
    auto dense = x;
    lu.ftran(dense);
    // Threshold 1.0: the kernel stays sparse whenever the closure allows.
    const bool sparse = lu.ftran_sparse(x, pattern, 1.0);
    for (std::size_t p = 0; p < m; ++p)
      ASSERT_EQ(x[p], dense[p]) << "trial " << trial << " pos " << p;
    if (sparse) {
      // The returned pattern must cover every nonzero of the result.
      std::vector<bool> in_pattern(m, false);
      for (const std::uint32_t p : pattern) in_pattern[p] = true;
      for (std::size_t p = 0; p < m; ++p)
        if (x[p] != 0.0) {
          ASSERT_TRUE(in_pattern[p]) << "trial " << trial << " pos " << p;
        }
    }
  }
}

TEST(LuKernel, BtranSparseMatchesDenseBitExact) {
  Rng rng(102);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t m = 20 + rng.uniform_index(60);
    BasisLu lu;
    LuColumns columns;
    make_updated_ft_basis(rng, m, 1 + rng.uniform_index(8), lu, columns);

    std::vector<std::uint32_t> pattern;
    auto x = random_sparse_rhs(rng, m, 1 + rng.uniform_index(3), pattern);
    auto dense = x;
    lu.btran(dense);
    const bool sparse = lu.btran_sparse(x, pattern, 1.0);
    for (std::size_t r = 0; r < m; ++r)
      ASSERT_EQ(x[r], dense[r]) << "trial " << trial << " row " << r;
    if (sparse) {
      std::vector<bool> in_pattern(m, false);
      for (const std::uint32_t r : pattern) in_pattern[r] = true;
      for (std::size_t r = 0; r < m; ++r)
        if (x[r] != 0.0) {
          ASSERT_TRUE(in_pattern[r]) << "trial " << trial << " row " << r;
        }
    }
  }
}

TEST(LuKernel, ThresholdZeroForcesDenseFallback) {
  Rng rng(103);
  const std::size_t m = 40;
  BasisLu lu;
  LuColumns columns;
  make_updated_ft_basis(rng, m, 5, lu, columns);

  std::vector<std::uint32_t> pattern;
  auto x = random_sparse_rhs(rng, m, 2, pattern);
  auto dense = x;
  lu.ftran(dense);
  auto p2 = pattern;
  EXPECT_FALSE(lu.ftran_sparse(x, p2, 0.0));
  for (std::size_t p = 0; p < m; ++p) ASSERT_EQ(x[p], dense[p]);

  auto y = random_sparse_rhs(rng, m, 2, pattern);
  auto ydense = y;
  lu.btran(ydense);
  p2 = pattern;
  EXPECT_FALSE(lu.btran_sparse(y, p2, 0.0));
  for (std::size_t r = 0; r < m; ++r) ASSERT_EQ(y[r], ydense[r]);
}

TEST(LuKernel, SparseSolveAfterDenseFallbackKeepsScratchClean) {
  // A dense fallback mid-solve must not leave stale values in the shared
  // zero-background scratch that would corrupt a later sparse solve.
  Rng rng(104);
  const std::size_t m = 50;
  BasisLu lu;
  LuColumns columns;
  make_updated_ft_basis(rng, m, 6, lu, columns);

  for (int round = 0; round < 10; ++round) {
    std::vector<std::uint32_t> pattern;
    // Alternate dense-ish (forced fallback) and hyper-sparse solves.
    const std::size_t nnz = round % 2 == 0 ? m / 2 : 1;
    auto x = random_sparse_rhs(rng, m, nnz, pattern);
    auto dense = x;
    lu.ftran(dense);
    lu.ftran_sparse(x, pattern, 0.25);
    for (std::size_t p = 0; p < m; ++p) ASSERT_EQ(x[p], dense[p]);

    auto y = random_sparse_rhs(rng, m, nnz, pattern);
    auto ydense = y;
    lu.btran(ydense);
    lu.btran_sparse(y, pattern, 0.25);
    for (std::size_t r = 0; r < m; ++r) ASSERT_EQ(y[r], ydense[r]);
  }
}

TEST(LuKernel, SparseSpikeStashFeedsUpdate) {
  // An FT update consumes the spike stashed by the preceding ftran. Stash
  // it through the sparse path and check the updated basis still solves
  // against a fresh factorization of the mirrored columns.
  Rng rng(105);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t m = 20 + rng.uniform_index(40);
    BasisLu lu;
    LuColumns columns;
    make_updated_ft_basis(rng, m, 2, lu, columns);

    for (int change = 0; change < 4; ++change) {
      const std::size_t p = rng.uniform_index(m);
      std::vector<BasisLu::Entry> incoming;
      incoming.push_back(
          {static_cast<std::uint32_t>(p), 2.0 + rng.uniform(0, 1)});
      for (std::size_t r = 0; r < m; ++r)
        if (r != p && rng.bernoulli(0.1))
          incoming.push_back(
              {static_cast<std::uint32_t>(r), rng.uniform(-1, 1)});
      std::vector<double> w(m, 0.0);
      std::vector<std::uint32_t> pattern;
      for (const auto& e : incoming) {
        w[e.index] = e.value;
        pattern.push_back(e.index);
      }
      lu.ftran_sparse(w, pattern, 1.0);
      if (!lu.update(p, 1e-12)) continue;
      columns[p] = incoming;
    }

    BasisLu fresh;
    ASSERT_TRUE(fresh.factorize(m, columns));
    std::vector<double> rhs(m);
    for (auto& v : rhs) v = rng.uniform(-2, 2);
    auto via_updates = rhs, via_fresh = rhs;
    lu.ftran(via_updates);
    fresh.ftran(via_fresh);
    for (std::size_t p = 0; p < m; ++p)
      ASSERT_NEAR(via_updates[p], via_fresh[p], 1e-8) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Solver-level equivalence: the density threshold must change runtimes,
// never answers or pivot sequences.

SimplexOptions with_threshold(double threshold) {
  SimplexOptions options;
  options.sparse_density_threshold = threshold;
  return options;
}

// A small devex_reset_threshold makes the Devex framework reset often, on
// the sparse candidate pass as well as the dense pass; both end in the same
// reset rule, so the pivot sequence still cannot depend on the threshold.
TEST(SimplexSparse, DensityThresholdNeverChangesThePivotSequence) {
  const std::size_t count = fuzz_shard_count(40);
  for (const double reset : {1e7, 4.0}) {
    SCOPED_TRACE(reset);
    const auto solve = [&](const LpModel& model, double threshold) {
      SimplexOptions options = with_threshold(threshold);
      options.devex_reset_threshold = reset;
      return solve_simplex(model, options);
    };
    for (std::size_t i = 0; i < count; ++i) {
      const FuzzLp fuzz = fuzz_lp(fuzz_base_seed() + 9000 + i);
      const LpSolution dense = solve(fuzz.model, 0.0);
      const LpSolution mixed = solve(fuzz.model, 0.1);
      const LpSolution sparse = solve(fuzz.model, 1.0);
      ASSERT_EQ(dense.status, mixed.status) << "case " << i;
      ASSERT_EQ(dense.status, sparse.status) << "case " << i;
      ASSERT_EQ(dense.iterations, mixed.iterations) << "case " << i;
      ASSERT_EQ(dense.iterations, sparse.iterations) << "case " << i;
      if (dense.status == SolveStatus::Optimal) {
        ASSERT_EQ(dense.objective, mixed.objective) << "case " << i;
        ASSERT_EQ(dense.objective, sparse.objective) << "case " << i;
      }
    }
  }
}

TEST(SimplexSparse, DensityThresholdNeverChangesTheDualPivotSequence) {
  const std::size_t count = fuzz_shard_count(40);
  for (std::size_t i = 0; i < count; ++i) {
    const FuzzLp fuzz = fuzz_lp(fuzz_base_seed() + 9500 + i);
    auto dual = [&](double threshold) {
      SimplexOptions options = with_threshold(threshold);
      options.method = SimplexOptions::Method::Dual;
      return solve_simplex(fuzz.model, options);
    };
    const LpSolution dense = dual(0.0);
    const LpSolution sparse = dual(1.0);
    ASSERT_EQ(dense.status, sparse.status) << "case " << i;
    ASSERT_EQ(dense.iterations, sparse.iterations) << "case " << i;
    if (dense.status == SolveStatus::Optimal) {
      ASSERT_EQ(dense.objective, sparse.objective) << "case " << i;
    }
  }
}

TEST(SimplexSparse, AdversarialCorpusAgreesAcrossThresholds) {
  const std::size_t count = fuzz_shard_count(30);
  for (std::size_t i = 0; i < count; ++i) {
    const FuzzLp fuzz = fuzz_adversarial_lp(fuzz_base_seed() + 9700 + i);
    const LpSolution dense = solve_simplex(fuzz.model, with_threshold(0.0));
    const LpSolution sparse = solve_simplex(fuzz.model, with_threshold(1.0));
    ASSERT_EQ(dense.status, sparse.status) << "case " << i;
    ASSERT_EQ(dense.iterations, sparse.iterations) << "case " << i;
    if (dense.status == SolveStatus::Optimal) {
      ASSERT_EQ(dense.objective, sparse.objective) << "case " << i;
    }
  }
}

}  // namespace
}  // namespace wanplace::lp
