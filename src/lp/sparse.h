// Sparse matrix support for the LP solvers.
//
// Matrices are assembled as triplets and compressed to CSR. The PDHG solver
// needs only y += A x and x += A^T y products; both are provided without
// materializing the transpose (a column-major pass over CSR). For large
// models the solver materializes the transpose once (transposed()) and runs
// both products as row-blocked gathers over a thread pool; every row's sum
// is an independent sequential reduction, so the result is bit-identical
// for any block or thread count.
#pragma once

#include <cstddef>
#include <vector>

namespace wanplace::util {
class ThreadPool;
}

namespace wanplace::lp {

/// One nonzero entry during assembly.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

/// Immutable CSC (column-compressed) matrix: the column-major counterpart
/// of SparseMatrix, used where algorithms walk columns — the simplex builds
/// its structural-column view with it and feeds basis columns to the sparse
/// LU factorization. Entries within each column are sorted by row.
class ColumnMajorMatrix {
 public:
  ColumnMajorMatrix() = default;

  /// Build from triplets; duplicate (row, col) entries are summed, zeros
  /// dropped. Triplets may be in any order.
  ColumnMajorMatrix(std::size_t rows, std::size_t cols,
                    std::vector<Triplet> triplets);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return values_.size(); }
  std::size_t col_size(std::size_t j) const {
    return col_start_[j + 1] - col_start_[j];
  }

  /// Iterate the nonzeros of column j as fn(row, value), rows ascending.
  template <typename Fn>
  void for_column(std::size_t j, Fn&& fn) const {
    for (std::size_t i = col_start_[j]; i < col_start_[j + 1]; ++i)
      fn(row_index_[i], values_[i]);
  }

  /// Dot product of column j with a dense row-indexed vector — the hot
  /// kernel of the simplex pricing pass (alpha~_j = rho~ . A_j for every
  /// nonbasic column, every pivot), kept loop-only so it inlines tightly.
  double col_dot(std::size_t j, const std::vector<double>& v) const {
    double acc = 0;
    for (std::size_t i = col_start_[j]; i < col_start_[j + 1]; ++i)
      acc += values_[i] * v[row_index_[i]];
    return acc;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> col_start_;
  std::vector<std::size_t> row_index_;
  std::vector<double> values_;
};

/// Immutable CSR matrix.
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Build from triplets; duplicate (row, col) entries are summed, zeros
  /// dropped. Triplets may be in any order.
  SparseMatrix(std::size_t rows, std::size_t cols,
               std::vector<Triplet> triplets);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return values_.size(); }

  /// out = A * x (out resized to rows()).
  void multiply(const std::vector<double>& x, std::vector<double>& out) const;

  /// out = A^T * y (out resized to cols()).
  void multiply_transpose(const std::vector<double>& y,
                          std::vector<double>& out) const;

  /// The transpose as a new CSR matrix. Entries within each transposed row
  /// appear in ascending original-row order — the same accumulation order
  /// multiply_transpose uses — so gather products over the transpose are
  /// bit-identical to the scatter product over the original.
  SparseMatrix transposed() const;

  /// out = A * x with rows partitioned into `blocks` contiguous chunks run
  /// on `pool` (the caller executes one chunk). `skip_zero_inputs` skips
  /// terms whose x entry is exactly zero, matching multiply_transpose's
  /// row-skipping when A is a transposed() matrix. Row sums are independent
  /// sequential reductions: identical results for any blocks/pool size.
  void multiply_blocked(const std::vector<double>& x,
                        std::vector<double>& out, util::ThreadPool& pool,
                        std::size_t blocks,
                        bool skip_zero_inputs = false) const;

  /// Dot product of row r with x.
  double row_dot(std::size_t r, const std::vector<double>& x) const;

  /// Iterate the nonzeros of row r.
  struct RowEntry {
    std::size_t col;
    double value;
  };
  std::size_t row_size(std::size_t r) const {
    return row_start_[r + 1] - row_start_[r];
  }
  RowEntry row_entry(std::size_t r, std::size_t idx) const {
    const std::size_t at = row_start_[r] + idx;
    return {col_index_[at], values_[at]};
  }

  /// Largest absolute entry (0 for an empty matrix).
  double max_abs() const;

  /// Squared Frobenius norm — a cheap upper bound on ||A||_2^2 used to set
  /// PDHG step sizes safely.
  double frobenius_norm_squared() const;

  /// Power-iteration estimate of ||A||_2 (tighter than Frobenius).
  double spectral_norm_estimate(int iterations = 30) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_start_;
  std::vector<std::size_t> col_index_;
  std::vector<double> values_;

  friend class RowScaler;
};

}  // namespace wanplace::lp
