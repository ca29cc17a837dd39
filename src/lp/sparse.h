// Sparse matrix support for the LP solvers.
//
// One compressed type, SparseMatrix (CSR), built one way: LpModel::columns()
// compresses the model's rows into it with a counting pass, giving the
// column view the simplex walks (row j = column j of A), and
// LpModel::matrix() is that view's counting transpose, giving the row view
// PDHG scales and multiplies. Neither path sorts. The PDHG solver needs
// only y += A x and x += A^T y products; both run on the caller's thread
// without materializing the transpose (a column-major pass over CSR).
#pragma once

#include <cstddef>
#include <vector>

#include "util/check.h"

namespace wanplace::lp {

/// CSR matrix, immutable but for scale().
class SparseMatrix {
 public:
  SparseMatrix() = default;

  /// Adopt compressed arrays: row r holds entries [row_start[r],
  /// row_start[r + 1]) of col_index/values. The caller guarantees column
  /// indices below `cols` (LpModel::columns() is the one caller).
  SparseMatrix(std::size_t cols, std::vector<std::size_t> row_start,
               std::vector<std::size_t> col_index, std::vector<double> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return values_.size(); }

  /// out = A * x (out resized to rows()).
  void multiply(const std::vector<double>& x, std::vector<double>& out) const;

  /// out = A^T * y (out resized to cols()).
  void multiply_transpose(const std::vector<double>& y,
                          std::vector<double>& out) const;

  /// The transpose as a new CSR matrix. Entries within each transposed row
  /// appear in ascending original-row order.
  SparseMatrix transposed() const;

  /// Dot product of row r with x — the hot kernel of the simplex pricing
  /// pass (alpha~_j = rho~ . A_j for every nonbasic column, every pivot,
  /// over the column view), kept loop-only so it inlines tightly.
  double row_dot(std::size_t r, const std::vector<double>& x) const {
    WANPLACE_REQUIRE(r < rows_, "row out of range");
    double sum = 0;
    for (std::size_t i = row_start_[r]; i < row_start_[r + 1]; ++i)
      sum += values_[i] * x[col_index_[i]];
    return sum;
  }

  /// Iterate the nonzeros of row r as fn(col, value), in stored order.
  template <typename Fn>
  void for_row(std::size_t r, Fn&& fn) const {
    for (std::size_t i = row_start_[r]; i < row_start_[r + 1]; ++i)
      fn(col_index_[i], values_[i]);
  }

  /// Random access to the nonzeros of row r.
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

  /// v *= row_factor[r] * col_factor[c] for every entry (r, c, v).
  void scale(const std::vector<double>& row_factor,
             const std::vector<double>& col_factor);

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
};

}  // namespace wanplace::lp
