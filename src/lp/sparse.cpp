#include "lp/sparse.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/check.h"
#include "util/thread_pool.h"

namespace wanplace::lp {

SparseMatrix::SparseMatrix(std::size_t cols,
                           std::vector<std::size_t> row_start,
                           std::vector<std::size_t> col_index,
                           std::vector<double> values)
    : rows_(row_start.size() - 1),
      cols_(cols),
      row_start_(std::move(row_start)),
      col_index_(std::move(col_index)),
      values_(std::move(values)) {
  WANPLACE_REQUIRE(!row_start_.empty() && row_start_.back() == values_.size() &&
                       col_index_.size() == values_.size(),
                   "compressed arrays disagree");
}

void SparseMatrix::multiply(const std::vector<double>& x,
                            std::vector<double>& out) const {
  WANPLACE_REQUIRE(x.size() == cols_, "dimension mismatch in A*x");
  out.assign(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double sum = 0;
    for (std::size_t i = row_start_[r]; i < row_start_[r + 1]; ++i)
      sum += values_[i] * x[col_index_[i]];
    out[r] = sum;
  }
}

void SparseMatrix::multiply_transpose(const std::vector<double>& y,
                                      std::vector<double>& out) const {
  WANPLACE_REQUIRE(y.size() == rows_, "dimension mismatch in A^T*y");
  out.assign(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double yr = y[r];
    if (yr == 0) continue;
    for (std::size_t i = row_start_[r]; i < row_start_[r + 1]; ++i)
      out[col_index_[i]] += values_[i] * yr;
  }
}

SparseMatrix SparseMatrix::transposed() const {
  // Counting sort by column: iterating source rows in ascending order keeps
  // each transposed row's entries in ascending original-row order.
  SparseMatrix out;
  out.rows_ = cols_;
  out.cols_ = rows_;
  out.row_start_.assign(cols_ + 1, 0);
  for (std::size_t c : col_index_) ++out.row_start_[c + 1];
  for (std::size_t c = 0; c < cols_; ++c)
    out.row_start_[c + 1] += out.row_start_[c];
  out.col_index_.resize(values_.size());
  out.values_.resize(values_.size());
  std::vector<std::size_t> cursor(out.row_start_.begin(),
                                  out.row_start_.end() - 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t i = row_start_[r]; i < row_start_[r + 1]; ++i) {
      const std::size_t at = cursor[col_index_[i]]++;
      out.col_index_[at] = r;
      out.values_[at] = values_[i];
    }
  }
  return out;
}

void SparseMatrix::multiply_blocked(const std::vector<double>& x,
                                    std::vector<double>& out,
                                    util::ThreadPool& pool,
                                    std::size_t blocks,
                                    bool skip_zero_inputs) const {
  WANPLACE_REQUIRE(x.size() == cols_, "dimension mismatch in A*x");
  out.resize(rows_);
  blocks = std::max<std::size_t>(1, std::min(blocks, rows_));
  const std::size_t chunk = (rows_ + blocks - 1) / blocks;
  pool.parallel_for(blocks, [&](std::size_t block) {
    const std::size_t begin = block * chunk;
    const std::size_t end = std::min(rows_, begin + chunk);
    for (std::size_t r = begin; r < end; ++r) {
      double sum = 0;
      if (skip_zero_inputs) {
        for (std::size_t i = row_start_[r]; i < row_start_[r + 1]; ++i) {
          const double xv = x[col_index_[i]];
          if (xv != 0) sum += values_[i] * xv;
        }
      } else {
        for (std::size_t i = row_start_[r]; i < row_start_[r + 1]; ++i)
          sum += values_[i] * x[col_index_[i]];
      }
      out[r] = sum;
    }
  });
}

void SparseMatrix::scale(const std::vector<double>& row_factor,
                         const std::vector<double>& col_factor) {
  WANPLACE_REQUIRE(row_factor.size() == rows_ && col_factor.size() == cols_,
                   "scale factor arity mismatch");
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t i = row_start_[r]; i < row_start_[r + 1]; ++i)
      values_[i] *= row_factor[r] * col_factor[col_index_[i]];
}

double SparseMatrix::max_abs() const {
  double best = 0;
  for (double v : values_) best = std::max(best, std::abs(v));
  return best;
}

double SparseMatrix::frobenius_norm_squared() const {
  double sum = 0;
  for (double v : values_) sum += v * v;
  return sum;
}

double SparseMatrix::spectral_norm_estimate(int iterations) const {
  if (values_.empty()) return 0;
  // Power iteration on A^T A starting from a deterministic vector.
  std::vector<double> x(cols_, 1.0), ax, atax;
  double norm = 0;
  for (int it = 0; it < iterations; ++it) {
    multiply(x, ax);
    multiply_transpose(ax, atax);
    double len = 0;
    for (double v : atax) len += v * v;
    len = std::sqrt(len);
    if (len == 0) break;
    norm = std::sqrt(len);  // ||A^T A x|| ~ sigma^2 for unit x
    for (std::size_t j = 0; j < cols_; ++j) x[j] = atax[j] / len;
  }
  // Guard: never report below the max entry / above Frobenius.
  norm = std::max(norm, max_abs());
  norm = std::min(norm, std::sqrt(frobenius_norm_squared()) + 1e-12);
  return norm;
}

}  // namespace wanplace::lp
