#include "lp/scaling.h"

#include <cmath>

#include "util/check.h"

namespace wanplace::lp {

ScalingResult ruiz_scaling(const SparseMatrix& matrix, int iterations) {
  const std::size_t rows = matrix.rows();
  const std::size_t cols = matrix.cols();
  ScalingResult result;
  result.row_scale.assign(rows, 1.0);
  result.col_scale.assign(cols, 1.0);

  std::vector<double> row_max(rows), col_max(cols);
  for (int it = 0; it < iterations; ++it) {
    std::fill(row_max.begin(), row_max.end(), 0.0);
    std::fill(col_max.begin(), col_max.end(), 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      matrix.for_row(r, [&](std::size_t c, double value) {
        const double v =
            std::abs(value) * result.row_scale[r] * result.col_scale[c];
        row_max[r] = std::max(row_max[r], v);
        col_max[c] = std::max(col_max[c], v);
      });
    }
    bool changed = false;
    for (std::size_t r = 0; r < rows; ++r) {
      if (row_max[r] > 0) {
        result.row_scale[r] /= std::sqrt(row_max[r]);
        changed = changed || std::abs(row_max[r] - 1) > 1e-3;
      }
    }
    for (std::size_t c = 0; c < cols; ++c) {
      if (col_max[c] > 0) {
        result.col_scale[c] /= std::sqrt(col_max[c]);
        changed = changed || std::abs(col_max[c] - 1) > 1e-3;
      }
    }
    if (!changed) break;
  }
  return result;
}

}  // namespace wanplace::lp
