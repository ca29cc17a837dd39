// Ruiz equilibration for first-order LP solving.
//
// PDHG's convergence degrades badly on badly scaled matrices (our QoS rows
// mix unit coefficients with request counts in the thousands). Ruiz scaling
// iteratively divides each row and column by the square root of its largest
// absolute entry, driving all row/column infinity-norms toward 1.
#pragma once

#include <vector>

#include "lp/sparse.h"

namespace wanplace::lp {

struct ScalingResult {
  std::vector<double> row_scale;  // multiply row r by row_scale[r]
  std::vector<double> col_scale;  // multiply column j by col_scale[j]
};

/// Compute Ruiz scaling factors for `matrix`. `iterations` of 10 is
/// enough to equilibrate within a few percent.
ScalingResult ruiz_scaling(const SparseMatrix& matrix, int iterations = 10);

}  // namespace wanplace::lp
