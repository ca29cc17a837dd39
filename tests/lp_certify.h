// Independent optimality certificate for LP solutions (KKT conditions).
//
// certify_optimal() decides whether a solution claimed optimal really is,
// from the model's data and the solution's x, y and objective alone. It
// runs no factorization and shares no code with any solver (it does not
// even call LpModel::max_violation or certified_dual_bound), so a pricing,
// ratio-test or basis-algebra defect that lands every solver path on the
// same wrong vertex still fails it. After Dhiflaoui et al., "Certifying
// and repairing solutions to large LPs", SODA 2003.
//
// For min c^T x s.t. a_r^T x (>=|<=|=) b_r, l <= x <= u, with row duals y
// (LpSolution's convention: >= 0 on Ge rows, <= 0 on Le rows, free on Eq)
// and reduced costs d = c - A^T y, the conditions are checked in this
// order, and the first that fails is reported with its row or column and
// its scaled residual:
//   1. primal feasibility: bounds, then rows;
//   2. the reported objective equals c^T x;
//   3. every y_r has the sign its row type requires;
//   4. every d_j has the sign its column's bound position allows: >= 0 at
//      the lower bound, <= 0 at the upper, ~0 strictly inside the box
//      (always so for a free column), any sign on a fixed column;
//   5. row complementary slackness: y_r ~ 0 or row r tight;
//   6. the duality gap between c^T x and the dual objective
//      b^T y + sum_j d_j * (the bound x_j sits at) is ~0.
// Each residual is divided by the magnitude of the terms it is computed
// from, so one limit fits every instance; a correct solution reads at the
// level of rounding error (~1e-14), far inside kCertifyLimit.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "lp/model.h"

namespace wanplace::test {

inline constexpr double kCertifyLimit = 1e-9;

/// Success when `solution` is an optimal (x, y) pair of `model` within
/// kCertifyLimit; otherwise a failure naming the first violated condition,
/// its row or column, and its scaled residual.
inline ::testing::AssertionResult certify_optimal(
    const lp::LpModel& model, const lp::LpSolution& solution) {
  const std::size_t n = model.variable_count();
  const std::size_t m = model.row_count();
  const std::vector<double>& x = solution.x;
  const std::vector<double>& y = solution.y;
  if (x.size() != n || y.size() != m)
    return ::testing::AssertionFailure()
           << "shape: " << x.size() << " primal and " << y.size()
           << " dual values for " << n << " columns and " << m << " rows";

  // `!(residual <= limit)` so that a NaN fails too.
  const auto fail = [](const char* condition, const std::string& where,
                       double residual) {
    return ::testing::AssertionFailure()
           << condition << " at " << where << ": residual " << residual
           << " > " << kCertifyLimit;
  };
  const auto col_at = [](std::size_t j) {
    return "column " + std::to_string(j);
  };
  const auto row_at = [](std::size_t r) { return "row " + std::to_string(r); };
  const auto tight = [](double value, double bound) {
    return std::isfinite(bound) &&
           std::abs(value - bound) <= kCertifyLimit * (1 + std::abs(bound));
  };

  // 1. Primal feasibility.
  for (std::size_t j = 0; j < n; ++j) {
    const double over = std::max({model.lower(j) - x[j],
                                  x[j] - model.upper(j), 0.0});
    const double residual = over / (1 + std::abs(x[j]));
    if (!(residual <= kCertifyLimit))
      return fail("primal bound", col_at(j), residual);
  }
  std::vector<double> activity(m, 0.0), activity_scale(m, 0.0);
  std::vector<double> aty(n, 0.0), aty_scale(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) {
    const lp::RowSpec& row = model.row(r);
    for (std::size_t k = 0; k < row.cols.size(); ++k) {
      const std::size_t j = row.cols[k];
      const double a = row.coeffs[k];
      activity[r] += a * x[j];
      activity_scale[r] += std::abs(a * x[j]);
      aty[j] += a * y[r];
      aty_scale[j] += std::abs(a * y[r]);
    }
    const double slack = activity[r] - row.rhs;
    const double over = row.type == lp::RowType::Ge   ? -slack
                        : row.type == lp::RowType::Le ? slack
                                                      : std::abs(slack);
    const double residual = std::max(over, 0.0) /
                            (1 + std::abs(row.rhs) + activity_scale[r]);
    if (!(residual <= kCertifyLimit))
      return fail("primal row", row_at(r), residual);
  }

  // 2. Reported objective.
  double cx = 0, cx_scale = 0;
  for (std::size_t j = 0; j < n; ++j) {
    cx += model.objective(j) * x[j];
    cx_scale += std::abs(model.objective(j) * x[j]);
  }
  {
    const double residual =
        std::abs(solution.objective - cx) / (1 + cx_scale);
    if (!(residual <= kCertifyLimit))
      return fail("objective", "c^T x", residual);
  }

  // 3. Dual signs, on the scale of the largest cost or dual.
  double dual_scale = 1;
  for (std::size_t j = 0; j < n; ++j)
    dual_scale = std::max(dual_scale, 1 + std::abs(model.objective(j)));
  for (std::size_t r = 0; r < m; ++r)
    dual_scale = std::max(dual_scale, 1 + std::abs(y[r]));
  for (std::size_t r = 0; r < m; ++r) {
    const lp::RowType type = model.row(r).type;
    const double wrong = type == lp::RowType::Ge   ? -y[r]
                         : type == lp::RowType::Le ? y[r]
                                                   : 0.0;
    const double residual = std::max(wrong, 0.0) / dual_scale;
    if (!(residual <= kCertifyLimit))
      return fail("dual sign", row_at(r), residual);
  }

  // 4. Reduced-cost signs by bound position. `at` records the bound each
  // column sits at (its own value when strictly inside) for the gap below.
  std::vector<double> at(x);
  double dual_objective = 0, dual_objective_scale = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double d = model.objective(j) - aty[j];
    const double lo = model.lower(j), up = model.upper(j);
    const bool at_lower = tight(x[j], lo);
    const bool at_upper = tight(x[j], up);
    double wrong = 0;
    if (at_lower && at_upper) {
      at[j] = lo;  // fixed column: any sign
    } else if (at_lower) {
      at[j] = lo;
      wrong = std::max(-d, 0.0);
    } else if (at_upper) {
      at[j] = up;
      wrong = std::max(d, 0.0);
    } else {
      wrong = std::abs(d);
    }
    const double residual =
        wrong / (1 + std::abs(model.objective(j)) + aty_scale[j]);
    if (!(residual <= kCertifyLimit))
      return fail("reduced cost sign", col_at(j), residual);
    dual_objective += d * at[j];
    dual_objective_scale += std::abs(d * at[j]);
  }

  // 5. Row complementary slackness: a nonzero dual needs a tight row.
  for (std::size_t r = 0; r < m; ++r) {
    const lp::RowSpec& row = model.row(r);
    const double slack = std::abs(activity[r] - row.rhs) /
                         (1 + std::abs(row.rhs) + activity_scale[r]);
    const double residual = std::min(std::abs(y[r]) / dual_scale, slack);
    if (!(residual <= kCertifyLimit))
      return fail("complementary slackness", row_at(r), residual);
    dual_objective += row.rhs * y[r];
    dual_objective_scale += std::abs(row.rhs * y[r]);
  }

  // 6. Duality gap.
  const double residual = std::abs(cx - dual_objective) /
                          (1 + cx_scale + dual_objective_scale);
  if (!(residual <= kCertifyLimit))
    return fail("duality gap", "c^T x vs the dual objective", residual);
  return ::testing::AssertionSuccess();
}

}  // namespace wanplace::test
