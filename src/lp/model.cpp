#include "lp/model.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace wanplace::lp {

const char* to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::Optimal: return "optimal";
    case SolveStatus::Infeasible: return "infeasible";
    case SolveStatus::Unbounded: return "unbounded";
    case SolveStatus::IterationLimit: return "iteration-limit";
  }
  return "?";
}

const char* to_string(RowType type) {
  switch (type) {
    case RowType::Ge: return ">=";
    case RowType::Le: return "<=";
    case RowType::Eq: return "=";
  }
  return "?";
}

std::size_t LpModel::add_variable(double lower, double upper,
                                  double objective) {
  WANPLACE_REQUIRE(lower <= upper, "variable bounds inverted");
  WANPLACE_REQUIRE(!std::isnan(lower) && !std::isnan(upper) &&
                       !std::isnan(objective),
                   "NaN in variable definition");
  lower_.push_back(lower);
  upper_.push_back(upper);
  objective_.push_back(objective);
  return lower_.size() - 1;
}

std::size_t LpModel::add_row(RowType type, double rhs,
                             const std::vector<std::size_t>& cols,
                             const std::vector<double>& coeffs,
                             std::string name) {
  WANPLACE_REQUIRE(cols.size() == coeffs.size(),
                   "row cols/coeffs arity mismatch");
  WANPLACE_REQUIRE(!std::isnan(rhs), "NaN rhs");
  for (std::size_t col : cols)
    WANPLACE_REQUIRE(col < variable_count(), "row references unknown column");
  rows_.push_back(RowSpec{type, rhs, cols, coeffs});
  row_names_.push_back(std::move(name));
  return rows_.size() - 1;
}

void LpModel::set_row(std::size_t r, double rhs,
                      const std::vector<std::size_t>& cols,
                      const std::vector<double>& coeffs) {
  WANPLACE_REQUIRE(r < row_count(), "row out of range");
  WANPLACE_REQUIRE(cols.size() == coeffs.size(),
                   "row cols/coeffs arity mismatch");
  WANPLACE_REQUIRE(!std::isnan(rhs), "NaN rhs");
  for (std::size_t col : cols)
    WANPLACE_REQUIRE(col < variable_count(), "row references unknown column");
  rows_[r].rhs = rhs;
  rows_[r].cols = cols;
  rows_[r].coeffs = coeffs;
}

void LpModel::set_bounds(std::size_t j, double lower, double upper) {
  WANPLACE_REQUIRE(j < variable_count(), "variable out of range");
  WANPLACE_REQUIRE(lower <= upper, "variable bounds inverted");
  lower_[j] = lower;
  upper_[j] = upper;
}

void LpModel::set_objective(std::size_t j, double objective) {
  WANPLACE_REQUIRE(j < variable_count(), "variable out of range");
  objective_[j] = objective;
}

SparseMatrix LpModel::columns() const {
  std::optional<Stopwatch> watch;
  if (obs::metrics_enabled()) watch.emplace();
  // Counting pass: column sizes (duplicates included), then their prefix
  // sums as each column's first slot.
  const std::size_t n = variable_count();
  std::vector<std::size_t> start(n + 1, 0);
  for (const auto& row : rows_)
    for (std::size_t c : row.cols) ++start[c + 1];
  for (std::size_t c = 0; c < n; ++c) start[c + 1] += start[c];

  // Scatter the rows in ascending order, so each column lists its rows
  // ascending; a repeat of (r, c) lands on the column's last entry and is
  // summed there, in the row's order.
  std::vector<std::size_t> row_index(start[n]);
  std::vector<double> values(start[n]);
  std::vector<std::size_t> end(start.begin(), start.end() - 1);
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const auto& row = rows_[r];
    for (std::size_t i = 0; i < row.cols.size(); ++i) {
      std::size_t& at = end[row.cols[i]];
      if (at > start[row.cols[i]] && row_index[at - 1] == r) {
        values[at - 1] += row.coeffs[i];
      } else {
        row_index[at] = r;
        values[at] = row.coeffs[i];
        ++at;
      }
    }
  }

  // Compact: close the gaps duplicates left and drop zero sums.
  std::size_t out = 0;
  for (std::size_t c = 0; c < n; ++c) {
    const std::size_t begin = start[c];
    start[c] = out;
    for (std::size_t i = begin; i < end[c]; ++i) {
      if (values[i] == 0) continue;
      row_index[out] = row_index[i];
      values[out] = values[i];
      ++out;
    }
  }
  start[n] = out;
  row_index.resize(out);
  values.resize(out);
  SparseMatrix columns(rows_.size(), std::move(start), std::move(row_index),
                       std::move(values));
  if (watch) obs::histogram_record("lp.columns_s", watch->elapsed_seconds());
  return columns;
}

SparseMatrix LpModel::matrix() const { return columns().transposed(); }

double LpModel::objective_value(const std::vector<double>& x) const {
  WANPLACE_REQUIRE(x.size() == variable_count(), "point arity mismatch");
  double total = 0;
  for (std::size_t j = 0; j < x.size(); ++j) total += objective_[j] * x[j];
  return total;
}

double certified_dual_bound(const LpModel& model,
                            const std::vector<double>& y) {
  WANPLACE_REQUIRE(y.size() == model.row_count(), "dual arity mismatch");
  // Clamp duals to the sign their row type requires so the Lagrangian is a
  // valid relaxation no matter where y came from.
  std::vector<double> yc(y);
  for (std::size_t r = 0; r < yc.size(); ++r) {
    if (std::isnan(yc[r])) yc[r] = 0;
    switch (model.row(r).type) {
      case RowType::Ge: yc[r] = std::max(0.0, yc[r]); break;
      case RowType::Le: yc[r] = std::min(0.0, yc[r]); break;
      case RowType::Eq: break;
    }
  }
  // reduced = c - A^T yc
  std::vector<double> reduced(model.variable_count());
  for (std::size_t j = 0; j < reduced.size(); ++j)
    reduced[j] = model.objective(j);
  double bound = 0;
  for (std::size_t r = 0; r < model.row_count(); ++r) {
    const auto& row = model.row(r);
    bound += yc[r] * row.rhs;
    if (yc[r] == 0) continue;
    for (std::size_t i = 0; i < row.cols.size(); ++i)
      reduced[row.cols[i]] -= yc[r] * row.coeffs[i];
  }
  // Inner minimization over the variable box.
  for (std::size_t j = 0; j < reduced.size(); ++j) {
    const double rj = reduced[j];
    if (rj > 0) {
      const double lo = model.lower(j);
      if (lo == -kInfinity) return -kInfinity;
      bound += rj * lo;
    } else if (rj < 0) {
      const double up = model.upper(j);
      if (up == kInfinity) return -kInfinity;
      bound += rj * up;
    }
  }
  return bound;
}

double LpModel::max_violation(const std::vector<double>& x) const {
  WANPLACE_REQUIRE(x.size() == variable_count(), "point arity mismatch");
  double worst = 0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    worst = std::max(worst, lower_[j] - x[j]);
    worst = std::max(worst, x[j] - upper_[j]);
  }
  for (const auto& row : rows_) {
    double lhs = 0;
    for (std::size_t i = 0; i < row.cols.size(); ++i)
      lhs += row.coeffs[i] * x[row.cols[i]];
    const double scale = 1 + std::abs(row.rhs);
    switch (row.type) {
      case RowType::Ge: worst = std::max(worst, (row.rhs - lhs) / scale); break;
      case RowType::Le: worst = std::max(worst, (lhs - row.rhs) / scale); break;
      case RowType::Eq:
        worst = std::max(worst, std::abs(lhs - row.rhs) / scale);
        break;
    }
  }
  return worst;
}

}  // namespace wanplace::lp
