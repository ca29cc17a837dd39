// LP model container shared by both solvers.
//
//   minimize    c^T x
//   subject to  row_i: a_i^T x  (>=|=|<=)  rhs_i      for every row
//               lo_j <= x_j <= up_j                   for every variable
//
// Models are assembled incrementally (add_variable / add_row) and
// compressed on demand, without a sort: columns() runs one counting pass
// over the rows into the column view the simplex walks, and matrix() is its
// counting transpose, the row view PDHG uses. Row names are optional and
// used only for diagnostics (the sensitivity report names QoS rows by them).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "lp/sparse.h"

namespace wanplace::lp {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class RowType { Ge, Le, Eq };

/// Outcome of a solve.
enum class SolveStatus {
  Optimal,         // converged within tolerance
  Infeasible,      // no feasible point exists
  Unbounded,       // objective decreases without limit
  IterationLimit   // stopped early; bounds still valid where certified
};

const char* to_string(SolveStatus status);
const char* to_string(RowType type);

/// A single linear constraint under assembly.
struct RowSpec {
  RowType type = RowType::Ge;
  double rhs = 0;
  std::vector<std::size_t> cols;
  std::vector<double> coeffs;
};

class LpModel {
 public:
  /// Add a variable with bounds and objective coefficient; returns its index.
  std::size_t add_variable(double lower, double upper, double objective);

  /// Add a constraint row; returns its index. Column indices must reference
  /// existing variables; duplicated columns are summed.
  std::size_t add_row(RowType type, double rhs,
                      const std::vector<std::size_t>& cols,
                      const std::vector<double>& coeffs,
                      std::string name = {});

  std::size_t variable_count() const { return lower_.size(); }
  std::size_t row_count() const { return rows_.size(); }

  double lower(std::size_t j) const { return lower_[j]; }
  double upper(std::size_t j) const { return upper_[j]; }
  double objective(std::size_t j) const { return objective_[j]; }
  const RowSpec& row(std::size_t r) const { return rows_[r]; }
  const std::string& row_name(std::size_t r) const { return row_names_[r]; }

  /// Tighten variable bounds after creation (used for class constraints that
  /// reduce to variable fixing). Keeps lower <= upper.
  void set_bounds(std::size_t j, double lower, double upper);

  /// Fix a variable to a value.
  void fix_variable(std::size_t j, double value) {
    set_bounds(j, value, value);
  }

  /// Change the objective coefficient of a variable.
  void set_objective(std::size_t j, double objective);

  /// Replace the right-hand side and coefficients of an existing row in
  /// place, keeping its type and name — the model-delta API used by
  /// `mcperf::apply_delta` to renormalize QoS/coverage rows under demand
  /// drift without a rebuild. An empty column list makes the row vacuous.
  void set_row(std::size_t r, double rhs, const std::vector<std::size_t>& cols,
               const std::vector<double>& coeffs);

  /// A^T in CSR form: row j lists column j of A as (row, coefficient),
  /// rows ascending. Repeated columns within a row are summed in the row's
  /// order and zero sums dropped. One counting pass over the rows; timed
  /// as the `lp.columns_s` histogram while metrics are on.
  SparseMatrix columns() const;

  /// A in CSR form (rows in insertion order, columns ascending within each
  /// row): the transpose of columns().
  SparseMatrix matrix() const;

  /// Objective value of a point (no feasibility check).
  double objective_value(const std::vector<double>& x) const;

  /// Maximum relative constraint violation + bound violation of a point.
  double max_violation(const std::vector<double>& x) const;

 private:
  std::vector<double> lower_, upper_, objective_;
  std::vector<RowSpec> rows_;
  std::vector<std::string> row_names_;
};

/// A simplex basis frozen at the end of a solve, importable into a later
/// solve of a model with the same shape (variable_count x row_count) but
/// possibly different bounds, objective or right-hand sides — the warm-start
/// currency of the re-optimization engine. The snapshot names, per basis
/// position, which column occupies it, plus the bound status of every
/// structural and slack column; basic phase-1 artificials (possible when the
/// exporting solve stopped at its iteration limit) are recorded with the
/// `kArtificialBasic` sentinel and re-imported as that row's artificial
/// pinned to [0, 0].
struct BasisSnapshot {
  /// Sentinel in `basis`: position occupied by the row's artificial.
  static constexpr std::uint32_t kArtificialBasic = 0xFFFFFFFFu;
  /// Column status codes in `status` (mirrors the solver's internal enum).
  enum Status : std::uint8_t { Basic = 0, AtLower = 1, AtUpper = 2, Free = 3 };

  std::size_t variables = 0;  // structural column count of the source model
  std::size_t rows = 0;       // row count of the source model
  /// Status per column: `variables` structurals then `rows` slacks.
  std::vector<std::uint8_t> status;
  /// For each basis position p in [0, rows): the occupying column (< variables
  /// structural, else slack for row j - variables), or kArtificialBasic.
  std::vector<std::uint32_t> basis;

  bool empty() const { return basis.empty(); }
  /// Shape check against a target model's dimensions.
  bool compatible(std::size_t n, std::size_t m) const {
    return variables == n && rows == m && status.size() == n + m &&
           basis.size() == m;
  }
};

/// Result of a solve. `dual_bound` is a weak-duality certificate: a value
/// proven <= the optimal objective (for minimization), valid even when the
/// solver stopped before convergence.
struct LpSolution {
  SolveStatus status = SolveStatus::IterationLimit;
  double objective = 0;
  double dual_bound = -kInfinity;
  std::vector<double> x;
  std::vector<double> y;  // row duals (>=0 for Ge, <=0 for Le, free for Eq)
  std::size_t iterations = 0;
  /// Simplex only: basis rebuilds after the initial factorization (drift
  /// guards, fill guards, period expiry, optimality certification).
  std::size_t refactorizations = 0;
  double solve_seconds = 0;
  /// Simplex only: the final basis, exported whenever the solve produced a
  /// basic solution (Optimal or IterationLimit). Feed to
  /// SimplexOptions::warm_start to re-optimize a perturbed model.
  BasisSnapshot basis;
};

/// Weak-duality certificate: for ANY vector y (clamped to the correct sign
/// per row type), returns a value provably <= min c^T x over the feasible
/// region. This is what makes approximate dual iterates usable as rigorous
/// lower bounds. Returns -infinity if an unbounded variable makes the inner
/// minimization diverge for this y.
double certified_dual_bound(const LpModel& model, const std::vector<double>& y);

}  // namespace wanplace::lp
