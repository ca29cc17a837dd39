#include "lp/pdhg.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "lp/scaling.h"
#include "lp/sparse.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/log.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace wanplace::lp {

namespace {

/// Consider a restart (to the better of the current and the averaged
/// iterate, with a primal-weight update) every this many iterations.
constexpr std::size_t kRestartPeriod = 500;

/// Canonical form: min c^T x  s.t.  K x >= q (ineq rows) / K x = q (eq
/// rows), lo <= x <= up. Le rows of the source model are negated into Ge.
struct Canonical {
  SparseMatrix matrix;          // scaled K
  std::vector<double> rhs;      // scaled q
  std::vector<char> is_eq;      // per-row: equality?
  std::vector<double> cost;     // scaled c
  std::vector<double> lower;    // scaled bounds
  std::vector<double> upper;
  std::vector<double> row_scale;  // Ruiz factors (for unscaling duals)
  std::vector<double> col_scale;
  std::vector<char> negated;      // original row was Le
};

Canonical canonicalize(const LpModel& model) {
  const std::size_t rows = model.row_count();
  const std::size_t cols = model.variable_count();

  Canonical canon;
  canon.matrix = model.matrix();
  canon.rhs.resize(rows);
  canon.is_eq.resize(rows);
  canon.negated.resize(rows);
  std::vector<double> sign(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto& row = model.row(r);
    sign[r] = row.type == RowType::Le ? -1.0 : 1.0;
    canon.negated[r] = row.type == RowType::Le;
    canon.is_eq[r] = row.type == RowType::Eq;
    canon.rhs[r] = sign[r] * row.rhs;
  }

  // Ruiz reads only magnitudes, so it runs on A before the Le rows are
  // negated; negation is exact, so scaling by sign x row_scale is
  // bit-identical to scaling the negated rows.
  const ScalingResult scaling = ruiz_scaling(canon.matrix);
  canon.row_scale = scaling.row_scale;
  canon.col_scale = scaling.col_scale;
  for (std::size_t r = 0; r < rows; ++r) {
    canon.rhs[r] *= scaling.row_scale[r];
    sign[r] *= scaling.row_scale[r];
  }
  canon.matrix.scale(sign, scaling.col_scale);

  canon.cost.resize(cols);
  canon.lower.resize(cols);
  canon.upper.resize(cols);
  for (std::size_t j = 0; j < cols; ++j) {
    canon.cost[j] = model.objective(j) * scaling.col_scale[j];
    // x = col_scale * x_hat  =>  x_hat bounds divide by col_scale (> 0).
    canon.lower[j] = model.lower(j) / scaling.col_scale[j];
    canon.upper[j] = model.upper(j) / scaling.col_scale[j];
  }
  return canon;
}

/// Map a scaled dual iterate back to original-model row duals with the sign
/// convention of LpSolution (Ge >= 0, Le <= 0, Eq free).
std::vector<double> unscale_duals(const Canonical& canon,
                                  const std::vector<double>& y_hat) {
  std::vector<double> y(y_hat.size());
  for (std::size_t r = 0; r < y.size(); ++r) {
    const double orig = y_hat[r] * canon.row_scale[r];
    y[r] = canon.negated[r] ? -orig : orig;
  }
  return y;
}

std::vector<double> unscale_primal(const LpModel& model,
                                   const Canonical& canon,
                                   const std::vector<double>& x_hat) {
  std::vector<double> x(x_hat.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    x[j] = x_hat[j] * canon.col_scale[j];
    x[j] = std::clamp(x[j], model.lower(j), model.upper(j));
  }
  return x;
}

double norm2(const std::vector<double>& v) {
  double sum = 0;
  for (double e : v) sum += e * e;
  return std::sqrt(sum);
}

struct Candidate {
  double merit = kInfinity;
  double objective = 0;
  double bound = -kInfinity;
  double violation = kInfinity;  // max primal constraint violation
  double gap = kInfinity;        // relative primal-dual gap
  std::vector<double> x;  // original space
  std::vector<double> y;  // original space
};

}  // namespace

LpSolution solve_pdhg(const LpModel& model, const PdhgOptions& options) {
  WANPLACE_REQUIRE(model.variable_count() > 0, "empty model");
  Stopwatch watch;
  obs::Span span("pdhg");
  std::size_t restarts = 0;
  LpSolution solution;

  const std::size_t rows = model.row_count();
  const std::size_t cols = model.variable_count();

  if (rows == 0) {
    // Pure box problem: each variable sits at its cheaper bound, a
    // zero-cost one at 0 clamped into its box. A nonzero cost toward an
    // infinite bound makes the LP unbounded; the empty dual certifies
    // -infinity then, and the objective value otherwise.
    solution.x.resize(cols);
    solution.status = SolveStatus::Optimal;
    for (std::size_t j = 0; j < cols; ++j) {
      const double c = model.objective(j);
      const double cheaper = c > 0 ? model.lower(j) : model.upper(j);
      if (c == 0 || !std::isfinite(cheaper)) {
        solution.x[j] = std::clamp(0.0, model.lower(j), model.upper(j));
        if (c != 0) solution.status = SolveStatus::Unbounded;
      } else {
        solution.x[j] = cheaper;
      }
    }
    solution.objective = model.objective_value(solution.x);
    solution.dual_bound = certified_dual_bound(model, solution.y);
    solution.solve_seconds = watch.elapsed_seconds();
    return solution;
  }

  Canonical canon = canonicalize(model);
  const double norm = std::max(canon.matrix.spectral_norm_estimate(), 1e-12);

  // Parallel matvec pair for large models: K x runs row-blocked on K, and
  // K^T y runs row-blocked on a materialized transpose whose gather order
  // (and zero-skipping) reproduces the serial scatter bit-for-bit. The
  // knob therefore changes wall-clock only, never iterates or bounds.
  const std::size_t parallelism =
      options.parallelism == 0 ? util::ThreadPool::default_parallelism()
                               : options.parallelism;
  const bool use_pool = parallelism > 1 &&
                        canon.matrix.nonzeros() >= options.parallel_nnz_threshold;
  std::unique_ptr<util::ThreadPool> pool;
  SparseMatrix transpose;
  if (use_pool) {
    pool = std::make_unique<util::ThreadPool>(parallelism);
    transpose = canon.matrix.transposed();
  }
  auto apply_k = [&](const std::vector<double>& in,
                     std::vector<double>& out_v) {
    if (use_pool)
      canon.matrix.multiply_blocked(in, out_v, *pool, parallelism);
    else
      canon.matrix.multiply(in, out_v);
  };
  auto apply_kt = [&](const std::vector<double>& in,
                      std::vector<double>& out_v) {
    if (use_pool)
      transpose.multiply_blocked(in, out_v, *pool, parallelism,
                                 /*skip_zero_inputs=*/true);
    else
      canon.matrix.multiply_transpose(in, out_v);
  };

  // Primal weight: balances primal/dual step sizes (PDLP heuristic).
  double weight = 1.0;
  {
    const double cost_norm = norm2(canon.cost);
    const double rhs_norm = norm2(canon.rhs);
    if (cost_norm > 1e-12 && rhs_norm > 1e-12) weight = cost_norm / rhs_norm;
  }

  // Cold start: every variable at its nearest finite bound (the origin
  // when free), every dual at zero.
  std::vector<double> x(cols), y(rows, 0.0);
  for (std::size_t j = 0; j < cols; ++j) {
    const double lo = canon.lower[j], up = canon.upper[j];
    x[j] = std::isfinite(lo) ? lo : (std::isfinite(up) ? up : 0.0);
  }

  std::vector<double> sum_x(cols, 0.0), sum_y(rows, 0.0);
  std::size_t epoch_len = 0;
  std::vector<double> epoch_x0 = x, epoch_y0 = y;

  std::vector<double> kty(cols), kx(rows), extrapolated(cols);

  Candidate best;
  double best_bound = -kInfinity;
  std::size_t iteration = 0;

  auto evaluate = [&](const std::vector<double>& x_hat,
                      const std::vector<double>& y_hat) {
    Candidate cand;
    cand.x = unscale_primal(model, canon, x_hat);
    cand.y = unscale_duals(canon, y_hat);
    cand.objective = model.objective_value(cand.x);
    cand.bound = certified_dual_bound(model, cand.y);
    cand.violation = model.max_violation(cand.x);
    cand.gap = std::abs(cand.objective - cand.bound) /
               (1 + std::abs(cand.objective) + std::abs(cand.bound));
    cand.merit = std::max(cand.violation, cand.gap);
    return cand;
  };

  const double step = 0.9 / norm;
  auto tau = [&] { return step / weight; };
  auto sigma = [&] { return step * weight; };

  SolveStatus status = SolveStatus::IterationLimit;
  for (; iteration < options.max_iterations; ++iteration) {
    // x^{k+1} = clamp(x - tau (c - K^T y))
    apply_kt(y, kty);
    for (std::size_t j = 0; j < cols; ++j) {
      double next = x[j] - tau() * (canon.cost[j] - kty[j]);
      next = std::clamp(next, canon.lower[j], canon.upper[j]);
      extrapolated[j] = 2 * next - x[j];
      x[j] = next;
    }
    // y^{k+1} = proj(y + sigma (q - K (2x^{k+1} - x^k)))
    apply_k(extrapolated, kx);
    for (std::size_t r = 0; r < rows; ++r) {
      double next = y[r] + sigma() * (canon.rhs[r] - kx[r]);
      if (!canon.is_eq[r]) next = std::max(0.0, next);
      y[r] = next;
    }

    for (std::size_t j = 0; j < cols; ++j) sum_x[j] += x[j];
    for (std::size_t r = 0; r < rows; ++r) sum_y[r] += y[r];
    ++epoch_len;

    const bool check = (iteration + 1) % options.check_period == 0;
    if (!check) continue;

    std::vector<double> avg_x(cols), avg_y(rows);
    for (std::size_t j = 0; j < cols; ++j) avg_x[j] = sum_x[j] / epoch_len;
    for (std::size_t r = 0; r < rows; ++r) avg_y[r] = sum_y[r] / epoch_len;

    Candidate current = evaluate(x, y);
    Candidate average = evaluate(avg_x, avg_y);
    best_bound = std::max({best_bound, current.bound, average.bound});
    const Candidate& better =
        average.merit <= current.merit ? average : current;
    if (better.merit < best.merit) best = better;

    // Residual curves per check interval (x axis: iteration count).
    if (obs::trace_enabled()) {
      const double at = static_cast<double>(iteration + 1);
      obs::trace_sample("pdhg.primal_residual", at, better.violation);
      obs::trace_sample("pdhg.gap", at, better.gap);
      obs::trace_sample("pdhg.dual_bound", at, best_bound);
    }

    if (best.merit <= options.tolerance) {
      status = SolveStatus::Optimal;
      break;
    }
    if (best_bound > options.infeasibility_threshold) {
      status = SolveStatus::Infeasible;
      break;
    }

    // Restart at the better point; adapt the primal weight to observed
    // movement (light-weight version of PDLP's update).
    if ((iteration + 1) % kRestartPeriod == 0) {
      const std::vector<double>& rx =
          average.merit <= current.merit ? avg_x : x;
      const std::vector<double>& ry =
          average.merit <= current.merit ? avg_y : y;
      std::vector<double> dx(cols), dy(rows);
      for (std::size_t j = 0; j < cols; ++j) dx[j] = rx[j] - epoch_x0[j];
      for (std::size_t r = 0; r < rows; ++r) dy[r] = ry[r] - epoch_y0[r];
      const double move_x = norm2(dx), move_y = norm2(dy);
      if (move_x > 1e-10 && move_y > 1e-10) {
        const double target = move_y / move_x;
        weight = std::exp(0.5 * std::log(target) + 0.5 * std::log(weight));
        weight = std::clamp(weight, 1e-4, 1e4);
      }
      x = rx;
      y = ry;
      epoch_x0 = x;
      epoch_y0 = y;
      std::fill(sum_x.begin(), sum_x.end(), 0.0);
      std::fill(sum_y.begin(), sum_y.end(), 0.0);
      epoch_len = 0;
      ++restarts;
    }
  }

  if (best.x.empty()) {
    // No check point hit (tiny iteration budget): evaluate final iterates.
    best = evaluate(x, y);
    best_bound = std::max(best_bound, best.bound);
  }

  solution.status = status;
  solution.x = std::move(best.x);
  solution.y = std::move(best.y);
  solution.objective = best.objective;
  solution.dual_bound = best_bound;
  solution.iterations = iteration;
  solution.solve_seconds = watch.elapsed_seconds();
  if (span.active()) {
    span.attr("rows", static_cast<double>(rows));
    span.attr("cols", static_cast<double>(cols));
    span.attr("iterations", static_cast<double>(solution.iterations));
    span.attr("restarts", static_cast<double>(restarts));
  }
  if (obs::metrics_enabled()) {
    obs::counter_add("pdhg.solves");
    obs::counter_add("pdhg.iterations",
                     static_cast<double>(solution.iterations));
    obs::counter_add("pdhg.restarts", static_cast<double>(restarts));
    obs::histogram_record("pdhg.solve_seconds", solution.solve_seconds);
  }
  log_debug("pdhg: ", to_string(solution.status), " obj=", solution.objective,
            " bound=", solution.dual_bound, " iters=", solution.iterations,
            " time=", solution.solve_seconds, "s");
  return solution;
}

}  // namespace wanplace::lp
