#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <vector>

#include "lp/lu.h"
#include "lp/sparse.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace wanplace::lp {

namespace {

constexpr double kInf = kInfinity;

// Smallest pivot element either loop lets through its ratio test, and the
// Forrest–Tomlin update's own acceptance threshold.
constexpr double kPivotTol = 1e-9;

// Relative disagreement between the FTRAN'd pivot element and its
// independently BTRAN'd value (rho^T A_q) that forces a refactorization
// before the pivot is committed. Loose enough that healthy update files
// never trip it; drift severe enough to corrupt the basis shows up orders
// of magnitude above this.
constexpr double kPivotAgreementTol = 1e-5;

enum class VarStatus : unsigned char { Basic, AtLower, AtUpper, FreeZero };

/// Column views of [A | slacks | artificials]: structural columns as the
/// model's column view (row j = column j of A), slack and artificial
/// columns synthesized on the fly.
struct Columns {
  SparseMatrix structural;
  std::size_t n = 0;  // structural count
  std::size_t m = 0;  // row count
  std::vector<double> art_sign;  // per-row artificial coefficient (+1/-1)

  // Iterate column j (structural, slack or artificial) as (row, value).
  template <typename Fn>
  void for_column(std::size_t j, Fn&& fn) const {
    if (j < n) {
      structural.for_row(j, fn);
    } else if (j < n + m) {
      fn(j - n, 1.0);  // slack
    } else {
      fn(j - n - m, art_sign[j - n - m]);  // artificial
    }
  }

  // Dot of column j with a dense row-indexed vector.
  double dot(std::size_t j, const std::vector<double>& v) const {
    if (j < n) return structural.row_dot(j, v);
    if (j < n + m) return v[j - n];
    return v[j - n - m] * art_sign[j - n - m];
  }
};

class Simplex {
 public:
  Simplex(const LpModel& model, const SimplexOptions& options)
      : model_(model), options_(options) {}

  LpSolution run() {
    obs::Span span("simplex");
    build_columns();
    reset_state();
    Stopwatch watch;
    LpSolution solution;
    solution.status = options_.method == SimplexOptions::Method::Dual
                          ? run_dual()
                          : run_primal();
    // An infeasible model has no point or duals worth reporting.
    if (solution.status != SolveStatus::Infeasible) fill_solution(solution);
    solution.iterations = iterations_;
    solution.refactorizations = refactorizations_;
    solution.solve_seconds = watch.elapsed_seconds();
    if (span.active()) {
      span.attr("rows", static_cast<double>(m_));
      span.attr("cols", static_cast<double>(cols_.n));
      span.attr("iterations", static_cast<double>(iterations_));
      span.attr("refactorizations", static_cast<double>(refactorizations_));
    }
    publish_metrics(solution);
    return solution;
  }

 private:
  /// The two-phase primal method. A warm start is only usable when the
  /// imported point already satisfies the bounds — phase 1 cannot price
  /// basic infeasibility; the dual method exists for the infeasible-start
  /// case.
  SolveStatus run_primal() {
    if (import_warm_start()) {
      set_phase_costs(/*phase1=*/false);
      if (primal_feasible()) {
        count_warm_accepted();
        return run_phase(Phase::Two);
      }
      ++warm_infeasible_;
      reset_state();  // infeasible warm point: restart cold from scratch
    }
    return run_cold_phases();
  }

  SolveStatus run_cold_phases() {
    factorize_cold_basis();
    // Phase 1: drive artificial infeasibility to zero.
    set_phase_costs(/*phase1=*/true);
    if (run_phase(Phase::One) == SolveStatus::IterationLimit)
      return SolveStatus::IterationLimit;
    // Phase 1 stopped short of feasibility. Its pricing tolerance is not
    // scaled to the columns, so only a dual bound proves infeasibility.
    if (phase_objective() > feasibility_tol())
      return phase1_dual_bound() > feasibility_tol()
                 ? SolveStatus::Infeasible
                 : SolveStatus::IterationLimit;
    pin_artificials();
    set_phase_costs(/*phase1=*/false);
    return run_phase(Phase::Two);
  }

  /// Weak-duality lower bound on the phase-1 objective (the least total
  /// artificial infeasibility of any point) from the current phase-1
  /// duals: y^T b plus every column's reduced cost at its cheaper bound. A
  /// reduced cost within the pricing tolerance scaled by the column's
  /// largest |entry| counts as zero; any other toward an infinite bound
  /// makes the bound -infinity.
  double phase1_dual_bound() const {
    std::vector<double> y;
    compute_duals(y);
    double bound = 0;
    for (std::size_t r = 0; r < m_; ++r) bound += y[r] * rhs_[r];
    for (std::size_t j = 0; j < total_columns(); ++j) {
      double d = cost_[j], scale = 0;
      cols_.for_column(j, [&](std::size_t r, double v) {
        d -= y[r] * v;
        scale = std::max(scale, std::abs(v));
      });
      if (std::abs(d) <= options_.tolerance * scale) continue;
      const double at = d > 0 ? lower_[j] : upper_[j];
      if (!std::isfinite(at)) return -kInf;
      bound += d * at;
    }
    return bound;
  }

  /// Pin every artificial to [0, 0]. Nonbasic artificials go to the bound;
  /// a basic one keeps its (now out-of-bounds) value for the dual method,
  /// or is already zero after a clean primal phase 1.
  void pin_artificials() {
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t j = cols_.n + m_ + r;
      lower_[j] = upper_[j] = 0;
      if (status_[j] != VarStatus::Basic) {
        x_[j] = 0;
        status_[j] = VarStatus::AtLower;
      }
    }
  }

  /// Dual simplex driver: warm basis if supplied (else the cold slack
  /// basis with artificials pinned), dual-feasibility repair (bound flips,
  /// with cost shifts covering one-sided columns — repair always
  /// succeeds, see refresh_incremental_state), then the dual iteration.
  /// When shifts were needed, a warm primal phase 2 under the true costs
  /// closes the perturbation gap. A terminal stall still falls back to the
  /// cold two-phase primal, so callers never observe a wrong answer from
  /// choosing Method::Dual.
  SolveStatus run_dual() {
    ++dual_solves_;
    if (import_warm_start()) {
      count_warm_accepted();
    } else {
      factorize_cold_basis();
      pin_artificials();
    }
    set_phase_costs(/*phase1=*/false);
    const SolveStatus status = run_phase(Phase::Dual);
    if (dual_abort_) {
      ++dual_fallbacks_;
      reset_state();
      return run_cold_phases();
    }
    if (!dual_shifted_ || status != SolveStatus::Optimal) return status;
    // The dual phase optimized shifted costs, so its end point is primal
    // feasible but possibly not optimal for the true objective: restore
    // the true costs and let a warm primal phase 2 close the gap.
    set_phase_costs(/*phase1=*/false);
    return run_phase(Phase::Two);
  }

  enum class Phase { One, Two, Dual };

  /// Run one phase's loop (the primal for One and Two, the dual for Dual)
  /// from a clean slate: no stall history, out of Bland mode, and the
  /// incremental state refreshed from the current factors.
  SolveStatus run_phase(Phase phase) {
    static constexpr const char* kSpanNames[] = {"phase1", "phase2", "dual"};
    obs::Span span(kSpanNames[static_cast<std::size_t>(phase)]);
    const std::size_t iters_before = iterations_;
    dual_mode_ = phase == Phase::Dual;
    stall_count_ = 0;
    bland_ = false;
    pivots_since_refactor_ = 0;
    refresh_incremental_state();
    last_objective_ = objective_;
    const SolveStatus status = dual_mode_ ? iterate_dual() : iterate();
    if (span.active())
      span.attr("iterations", static_cast<double>(iterations_ - iters_before));
    return status;
  }

  /// Why a refactorization was triggered. Tracked as plain per-cause
  /// counters (telemetry observes the solve; it never branches it) and
  /// published to the metrics registry in bulk when the solve finishes.
  enum class RefactorCause : std::size_t {
    Certify,           // re-price on fresh duals before declaring optimality
    Drift,             // stability guard: suspiciously small FTRAN'd pivot
    Agreement,         // FTRAN'd vs BTRAN'd pivot element mismatch
    FtRefused,         // Forrest-Tomlin update rejected by its own guard
    Period,            // refactor period expired
    Fill,              // FT fill guard (factor + R-file grew too dense)
    SingularRollback,  // basis found singular; rolled back to a factorized one
    Bland,             // entering Bland mode wants exact reduced costs
    Verify,            // replaying pivots one by one after a rollback
    kCount
  };

  /// Count the cause and sample the update-file state the trigger saw.
  void note_refactor(RefactorCause cause) {
    ++refactor_cause_[static_cast<std::size_t>(cause)];
    if (obs::metrics_enabled())
      obs::histogram_record("lu.r_file_len",
                            static_cast<double>(lu_.r_nonzeros()));
  }

  /// A singular basis was found: the recovery's factorization counts as
  /// one more refactorization, with the rollback as its cause.
  void note_rollback() {
    ++refactorizations_;
    ++refactor_cause_[static_cast<std::size_t>(
        RefactorCause::SingularRollback)];
  }

  void publish_metrics(const LpSolution& solution) const {
    if (!obs::metrics_enabled()) return;
    obs::counter_add("simplex.solves");
    obs::counter_add("simplex.iterations", static_cast<double>(iterations_));
    obs::counter_add("simplex.refactorizations",
                     static_cast<double>(refactorizations_));
    static constexpr const char* kCauseNames[] = {
        "simplex.refactor.certify",    "simplex.refactor.drift",
        "simplex.refactor.agreement",  "simplex.refactor.ft_refused",
        "simplex.refactor.period",     "simplex.refactor.fill",
        "simplex.refactor.singular_rollback", "simplex.refactor.bland",
        "simplex.refactor.verify"};
    static_assert(std::size(kCauseNames) ==
                  static_cast<std::size_t>(RefactorCause::kCount));
    for (std::size_t c = 0; c < std::size(kCauseNames); ++c)
      if (refactor_cause_[c] > 0)
        obs::counter_add(kCauseNames[c],
                         static_cast<double>(refactor_cause_[c]));
    obs::counter_add("simplex.degenerate_pivots",
                     static_cast<double>(degenerate_pivots_));
    if (degenerate_streak_max_ > 0)
      obs::histogram_record("simplex.degenerate_streak",
                            static_cast<double>(degenerate_streak_max_));
    obs::counter_add("simplex.devex_resets",
                     static_cast<double>(devex_resets_));
    obs::counter_add("simplex.bound_flips",
                     static_cast<double>(bound_flips_));
    if (warm_attempts_ > 0)
      obs::counter_add("simplex.warm.attempts",
                       static_cast<double>(warm_attempts_));
    if (warm_accepted_ > 0)
      obs::counter_add("simplex.warm.accepted",
                       static_cast<double>(warm_accepted_));
    if (warm_shape_ > 0)
      obs::counter_add("simplex.warm.shape", static_cast<double>(warm_shape_));
    if (warm_singular_ > 0)
      obs::counter_add("simplex.warm.singular",
                       static_cast<double>(warm_singular_));
    if (warm_repaired_ > 0)
      obs::counter_add("simplex.warm.repaired",
                       static_cast<double>(warm_repaired_));
    if (warm_infeasible_ > 0)
      obs::counter_add("simplex.warm.infeasible",
                       static_cast<double>(warm_infeasible_));
    if (dual_solves_ > 0)
      obs::counter_add("simplex.dual.solves",
                       static_cast<double>(dual_solves_));
    if (dual_fallbacks_ > 0)
      obs::counter_add("simplex.dual.fallbacks",
                       static_cast<double>(dual_fallbacks_));
    if (feasibility_lost_ > 0)
      obs::counter_add("simplex.feasibility_lost",
                       static_cast<double>(feasibility_lost_));
    if (dual_repair_flips_ > 0)
      obs::counter_add("simplex.dual.repair_flips",
                       static_cast<double>(dual_repair_flips_));
    if (dual_cost_shifts_ > 0)
      obs::counter_add("simplex.dual.cost_shifts",
                       static_cast<double>(dual_cost_shifts_));
    if (ftran_sparse_ > 0)
      obs::counter_add("simplex.ftran.sparse",
                       static_cast<double>(ftran_sparse_));
    if (ftran_dense_ > 0)
      obs::counter_add("simplex.ftran.dense",
                       static_cast<double>(ftran_dense_));
    if (btran_sparse_ > 0)
      obs::counter_add("simplex.btran.sparse",
                       static_cast<double>(btran_sparse_));
    if (btran_dense_ > 0)
      obs::counter_add("simplex.btran.dense",
                       static_cast<double>(btran_dense_));
    obs::histogram_record("simplex.solve_seconds", solution.solve_seconds);
  }

  std::size_t total_columns() const { return cols_.n + 2 * m_; }

  double feasibility_tol() const {
    return options_.tolerance * 10 * (1 + rhs_scale_);
  }

  std::size_t effective_refactor_period() const {
    return options_.refactor_period > 0 ? options_.refactor_period : 4096;
  }

  /// Refactor policy after a basis change (`updated` says whether the
  /// Forrest–Tomlin update was accepted). Returns true, with the cause,
  /// when the basis must be refactorized now. The fill guard: updates add
  /// spike + elimination fill that only a fresh factorization
  /// re-compresses; the +64 floor keeps tiny bases from refactorizing on
  /// noise.
  bool refactor_due(bool updated, RefactorCause& cause) {
    if (!updated) {
      cause = RefactorCause::FtRefused;
      return true;
    }
    if (verify_pivots_ > 0) {
      --verify_pivots_;
      cause = RefactorCause::Verify;
      return true;
    }
    if (pivots_since_refactor_ >= effective_refactor_period()) {
      cause = RefactorCause::Period;
      return true;
    }
    cause = RefactorCause::Fill;
    return lu_.factor_nonzeros() + lu_.r_nonzeros() >
           options_.ft_fill_factor * lu_.baseline_nonzeros() + 64;
  }

  /// Structural columns: the model's column view. The matrix never
  /// changes during a solve, so this runs once, in run().
  void build_columns() {
    m_ = model_.row_count();
    cols_.n = model_.variable_count();
    cols_.m = m_;
    cols_.structural = model_.columns();
  }

  /// Cold-start state over the columns build_columns() set up: bounds,
  /// the structural start point, the slack/artificial basis and fresh
  /// Devex weights. Every restart (failed warm import, infeasible warm
  /// point, dual abort) comes back here.
  void reset_state() {
    const std::size_t n = cols_.n;

    // Bounds: structural, then slack, then artificial.
    const std::size_t total = total_columns();
    lower_.assign(total, 0);
    upper_.assign(total, 0);
    x_.assign(total, 0);
    status_.assign(total, VarStatus::AtLower);
    for (std::size_t j = 0; j < n; ++j) {
      lower_[j] = model_.lower(j);
      upper_[j] = model_.upper(j);
    }
    rhs_.resize(m_);
    rhs_scale_ = 0;
    for (std::size_t r = 0; r < m_; ++r) {
      rhs_[r] = model_.row(r).rhs;
      rhs_scale_ = std::max(rhs_scale_, std::abs(rhs_[r]));
      const std::size_t s = n + r;
      switch (model_.row(r).type) {
        case RowType::Ge:
          lower_[s] = -kInf;
          upper_[s] = 0;
          break;
        case RowType::Le:
          lower_[s] = 0;
          upper_[s] = kInf;
          break;
        case RowType::Eq:
          lower_[s] = upper_[s] = 0;
          break;
      }
    }

    // Dynamic Devex: every column starts in the reference framework with
    // weight 1; weights then grow from pivot-row updates and the frame
    // resets when they drift past the threshold.
    devex_weight_.assign(total, 1.0);
    devex_wmax_ub_ = 1.0;
    d_.assign(total, 0.0);

    // Nonbasic structural variables start at their bound nearest zero.
    for (std::size_t j = 0; j < n; ++j) {
      if (lower_[j] > -kInf) {
        x_[j] = lower_[j];
        status_[j] = VarStatus::AtLower;
      } else if (upper_[j] < kInf) {
        x_[j] = upper_[j];
        status_[j] = VarStatus::AtUpper;
      } else {
        x_[j] = 0;
        status_[j] = VarStatus::FreeZero;
      }
    }

    // Row activities of the structural start point.
    std::vector<double> activity(m_, 0);
    for (std::size_t j = 0; j < n; ++j) {
      if (x_[j] == 0) continue;
      cols_.structural.for_row(
          j, [&](std::size_t r, double v) { activity[r] += v * x_[j]; });
    }

    // Initial basis: slack where it absorbs the residual, artificial where
    // the slack bounds cannot.
    basis_.resize(m_);
    cols_.art_sign.assign(m_, 1.0);
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t s = n + r;
      const std::size_t a = n + m_ + r;
      const double need = rhs_[r] - activity[r];
      if (need >= lower_[s] - options_.tolerance &&
          need <= upper_[s] + options_.tolerance) {
        x_[s] = need;
        status_[s] = VarStatus::Basic;
        basis_[r] = s;
        lower_[a] = upper_[a] = 0;
        status_[a] = VarStatus::AtLower;
      } else {
        const double pinned = std::clamp(need, lower_[s], upper_[s]);
        x_[s] = pinned;
        status_[s] =
            pinned == lower_[s] ? VarStatus::AtLower : VarStatus::AtUpper;
        const double residual = need - pinned;
        cols_.art_sign[r] = residual >= 0 ? 1.0 : -1.0;
        lower_[a] = 0;
        upper_[a] = kInf;
        x_[a] = std::abs(residual);
        status_[a] = VarStatus::Basic;
        basis_[r] = a;
      }
    }
    cost_.assign(total, 0.0);
    banned_ = SIZE_MAX;
    verify_pivots_ = 0;
  }

  /// Factorize the slack/artificial basis reset_state() set up. Only a
  /// cold start pays for this: a warm start factorizes the snapshot's basis
  /// instead, so reset_state() leaves the LU alone.
  void factorize_cold_basis() {
    WANPLACE_CHECK(try_factorize_lu(), "singular slack basis");
  }

  void set_phase_costs(bool phase1) {
    std::fill(cost_.begin(), cost_.end(), 0.0);
    if (phase1) {
      for (std::size_t r = 0; r < m_; ++r) cost_[cols_.n + m_ + r] = 1.0;
    } else {
      for (std::size_t j = 0; j < cols_.n; ++j) cost_[j] = model_.objective(j);
    }
  }

  double phase_objective() const {
    double total = 0;
    for (std::size_t j = 0; j < total_columns(); ++j)
      total += cost_[j] * x_[j];
    return total;
  }

  void compute_duals(std::vector<double>& y) const {
    // y = B^{-T} c_B: load basic costs in position space, BTRAN in place.
    y.resize(m_);
    for (std::size_t p = 0; p < m_; ++p) y[p] = cost_[basis_[p]];
    lu_.btran(y);
  }

  double reduced_cost(std::size_t j, const std::vector<double>& y) const {
    double d = cost_[j];
    cols_.for_column(j, [&](std::size_t r, double v) { d -= y[r] * v; });
    return d;
  }

  /// Hyper-sparse kernels engage under an enabled density threshold.
  /// The decision depends on the options and the solve history alone —
  /// never on telemetry or thread count — and both paths compute
  /// bit-identical nonzero values, so flipping the knob can change
  /// runtimes but not answers.
  bool use_sparse_kernels() const {
    return options_.sparse_density_threshold > 0.0;
  }

  /// Adaptive attempt gate. On fill-heavy bases every sparse attempt
  /// explodes past the density cap and falls back to the dense loop —
  /// after paying the symbolic-closure walk, which on such bases costs
  /// more than the dense pass it abandons. Track consecutive bails per
  /// kernel direction; once kSparseBailStreak solves in a row went
  /// dense, attempt sparse only every kSparseProbePeriod-th call so the
  /// solver re-detects a sparse regime (e.g. after refactorization
  /// sheds the fill) without paying the closure on every pivot. Pure
  /// path selection: both paths produce bit-identical values, so the
  /// gate cannot change a pivot, only when the closure walk runs.
  struct SparseGate {
    unsigned bail_streak = 0;
    unsigned skipped = 0;
  };
  static constexpr unsigned kSparseBailStreak = 8;
  static constexpr unsigned kSparseProbePeriod = 16;
  bool sparse_attempt_allowed(SparseGate& gate) {
    if (gate.bail_streak < kSparseBailStreak) return true;
    if (++gate.skipped >= kSparseProbePeriod) {
      gate.skipped = 0;
      return true;
    }
    return false;
  }
  void note_sparse_outcome(SparseGate& gate, bool went_sparse) {
    if (went_sparse) {
      gate.bail_streak = 0;
      gate.skipped = 0;
    } else if (gate.bail_streak < kSparseBailStreak) {
      ++gate.bail_streak;
    }
  }

  void note_rhs_density(std::size_t nnz) const {
    if (obs::metrics_enabled() && m_ > 0)
      obs::histogram_record(
          "simplex.rhs_density",
          static_cast<double>(nnz) / static_cast<double>(m_));
  }

  /// FTRAN `rhs` in place: through the hyper-sparse kernel when `sparse`
  /// (the caller asked ftran_gate_ and filled rhs_pattern_ with the RHS's
  /// nonzero rows), else dense; counts which kernel ran.
  void ftran(std::vector<double>& rhs, bool sparse) {
    if (sparse) {
      note_rhs_density(rhs_pattern_.size());
      const bool went_sparse = lu_.ftran_sparse(
          rhs, rhs_pattern_, options_.sparse_density_threshold);
      note_sparse_outcome(ftran_gate_, went_sparse);
      if (went_sparse) {
        ++ftran_sparse_;
        return;
      }
    } else {
      lu_.ftran(rhs);
    }
    ++ftran_dense_;
  }

  /// w = Binv * A_q
  void compute_direction(std::size_t q, std::vector<double>& w) {
    w.assign(m_, 0.0);
    const bool sparse =
        use_sparse_kernels() && sparse_attempt_allowed(ftran_gate_);
    if (sparse) rhs_pattern_.clear();
    cols_.for_column(q, [&](std::size_t r, double v) {
      w[r] += v;
      if (sparse) rhs_pattern_.push_back(static_cast<std::uint32_t>(r));
    });
    ftran(w, sparse);
  }

  /// rho_ = B^{-T} e_p, tracking the result's nonzero pattern when the
  /// hyper-sparse kernel handled it (rho_pattern_valid_). The unit RHS is
  /// the extreme hyper-sparse case — one nonzero in.
  void compute_rho(std::size_t p_row) {
    rho_.assign(m_, 0.0);
    rho_[p_row] = 1.0;
    rho_pattern_valid_ = false;
    if (use_sparse_kernels() && sparse_attempt_allowed(btran_gate_)) {
      rho_pattern_.assign(1, static_cast<std::uint32_t>(p_row));
      rho_pattern_valid_ = lu_.btran_sparse(
          rho_, rho_pattern_, options_.sparse_density_threshold);
      note_sparse_outcome(btran_gate_, rho_pattern_valid_);
      if (rho_pattern_valid_) {
        ++btran_sparse_;
      } else {
        ++btran_dense_;
      }
      return;
    }
    lu_.btran(rho_);
    ++btran_dense_;
  }

  /// Columns whose support intersects the constraint rows in
  /// rho_pattern_: every structural column of those model rows plus the
  /// row's slack and artificial. Any column outside this set has an
  /// exactly-zero dot with rho_/pivot_row_, which the dense passes skip
  /// (or store as a zero) anyway — so enumerating candidates instead of
  /// scanning all columns changes no decision. Deduplicated with an
  /// epoch stamp; fn(j) is invoked once per candidate.
  template <typename Fn>
  void for_each_rho_candidate(Fn&& fn) {
    const std::size_t total = total_columns();
    if (col_stamp_.size() != total) {
      col_stamp_.assign(total, 0);
      col_epoch_ = 0;
    }
    ++col_epoch_;
    const auto touch = [&](std::size_t j) {
      if (col_stamp_[j] == col_epoch_) return;
      col_stamp_[j] = col_epoch_;
      fn(j);
    };
    for (const std::uint32_t r : rho_pattern_) {
      for (const std::size_t j : model_.row(r).cols) touch(j);
      touch(cols_.n + r);
      touch(cols_.n + m_ + r);
    }
  }

  /// Devex reset rule, run after every pricing pass. devex_wmax_ub_ is an
  /// upper bound on the largest nonbasic weight: the dense pass sets it to
  /// the exact maximum, the sparse pass (which sees only candidate
  /// weights) raises it to the candidates' maximum (weights only grow
  /// between resets, and every growth happens to a candidate). Below the
  /// threshold nothing resets; above it, an O(columns) exact scan (no
  /// matrix work) recovers the true maximum, so the reset decision — and
  /// therefore the whole pivot sequence — does not depend on which pass
  /// ran.
  void maybe_reset_devex() {
    if (devex_wmax_ub_ <= options_.devex_reset_threshold) return;
    double exact = 0;
    for (std::size_t j = 0; j < total_columns(); ++j)
      if (status_[j] != VarStatus::Basic)
        exact = std::max(exact, devex_weight_[j]);
    if (exact > options_.devex_reset_threshold) {
      ++devex_resets_;
      std::fill(devex_weight_.begin(), devex_weight_.end(), 1.0);
      devex_wmax_ub_ = 1.0;
    } else {
      devex_wmax_ub_ = exact;
    }
  }

  /// Factorize the current basis into the sparse LU (clears the R-file).
  /// Returns false on a (numerically) singular basis. A basis that
  /// factorizes is remembered as the rollback target of restore_good_basis.
  bool try_factorize_lu() {
    std::vector<std::vector<BasisLu::Entry>> columns(m_);
    for (std::size_t p = 0; p < m_; ++p) {
      cols_.for_column(basis_[p], [&](std::size_t r, double v) {
        columns[p].push_back({static_cast<std::uint32_t>(r), v});
      });
    }
    if (!lu_.factorize(m_, columns)) return false;
    good_basis_ = basis_;
    good_status_ = status_;
    good_iteration_ = iterations_;
    return true;
  }

  /// Recover from a singular basis: return to the last basis that
  /// factorized, with every nonbasic column back on the bound it had then,
  /// and recompute the basic values. The pivots taken since were committed
  /// on update-file numbers that let a dead pivot through, so the next as
  /// many pivots are each followed by a factorization (RefactorCause::
  /// Verify): a replayed pivot that breaks the basis again is then caught
  /// on fresh factors, where the post-pivot site refuses it.
  void restore_good_basis() {
    verify_pivots_ = iterations_ - good_iteration_;
    basis_ = good_basis_;
    status_ = good_status_;
    for (std::size_t j = 0; j < total_columns(); ++j) {
      if (status_[j] == VarStatus::Basic) continue;
      x_[j] = status_[j] == VarStatus::AtLower   ? lower_[j]
              : status_[j] == VarStatus::AtUpper ? upper_[j]
                                                 : 0.0;
    }
    WANPLACE_CHECK(try_factorize_lu(), "factorized basis turned singular");
    recompute_basic_values();
  }

  /// Refactorize the current basis (a singular one rolls back to the last
  /// factorized basis) and refresh the incremental state from the fresh
  /// factors, so the iteration that asked for it is retried on drift-free
  /// numbers. Every refactorize-and-retry of both loops comes here: the
  /// certify check, the drift and agreement guards and the Bland switch.
  void refactorize(RefactorCause cause) {
    note_refactor(cause);
    ++refactorizations_;
    // A fresh factorization sheds the accumulated R-file fill, so the
    // sparse kernels get an immediate retry regardless of prior bails.
    ftran_gate_ = SparseGate{};
    btran_gate_ = SparseGate{};
    if (try_factorize_lu()) {
      recompute_basic_values();
    } else {
      note_rollback();
      restore_good_basis();
    }
    refresh_incremental_state();
    pivots_since_refactor_ = 0;
  }

  void recompute_basic_values() {
    // x_B = Binv * (b - A_N x_N)
    std::vector<double> residual(rhs_);
    for (std::size_t j = 0; j < total_columns(); ++j) {
      if (status_[j] == VarStatus::Basic || x_[j] == 0) continue;
      cols_.for_column(
          j, [&](std::size_t r, double v) { residual[r] -= v * x_[j]; });
    }
    lu_.ftran(residual);
    for (std::size_t p = 0; p < m_; ++p) x_[basis_[p]] = residual[p];
  }

  /// Recompute the incremental state (duals, phase objective and the
  /// cached reduced costs) from the current basis inverse, discarding
  /// accumulated pivot drift. The dual loop then re-establishes its
  /// invariant: make_dual_feasible flips (or cost-shifts) any nonbasic
  /// whose recomputed reduced cost has the wrong sign.
  void refresh_incremental_state() {
    compute_duals(y_);
    objective_ = phase_objective();
    const std::size_t total = total_columns();
    d_.resize(total);
    for (std::size_t j = 0; j < total; ++j)
      d_[j] = status_[j] == VarStatus::Basic ? 0.0 : reduced_cost(j, y_);
    duals_clean_ = true;
    if (dual_mode_) make_dual_feasible();
  }

  /// Attempt to start from the snapshot in options_.warm_start. On success
  /// the basis is factorized (repaired first if it is singular for this
  /// model) and the basic values recomputed under the *current* model's
  /// bounds. On any failure (no/empty snapshot, shape mismatch, a repair
  /// that still does not factorize) the solver state is left as
  /// reset_state() set it up and false is returned; the cold start then
  /// factorizes that basis. Every attempt ends in exactly one of
  /// warm_shape_, warm_singular_, warm_infeasible_ (run_phases) or
  /// warm_accepted_ (the callers, through count_warm_accepted()).
  bool import_warm_start() {
    const BasisSnapshot* snap = options_.warm_start;
    if (snap == nullptr || snap->empty()) return false;
    ++warm_attempts_;
    if (!snap->compatible(cols_.n, m_)) {
      ++warm_shape_;
      return false;
    }
    if (!apply_snapshot(*snap)) {
      reset_state();  // a partial import mutated the state
      return false;
    }
    return true;
  }

  /// Load the snapshot's statuses and basis; false (counted as a shape or
  /// singular outcome) when the basis list is malformed or the LU rejects
  /// it even after repair_singular_basis().
  bool apply_snapshot(const BasisSnapshot& snap) {
    const std::size_t nm = cols_.n + m_;
    // Nonbasic placement first: every structural and slack column to its
    // snapshot status, re-clamped to the *current* bounds (which may differ
    // from the exporting model's — that is the point of a warm start).
    for (std::size_t j = 0; j < nm; ++j)
      set_nonbasic_status(
          j, static_cast<BasisSnapshot::Status>(snap.status[j]));
    // Artificials: pinned to zero; only snapshot-basic ones re-enter.
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t a = nm + r;
      lower_[a] = upper_[a] = 0;
      x_[a] = 0;
      status_[a] = VarStatus::AtLower;
    }
    std::vector<bool> seen(nm, false);
    for (std::size_t p = 0; p < m_; ++p) {
      std::size_t j;
      if (snap.basis[p] == BasisSnapshot::kArtificialBasic) {
        j = nm + p;
      } else {
        j = snap.basis[p];
        if (j >= nm || seen[j]) {
          ++warm_shape_;
          return false;
        }
        seen[j] = true;
      }
      basis_[p] = j;
      status_[j] = VarStatus::Basic;
    }
    if (!try_factorize_lu() && !repair_singular_basis()) {
      ++warm_singular_;
      return false;
    }
    recompute_basic_values();
    return true;
  }

  /// Repair an imported basis the LU found singular instead of dropping
  /// it: each dependent column the factorization could not pivot leaves
  /// the basis (a snapshot-basic artificial, bounded to [0, 0] here, stays
  /// pinned at 0), and the logical of the paired unpivoted row takes its
  /// position — the row's slack, or its artificial when the slack is
  /// already basic. The pivoted block plus unit columns is nonsingular, so
  /// one more factorization settles it; its result is returned. The dual's
  /// make_dual_feasible absorbs the changed statuses, and a primal import
  /// still has to pass primal_feasible().
  bool repair_singular_basis() {
    const std::vector<std::uint32_t>& rows = lu_.singular_rows();
    const std::vector<std::uint32_t>& positions = lu_.singular_positions();
    for (const std::uint32_t p : positions)
      set_nonbasic_status(basis_[p], BasisSnapshot::AtLower);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::size_t slack = cols_.n + rows[i];
      const std::size_t j =
          status_[slack] == VarStatus::Basic ? slack + m_ : slack;
      basis_[positions[i]] = j;
      status_[j] = VarStatus::Basic;
    }
    import_repaired_ = true;
    return try_factorize_lu();
  }

  /// An import was accepted; it counts as repaired too when
  /// repair_singular_basis() had to fix it.
  void count_warm_accepted() {
    ++warm_accepted_;
    if (import_repaired_) ++warm_repaired_;
  }

  /// Place column j nonbasic per the snapshot status, degrading to the
  /// nearest representable placement when the current bounds disagree
  /// (e.g. the snapshot says AtUpper but the bound is now +inf). Columns
  /// that end up in the basis are overwritten by the caller.
  void set_nonbasic_status(std::size_t j, BasisSnapshot::Status s) {
    const bool lo = lower_[j] > -kInf;
    const bool up = upper_[j] < kInf;
    VarStatus st;
    switch (s) {
      case BasisSnapshot::AtUpper:
        st = up ? VarStatus::AtUpper
                : (lo ? VarStatus::AtLower : VarStatus::FreeZero);
        break;
      case BasisSnapshot::Free:
        st = (!lo && !up) ? VarStatus::FreeZero
                          : (lo ? VarStatus::AtLower : VarStatus::AtUpper);
        break;
      case BasisSnapshot::Basic:
      case BasisSnapshot::AtLower:
      default:
        st = lo ? VarStatus::AtLower
                : (up ? VarStatus::AtUpper : VarStatus::FreeZero);
        break;
    }
    status_[j] = st;
    x_[j] = st == VarStatus::AtLower   ? lower_[j]
            : st == VarStatus::AtUpper ? upper_[j]
                                       : 0.0;
  }

  /// Do all basic values satisfy their bounds (within the feasibility
  /// tolerance)? Nonbasic values sit exactly on a bound by construction.
  bool primal_feasible() const {
    const double tol = feasibility_tol();
    for (std::size_t p = 0; p < m_; ++p) {
      const std::size_t j = basis_[p];
      if (x_[j] < lower_[j] - tol || x_[j] > upper_[j] + tol) return false;
    }
    return true;
  }

  /// Repair dual feasibility of the cached reduced costs. Boxed nonbasic
  /// variables whose reduced cost has the wrong sign for their bound are
  /// flipped (cheap: the basis, duals and reduced costs are all unchanged
  /// by a flip). A wrong-sign column that cannot be flipped (free
  /// variable, or a one-sided bound — typically a row slack whose dual
  /// changed sign after a coefficient patch) gets its working cost shifted
  /// so its reduced cost is exactly zero. Shifting solves a perturbed
  /// objective, so whenever it fires the driver must finish with a primal
  /// phase-2 cleanup under the true costs — `dual_shifted_` records that
  /// debt. Bounds are untouched, so an infeasibility certificate found by
  /// the shifted dual iteration remains valid for the true problem.
  void make_dual_feasible() {
    const double tol = options_.tolerance;
    bool flipped = false;
    bool shifted = false;
    for (std::size_t j = 0; j < total_columns(); ++j) {
      if (status_[j] == VarStatus::Basic || lower_[j] == upper_[j]) continue;
      const double d = d_[j];
      const bool wrong_sign =
          (status_[j] == VarStatus::FreeZero && std::abs(d) > tol) ||
          (status_[j] == VarStatus::AtLower && d < -tol) ||
          (status_[j] == VarStatus::AtUpper && d > tol);
      if (!wrong_sign) continue;
      if (status_[j] == VarStatus::AtLower && upper_[j] < kInf) {
        status_[j] = VarStatus::AtUpper;
        x_[j] = upper_[j];
        flipped = true;
        ++dual_repair_flips_;
      } else if (status_[j] == VarStatus::AtUpper && lower_[j] > -kInf) {
        status_[j] = VarStatus::AtLower;
        x_[j] = lower_[j];
        flipped = true;
        ++dual_repair_flips_;
      } else {
        cost_[j] -= d;
        d_[j] = 0;
        shifted = true;
        ++dual_cost_shifts_;
      }
    }
    if (shifted) dual_shifted_ = true;
    if (flipped) recompute_basic_values();
    if (flipped || shifted) objective_ = phase_objective();
  }

  struct PricingChoice {
    std::size_t entering = SIZE_MAX;
    double reduced = 0;
    bool increasing = true;
  };

  /// Eligibility of nonbasic column j given its reduced cost. Returns true
  /// and sets `increasing` when moving j improves the phase objective.
  bool eligible(std::size_t j, double d, bool& increasing) const {
    const VarStatus st = status_[j];
    if (st == VarStatus::Basic || lower_[j] == upper_[j]) return false;
    if (st == VarStatus::AtLower && d < -options_.tolerance) {
      increasing = true;
      return true;
    }
    if (st == VarStatus::AtUpper && d > options_.tolerance) {
      increasing = false;
      return true;
    }
    if (st == VarStatus::FreeZero && std::abs(d) > options_.tolerance) {
      increasing = d < 0;
      return true;
    }
    return false;
  }

  /// Bland's rule: lowest-index eligible column (anti-cycling; used after
  /// stalls). Always a full scan.
  PricingChoice price_bland() const {
    PricingChoice choice;
    for (std::size_t j = 0; j < total_columns(); ++j) {
      bool inc = true;
      const double d = reduced_cost(j, y_);
      if (!eligible(j, d, inc) || j == banned_) continue;
      choice.entering = j;
      choice.reduced = d;
      choice.increasing = inc;
      break;
    }
    return choice;
  }

  /// Dynamic Devex: full scan of the *cached* reduced costs scored by the
  /// maintained reference weights — no matrix work at pricing time; all
  /// the O(nnz) cost lives in the per-pivot update pass.
  PricingChoice price_devex() const {
    PricingChoice choice;
    double best_score = 0;
    for (std::size_t j = 0; j < total_columns(); ++j) {
      bool inc = true;
      const double d = d_[j];
      if (!eligible(j, d, inc) || j == banned_) continue;
      const double score = d * d / devex_weight_[j];
      if (score > best_score) {
        best_score = score;
        choice.entering = j;
        choice.reduced = d;
        choice.increasing = inc;
      }
    }
    return choice;
  }

  /// The fused dynamic-Devex per-pivot pass. pivot_row_ must hold
  /// rho~ = (B_old^{-T} e_p) / alpha_q, the pivot row of the updated
  /// inverse. For every nonbasic column with alpha~_j = rho~ . A_j:
  ///
  ///   d_j     <- d_j - d_q * alpha~_j      (maintained reduced costs)
  ///   gamma_j <- max(gamma_j, alpha~_j^2 * gamma_q)   (Devex weights)
  ///
  /// The leaving variable (nonbasic by now, cached d = 0, alpha~ = 1/alpha_q)
  /// gets its textbook values d_l = -d_q/alpha_q and
  /// gamma_l >= gamma_q/alpha_q^2 from the same formulas — no special case.
  /// A sparse pivot row visits only the candidate columns: every other
  /// column has alpha~_j = 0 and cannot change, and the candidates' dots
  /// are the same full cols_.dot values (the leaving column is always a
  /// candidate, since alpha~_l != 0 forces support overlap with the
  /// pattern). A dense pivot row visits every column and so knows the
  /// exact nonbasic maximum. Either way maybe_reset_devex() then decides
  /// whether the reference framework resets.
  void update_pricing_after_pivot(std::size_t entering, double reduced) {
    const double gamma_q = devex_weight_[entering];
    double wmax = 0;
    const auto update = [&](std::size_t j) {
      if (status_[j] == VarStatus::Basic) return;
      const double t = cols_.dot(j, pivot_row_);
      if (t != 0) {
        d_[j] -= reduced * t;
        const double cand = t * t * gamma_q;
        if (cand > devex_weight_[j]) devex_weight_[j] = cand;
      }
      wmax = std::max(wmax, devex_weight_[j]);
    };
    if (rho_pattern_valid_) {
      for_each_rho_candidate(update);
      devex_wmax_ub_ = std::max(devex_wmax_ub_, wmax);
    } else {
      for (std::size_t j = 0; j < total_columns(); ++j) update(j);
      devex_wmax_ub_ = wmax;
    }
    d_[entering] = 0.0;
    maybe_reset_devex();
  }

  /// alpha_j = rho . A_j for every nonbasic column — the pivot row of the
  /// tableau, needed wholesale by the dual ratio test and the incremental
  /// reduced-cost update. A sparse rho leaves every non-candidate column
  /// with an exactly-zero dot, so the row is zeroed and only the
  /// candidates are filled in (same cols_.dot values, far fewer of them).
  void compute_alpha_row() {
    const std::size_t total = total_columns();
    if (rho_pattern_valid_) {
      alpha_.assign(total, 0.0);
      for_each_rho_candidate([&](std::size_t j) {
        if (status_[j] != VarStatus::Basic) alpha_[j] = cols_.dot(j, rho_);
      });
      return;
    }
    alpha_.resize(total);
    for (std::size_t j = 0; j < total; ++j)
      alpha_[j] = status_[j] == VarStatus::Basic ? 0.0 : cols_.dot(j, rho_);
  }

  /// Automatic iteration cap of both loops (options_.max_iterations wins).
  std::size_t iteration_cap() const {
    return options_.max_iterations > 0
               ? options_.max_iterations
               : std::max<std::size_t>(5000, 60 * (m_ + cols_.n));
  }

  /// Stability guards a chosen pivot must pass before either loop commits
  /// it. Both apply under a non-empty update file only: fresh factors are
  /// trusted. A pivot this small under an aged update file is as likely
  /// accumulated FTRAN error as a real near-degenerate column.
  bool pivot_drifted(double pivot) const {
    return lu_.update_count() > 0 &&
           std::abs(pivot) < options_.lu_stability_tolerance;
  }

  /// The pivot element is available through two independent solve paths —
  /// FTRAN'd into the entering column's image, and as rho^T A_q with
  /// rho = B^{-T} e_p from BTRAN. Under an aged update file the two
  /// accumulate *different* roundoff, so a mismatch is direct evidence the
  /// factorization has drifted; committing such a pivot can silently make
  /// the basis singular (discovered only at the next refactorization, long
  /// after the damage).
  bool pivot_disagrees(double ftran_pivot, double btran_pivot) const {
    return lu_.update_count() > 0 &&
           !(std::abs(ftran_pivot - btran_pivot) <=
             kPivotAgreementTol * (1 + std::abs(ftran_pivot)));
  }

  /// What commit_pivot did with a basis change.
  enum class Commit {
    Updated,       // Forrest–Tomlin update kept, no refactorization due
    Refactorized,  // the new basis was factorized; state refreshed
    RolledBack,    // the new basis was singular: the old one is back
    Broken,        // dual: a pivot chosen on fresh factors broke the basis
  };

  /// What commit_pivot needs to undo a basis change: the entering column's
  /// value and status from before the loop moved it.
  struct PivotUndo {
    std::size_t pos;  // basis position the entering column takes
    std::size_t entering;
    std::size_t leaving;
    double entering_x;
    VarStatus entering_status;
  };

  /// The basis change both loops commit through, after they have moved the
  /// values, the leaving column's status and their duals: the
  /// Forrest–Tomlin update, the refactor policy (refusal, verify, period,
  /// fill) and, when the refactorization finds the new basis singular, the
  /// rollback. Under an update file, drift may have let a numerically dead
  /// pivot through the ratio test (its FTRAN'd magnitude cleared kPivotTol,
  /// its true value did not): the basis change is undone and the iteration
  /// retried on drift-free numbers. A pivot chosen on fresh factors is
  /// itself the culprit (its magnitude clears kPivotTol but not the LU's
  /// singularity threshold). That case is the one difference between the
  /// methods: the primal refuses the column until the next committed pivot
  /// (banned_) and rolls back; the dual cannot refuse a ratio-test winner,
  /// so it gets Broken and hands the model to the cold primal. When the
  /// basis before the pivot is singular too, the last factorized basis
  /// takes over.
  Commit commit_pivot(const PivotUndo& undo) {
    basis_[undo.pos] = undo.entering;
    status_[undo.entering] = VarStatus::Basic;
    const std::size_t updates_before = lu_.update_count();
    const bool updated = lu_.update(undo.pos, kPivotTol);
    ++pivots_since_refactor_;
    RefactorCause cause{};
    if (!refactor_due(updated, cause)) return Commit::Updated;
    note_refactor(cause);
    ++refactorizations_;
    if (try_factorize_lu()) {
      recompute_basic_values();
      refresh_incremental_state();
      pivots_since_refactor_ = 0;
      return Commit::Refactorized;
    }
    note_rollback();
    if (updates_before == 0) {
      if (dual_mode_) return Commit::Broken;
      banned_ = undo.entering;
    }
    basis_[undo.pos] = undo.leaving;
    status_[undo.leaving] = VarStatus::Basic;
    status_[undo.entering] = undo.entering_status;
    x_[undo.entering] = undo.entering_x;
    if (try_factorize_lu()) {
      recompute_basic_values();
    } else {
      restore_good_basis();
    }
    refresh_incremental_state();
    pivots_since_refactor_ = 0;
    return Commit::RolledBack;
  }

  /// Bookkeeping after every committed iteration of either loop. A
  /// committed iteration moves the basis or a bound, so a refused column may
  /// enter again. Degenerate pivots (basis changes with a zero step) are
  /// counted in streaks, the classic stall signature. The stall counter
  /// runs on the phase objective, which the primal decreases and the dual
  /// increases: a stall first switches to Bland's rules on drift-free
  /// duals, so the anti-cycling argument holds on exact reduced costs.
  /// Returns false when the stall then outlasts 8 x stall_limit
  /// iterations in Bland mode; the dual aborts to the cold primal on that,
  /// the primal's Bland rule cannot cycle and carries on.
  bool track_progress(bool basis_changed, bool degenerate) {
    banned_ = SIZE_MAX;
    if (basis_changed) {
      if (degenerate) {
        ++degenerate_pivots_;
        degenerate_streak_max_ =
            std::max(degenerate_streak_max_, ++degenerate_streak_);
      } else {
        degenerate_streak_ = 0;
      }
    }
    const bool improved =
        dual_mode_ ? objective_ > last_objective_ + options_.tolerance
                   : objective_ < last_objective_ - options_.tolerance;
    if (improved) {
      last_objective_ = objective_;
      stall_count_ = 0;
      bland_ = false;
    } else if (++stall_count_ > options_.stall_limit) {
      if (!bland_) {
        refactorize(RefactorCause::Bland);
        bland_ = true;
      } else if (stall_count_ > 8 * options_.stall_limit) {
        return false;
      }
    }
    return true;
  }

  /// Dual simplex main loop. Invariants: the cached reduced costs d_ stay
  /// dual feasible (within tolerance) and the phase objective is
  /// non-decreasing — each pivot moves it by ratio * |infeasibility| >= 0.
  /// The leaving row is the most primal-infeasible basic position scored
  /// against dual Devex row weights; the entering column comes from a
  /// bound-flipping ratio test (boxed blockers whose full range cannot
  /// absorb the remaining infeasibility are flipped past in one batched
  /// FTRAN rather than entering). Terminates Optimal when no basic value
  /// violates its bounds, certified against a fresh factorization exactly
  /// like the primal loop; Infeasible when a violated row admits no
  /// entering column (a certified dual ray); and sets dual_abort_ when it
  /// stalls beyond recovery so run_dual can rerun the cold primal.
  SolveStatus iterate_dual() {
    const std::size_t max_iters = iteration_cap();
    std::vector<double> w;
    struct Breakpoint {
      std::size_t j;
      double ratio;
      double alpha_abs;
    };
    std::vector<Breakpoint> breakpoints;
    std::vector<std::size_t> flips;
    dual_weight_.assign(m_, 1.0);

    for (; iterations_ < max_iters; ++iterations_) {
      // Leaving row: the basic position with the largest bound violation,
      // scored infeasibility^2 / weight (Bland mode after a stall: lowest
      // basis column index, no weighting — anti-cycling).
      const double ftol = feasibility_tol();
      std::size_t p_row = SIZE_MAX;
      double best_score = 0;
      double delta = 0;
      for (std::size_t p = 0; p < m_; ++p) {
        const std::size_t jb = basis_[p];
        double viol;
        if (x_[jb] < lower_[jb] - ftol) {
          viol = x_[jb] - lower_[jb];
        } else if (x_[jb] > upper_[jb] + ftol) {
          viol = x_[jb] - upper_[jb];
        } else {
          continue;
        }
        if (bland_) {
          if (p_row == SIZE_MAX || jb < basis_[p_row]) {
            p_row = p;
            delta = viol;
          }
        } else {
          const double score = viol * viol / dual_weight_[p];
          if (score > best_score) {
            best_score = score;
            p_row = p;
            delta = viol;
          }
        }
      }
      if (p_row == SIZE_MAX) {
        // Primal feasible under the incrementally maintained values. Before
        // declaring optimality, rebuild the factorization and re-check on
        // fresh numbers — drift must never certify a false optimum.
        if (duals_clean_) return SolveStatus::Optimal;
        refactorize(RefactorCause::Certify);
        continue;
      }

      // rho = B^{-T} e_p (the pivot row of the inverse), then the full
      // tableau row alpha_j = rho . A_j.
      compute_rho(p_row);
      compute_alpha_row();
      const double s = delta > 0 ? 1.0 : -1.0;

      // Dual ratio test. theta = d_q / alpha_q moves every nonbasic
      // reduced cost by -theta * alpha_j; a candidate blocks when its
      // reduced cost would cross zero. s fixes theta's required sign so
      // the leaving variable lands dual feasible at its violated bound.
      breakpoints.clear();
      for (std::size_t j = 0; j < total_columns(); ++j) {
        if (status_[j] == VarStatus::Basic || lower_[j] == upper_[j])
          continue;
        const double a = s * alpha_[j];
        bool candidate = false;
        if (status_[j] == VarStatus::AtLower) {
          candidate = a > kPivotTol;
        } else if (status_[j] == VarStatus::AtUpper) {
          candidate = a < -kPivotTol;
        } else {  // FreeZero: blocks immediately in either direction
          candidate = std::abs(a) > kPivotTol;
        }
        if (!candidate) continue;
        const double ratio = std::max(0.0, d_[j] / a);
        breakpoints.push_back({j, ratio, std::abs(alpha_[j])});
      }

      std::size_t entering = SIZE_MAX;
      flips.clear();
      if (bland_) {
        // Strict minimum ratio, ties to the lowest column index; no flips.
        double best_ratio = kInf;
        for (const Breakpoint& bp : breakpoints) {
          if (bp.ratio < best_ratio ||
              (bp.ratio == best_ratio && bp.j < entering)) {
            entering = bp.j;
            best_ratio = bp.ratio;
          }
        }
      } else {
        // Bound-flipping ratio test: walk breakpoints in ratio order; a
        // boxed blocker whose whole range cannot absorb the remaining
        // infeasibility is flipped to its other bound and passed over.
        std::sort(breakpoints.begin(), breakpoints.end(),
                  [](const Breakpoint& a, const Breakpoint& b) {
                    if (a.ratio != b.ratio) return a.ratio < b.ratio;
                    if (a.alpha_abs != b.alpha_abs)
                      return a.alpha_abs > b.alpha_abs;
                    return a.j < b.j;
                  });
        double residual = std::abs(delta);
        for (const Breakpoint& bp : breakpoints) {
          const bool boxed = status_[bp.j] != VarStatus::FreeZero &&
                             lower_[bp.j] > -kInf && upper_[bp.j] < kInf;
          if (boxed) {
            const double shrink =
                bp.alpha_abs * (upper_[bp.j] - lower_[bp.j]);
            if (residual - shrink > ftol) {
              residual -= shrink;
              flips.push_back(bp.j);
              continue;
            }
          }
          entering = bp.j;
          break;
        }
      }

      if (entering == SIZE_MAX) {
        // No entering column even after exhausting all flippable blockers:
        // a dual ray — the primal is infeasible. Certify on fresh numbers
        // first, as with optimality. (The flip list was never applied.)
        if (duals_clean_) return SolveStatus::Infeasible;
        refactorize(RefactorCause::Certify);
        continue;
      }

      // Commit the bound flips in one batch: nonbasic moves between bounds
      // leave the basis, duals and reduced costs untouched; the basic
      // values absorb the combined column movement via a single FTRAN.
      // Must happen BEFORE the entering column's FTRAN: the Forrest–Tomlin
      // update consumes the spike stashed by the most recent ftran().
      if (!flips.empty()) {
        flip_rhs_.assign(m_, 0.0);
        const bool sparse =
            use_sparse_kernels() && sparse_attempt_allowed(ftran_gate_);
        if (sparse) {
          rhs_pattern_.clear();
          if (row_stamp_.size() != m_) {
            row_stamp_.assign(m_, 0);
            row_epoch_ = 0;
          }
          ++row_epoch_;
        }
        for (const std::size_t j : flips) {
          const double amount = status_[j] == VarStatus::AtLower
                                    ? upper_[j] - lower_[j]
                                    : lower_[j] - upper_[j];
          objective_ += d_[j] * amount;
          status_[j] = status_[j] == VarStatus::AtLower ? VarStatus::AtUpper
                                                        : VarStatus::AtLower;
          x_[j] = status_[j] == VarStatus::AtUpper ? upper_[j] : lower_[j];
          cols_.for_column(j, [&](std::size_t r, double v) {
            flip_rhs_[r] += v * amount;
            if (sparse && row_stamp_[r] != row_epoch_) {
              row_stamp_[r] = row_epoch_;
              rhs_pattern_.push_back(static_cast<std::uint32_t>(r));
            }
          });
        }
        ftran(flip_rhs_, sparse);
        for (std::size_t i = 0; i < m_; ++i)
          x_[basis_[i]] -= flip_rhs_[i];
        bound_flips_ += flips.size();
        // The row's remaining infeasibility after the flips.
        const std::size_t jb = basis_[p_row];
        delta = s > 0 ? x_[jb] - upper_[jb] : x_[jb] - lower_[jb];
        if (s * delta < 0) delta = 0;  // flips closed it: degenerate pivot
      }

      // Pivot quality before committing the basis change: the FTRAN'd
      // pivot element against the BTRAN'd alpha_q (the primal loop's
      // agreement test, with both paths free here), plus the small-pivot
      // drift guard. A retry re-prices on fresh numbers; flips already
      // committed stay (they are valid state on their own) and any
      // reduced-cost sign they relied on is re-repaired by the refresh.
      compute_direction(entering, w);
      const double pivot = w[p_row];
      const bool drifted = pivot_drifted(pivot);
      if (drifted || pivot_disagrees(pivot, alpha_[entering])) {
        refactorize(drifted ? RefactorCause::Drift : RefactorCause::Agreement);
        continue;
      }
      if (std::abs(pivot) <= kPivotTol) {
        // Numerically dead pivot on fresh factors: the dual method cannot
        // continue safely — hand the model to the cold primal.
        return dual_stop();
      }

      const std::size_t leaving = basis_[p_row];
      const double d_q = d_[entering];
      const double theta = d_q / pivot;  // dual step
      const double t = delta / pivot;    // primal step of the entering var

      // Undo record for commit_pivot, taken before any value moves.
      const PivotUndo undo{p_row, entering, leaving, x_[entering],
                           status_[entering]};

      // Primal update: basic values move against t * w; the leaving
      // variable lands exactly on its violated bound.
      if (t != 0) {
        for (std::size_t i = 0; i < m_; ++i)
          if (w[i] != 0) x_[basis_[i]] -= t * w[i];
      }
      x_[entering] = undo.entering_x + t;
      objective_ += d_q * t;
      x_[leaving] = s > 0 ? upper_[leaving] : lower_[leaving];
      status_[leaving] =
          s > 0 ? VarStatus::AtUpper : VarStatus::AtLower;

      // Dual update: y moves along rho, every cached reduced cost by
      // -theta * alpha_j; the leaving column's textbook value is -theta.
      if (theta != 0) {
        for (std::size_t i = 0; i < m_; ++i) y_[i] += theta * rho_[i];
        for (std::size_t j = 0; j < total_columns(); ++j) {
          if (status_[j] == VarStatus::Basic || alpha_[j] == 0) continue;
          d_[j] -= theta * alpha_[j];
        }
      }
      d_[entering] = 0.0;
      d_[leaving] = -theta;
      duals_clean_ = false;

      // Dual Devex row weights from the entering column's FTRAN image:
      //   w_r' = max(w_r, (w_r / pivot)^2 * w_p),  w_p' = max(w_p /
      //   pivot^2, 1)
      // reset to the unit framework when the largest weight drifts.
      {
        const double dw_p = dual_weight_[p_row];
        const double inv_p2 = 1.0 / (pivot * pivot);
        double wmax = 0;
        for (std::size_t i = 0; i < m_; ++i) {
          if (i != p_row && w[i] != 0) {
            const double cand = w[i] * w[i] * inv_p2 * dw_p;
            if (cand > dual_weight_[i]) dual_weight_[i] = cand;
          }
          wmax = std::max(wmax, dual_weight_[i]);
        }
        dual_weight_[p_row] = std::max(dw_p * inv_p2, 1.0);
        wmax = std::max(wmax, dual_weight_[p_row]);
        if (wmax > options_.devex_reset_threshold) {
          ++devex_resets_;
          std::fill(dual_weight_.begin(), dual_weight_.end(), 1.0);
        }
      }

      const Commit commit = commit_pivot(undo);
      if (commit == Commit::Broken) return dual_stop();
      if (commit == Commit::RolledBack) continue;
      if (!track_progress(/*basis_changed=*/true, t == 0)) return dual_stop();
    }
    return SolveStatus::IterationLimit;
  }

  /// Abandon the dual method mid-loop: run_dual reruns the cold primal.
  SolveStatus dual_stop() {
    dual_abort_ = true;
    return SolveStatus::IterationLimit;
  }

  SolveStatus iterate() {
    const std::size_t max_iters = iteration_cap();
    std::vector<double> w;

    for (; iterations_ < max_iters; ++iterations_) {
      // Right after a factorization (the counter is 0 only then) the basic
      // values are recomputed from fresh factors, and a primal phase needs
      // them inside their bounds. Roundoff in a near-singular basis can
      // carry them out; pivoting on from there would move the objective
      // the wrong way, so the phase stops with its certified dual bound.
      if (pivots_since_refactor_ == 0 && !primal_feasible()) {
        ++feasibility_lost_;
        return SolveStatus::IterationLimit;
      }
      const PricingChoice choice = bland_ ? price_bland() : price_devex();
      if (choice.entering == SIZE_MAX) {
        // No candidate under the incrementally maintained duals. Before
        // declaring optimality, rebuild the factorization and duals from
        // scratch and re-price: pivot drift must never certify a false
        // optimum. Neither may a refused column that still prices in:
        // the phase stops short, its dual bound still certified.
        if (duals_clean_) {
          bool increasing = true;
          if (banned_ != SIZE_MAX &&
              eligible(banned_, d_[banned_], increasing))
            return SolveStatus::IterationLimit;
          return SolveStatus::Optimal;
        }
        refactorize(RefactorCause::Certify);
        continue;
      }
      const std::size_t entering = choice.entering;
      const bool increasing = choice.increasing;

      compute_direction(entering, w);
      const double sigma = increasing ? 1.0 : -1.0;

      // Ratio test: the largest step before a basic variable (or the
      // entering variable's own opposite bound) blocks. Within the tie
      // tolerance the non-Bland rule prefers the largest |pivot| for
      // stability, the Bland rule the lowest basis index (anti-cycling).
      constexpr double ratio_tie = 1e-12;
      double step = upper_[entering] - lower_[entering];  // bound-flip cap
      std::size_t leaving_pos = SIZE_MAX;
      double leaving_bound = 0;
      for (std::size_t p = 0; p < m_; ++p) {
        const double delta = sigma * w[p];
        if (std::abs(delta) <= kPivotTol) continue;
        const std::size_t jb = basis_[p];
        double t, bound;
        if (delta > 0) {
          if (lower_[jb] == -kInf) continue;
          t = (x_[jb] - lower_[jb]) / delta;
          bound = lower_[jb];
        } else {
          if (upper_[jb] == kInf) continue;
          t = (x_[jb] - upper_[jb]) / delta;  // delta < 0 -> t >= 0
          bound = upper_[jb];
        }
        t = std::max(t, 0.0);
        if (t > step + ratio_tie) continue;  // strictly worse blocker
        bool take;
        if (t < step - ratio_tie || leaving_pos == SIZE_MAX) {
          take = true;  // strictly better, or first blocker at the cap
        } else if (bland_) {
          take = basis_[p] < basis_[leaving_pos];
        } else {
          take = std::abs(w[p]) > std::abs(w[leaving_pos]);
        }
        if (take) {
          step = std::min(step, t);
          leaving_pos = p;
          leaving_bound = bound;
        }
      }

      if (step == kInf) return SolveStatus::Unbounded;

      // Stability guards: rebuild the factorization and retry the
      // iteration on drift-free numbers; after the rebuild the update file
      // is empty, so the retried pivot is trusted. The drift guard runs
      // first so a drifted pivot skips the BTRAN; rho_ is reused below for
      // the dual update, so the agreement test costs one sparse column dot.
      if (leaving_pos != SIZE_MAX) {
        if (pivot_drifted(w[leaving_pos])) {
          refactorize(RefactorCause::Drift);
          continue;
        }
        compute_rho(leaving_pos);
        if (pivot_disagrees(w[leaving_pos], cols_.dot(entering, rho_))) {
          refactorize(RefactorCause::Agreement);
          continue;
        }
      }

      // For commit_pivot's undo record: the step below moves it.
      const double entering_x_before = x_[entering];

      // Apply the step to all basic variables; the phase objective moves by
      // exactly d_entering per unit of (signed) step.
      if (step != 0) {
        for (std::size_t p = 0; p < m_; ++p)
          if (w[p] != 0) x_[basis_[p]] -= sigma * step * w[p];
        x_[entering] += sigma * step;
        objective_ += choice.reduced * sigma * step;
      }

      if (leaving_pos == SIZE_MAX) {
        // Bound flip: entering hit its opposite bound; basis (and thus the
        // duals and all cached reduced costs) unchanged.
        ++bound_flips_;
        status_[entering] =
            increasing ? VarStatus::AtUpper : VarStatus::AtLower;
        x_[entering] = increasing ? upper_[entering] : lower_[entering];
      } else {
        const std::size_t leaving = basis_[leaving_pos];
        x_[leaving] = leaving_bound;
        status_[leaving] = leaving_bound == lower_[leaving]
                               ? VarStatus::AtLower
                               : VarStatus::AtUpper;

        const double pivot = w[leaving_pos];
        WANPLACE_CHECK(std::abs(pivot) > kPivotTol, "zero pivot");
        // Incremental dual update before the basis update is applied:
        // with the old basis, y' = y + (d_entering / pivot) *
        // (B_old^{-T} e_p). rho_ still holds B_old^{-T} e_p from the
        // pivot agreement test above (no LU mutation since), and doubles
        // as the pivot row for the dynamic-Devex pass below.
        const double scale = choice.reduced / pivot;
        for (std::size_t i = 0; i < m_; ++i) y_[i] += scale * rho_[i];
        duals_clean_ = false;

        // commit_pivot never reports Broken to the primal: it refuses the
        // column through banned_ and rolls back instead.
        const Commit commit = commit_pivot({leaving_pos, entering, leaving,
                                            entering_x_before,
                                            status_[entering]});
        if (commit == Commit::RolledBack) continue;
        if (commit == Commit::Updated) {
          const double inv_pivot = 1.0 / pivot;
          if (rho_pattern_valid_) {
            // rho_ is zero outside its tracked pattern, so only those
            // entries can scale to a nonzero pivot-row value.
            pivot_row_.assign(m_, 0.0);
            for (const std::uint32_t r : rho_pattern_)
              pivot_row_[r] = rho_[r] * inv_pivot;
          } else {
            pivot_row_.resize(m_);
            for (std::size_t i = 0; i < m_; ++i)
              pivot_row_[i] = rho_[i] * inv_pivot;
          }
          update_pricing_after_pivot(entering, choice.reduced);
        }
      }

      track_progress(/*basis_changed=*/leaving_pos != SIZE_MAX, step == 0);
    }
    return SolveStatus::IterationLimit;
  }

  void fill_solution(LpSolution& solution) {
    solution.x.assign(x_.begin(), x_.begin() + cols_.n);
    set_phase_costs(/*phase1=*/false);
    std::vector<double> y;
    compute_duals(y);
    solution.y = y;
    solution.objective = model_.objective_value(solution.x);
    solution.dual_bound = certified_dual_bound(model_, y);
    export_basis(solution.basis);
  }

  /// Freeze the final basis into the solution so a later solve of a
  /// same-shaped model can warm start from it. Cheap: O(n + m) bytes.
  void export_basis(BasisSnapshot& snap) const {
    const std::size_t nm = cols_.n + m_;
    snap.variables = cols_.n;
    snap.rows = m_;
    snap.status.resize(nm);
    for (std::size_t j = 0; j < nm; ++j) {
      switch (status_[j]) {
        case VarStatus::Basic:
          snap.status[j] = BasisSnapshot::Basic;
          break;
        case VarStatus::AtLower:
          snap.status[j] = BasisSnapshot::AtLower;
          break;
        case VarStatus::AtUpper:
          snap.status[j] = BasisSnapshot::AtUpper;
          break;
        case VarStatus::FreeZero:
          snap.status[j] = BasisSnapshot::Free;
          break;
      }
    }
    snap.basis.resize(m_);
    for (std::size_t p = 0; p < m_; ++p)
      snap.basis[p] = basis_[p] < nm
                          ? static_cast<std::uint32_t>(basis_[p])
                          : BasisSnapshot::kArtificialBasic;
  }

  const LpModel& model_;
  SimplexOptions options_;
  std::size_t m_ = 0;
  Columns cols_;
  std::vector<double> lower_, upper_, x_, cost_, rhs_;
  std::vector<VarStatus> status_;
  std::vector<std::size_t> basis_;
  BasisLu lu_;                       // sparse LU of the basis
  std::vector<double> rho_;          // BTRAN unit-vector scratch
  std::vector<double> y_;            // incrementally maintained duals
  std::vector<double> d_;            // cached reduced costs
  std::vector<double> devex_weight_; // Devex reference weights
  std::vector<double> pivot_row_;    // rho_/pivot for the pricing pass
  std::vector<double> alpha_;        // dual: tableau pivot row rho . A_j
  std::vector<double> dual_weight_;  // dual: Devex row reference weights
  std::vector<double> flip_rhs_;     // dual: batched bound-flip FTRAN rhs
  std::vector<std::uint32_t> rhs_pattern_;  // FTRAN RHS nonzero rows
  std::vector<std::uint32_t> rho_pattern_;  // BTRAN result nonzero rows
  bool rho_pattern_valid_ = false;   // rho_ zero outside rho_pattern_?
  std::vector<std::uint64_t> col_stamp_;  // candidate-enumeration dedup
  std::uint64_t col_epoch_ = 0;
  std::vector<std::uint64_t> row_stamp_;  // flip-batch pattern dedup
  std::uint64_t row_epoch_ = 0;
  /// Upper bound on the largest nonbasic Devex weight, maintained so the
  /// sparse pricing pass reproduces the dense pass's reset decisions
  /// exactly (see maybe_reset_devex).
  double devex_wmax_ub_ = 1.0;
  double objective_ = 0;             // incrementally maintained phase obj
  bool duals_clean_ = false;         // y_ recomputed since the last pivot?
  bool dual_mode_ = false;           // is the running phase the dual's?
  bool dual_abort_ = false;          // dual stalled: rerun cold primal
  bool dual_shifted_ = false;        // costs shifted: primal cleanup owed
  std::size_t iterations_ = 0;
  std::size_t refactorizations_ = 0;
  // The last basis the LU factorized (restore_good_basis), the iteration
  // it was factorized at, and how many pivots still get a verifying
  // factorization each after a rollback to it.
  std::vector<std::size_t> good_basis_;
  std::vector<VarStatus> good_status_;
  std::size_t good_iteration_ = 0;
  std::size_t verify_pivots_ = 0;
  // Primal: column refused as entering until the next committed pivot
  // (its pivot on fresh factors made the basis singular), or SIZE_MAX.
  std::size_t banned_ = SIZE_MAX;
  // Per-phase loop state, reset by run_phase: pivots since the last
  // factorization (0 right after one), the phase objective at the last
  // improvement, and the stall counter with its Bland-mode switch.
  std::size_t pivots_since_refactor_ = 0;
  double last_objective_ = 0;
  std::size_t stall_count_ = 0;
  bool bland_ = false;
  double rhs_scale_ = 0;

  // Telemetry tallies (observation only; published by publish_metrics).
  std::size_t refactor_cause_[static_cast<std::size_t>(
      RefactorCause::kCount)] = {};
  std::size_t degenerate_pivots_ = 0;
  std::size_t degenerate_streak_ = 0;
  std::size_t degenerate_streak_max_ = 0;
  std::size_t devex_resets_ = 0;
  std::size_t bound_flips_ = 0;
  std::size_t warm_attempts_ = 0;
  std::size_t warm_accepted_ = 0;
  std::size_t warm_shape_ = 0;       // wrong dimensions or basis list
  std::size_t warm_singular_ = 0;    // the LU rejected the repaired basis
  std::size_t warm_repaired_ = 0;    // accepted imports that needed repair
  bool import_repaired_ = false;     // repair_singular_basis() ran
  std::size_t warm_infeasible_ = 0;  // primal import outside its bounds
  std::size_t dual_solves_ = 0;
  std::size_t dual_fallbacks_ = 0;
  std::size_t feasibility_lost_ = 0;
  std::size_t dual_repair_flips_ = 0;
  std::size_t dual_cost_shifts_ = 0;
  std::size_t ftran_sparse_ = 0;
  std::size_t ftran_dense_ = 0;
  std::size_t btran_sparse_ = 0;
  std::size_t btran_dense_ = 0;
  SparseGate ftran_gate_;
  SparseGate btran_gate_;
};

}  // namespace

LpSolution solve_simplex(const LpModel& model, const SimplexOptions& options) {
  WANPLACE_REQUIRE(model.variable_count() > 0, "empty model");
  Simplex solver(model, options);
  return solver.run();
}

}  // namespace wanplace::lp
