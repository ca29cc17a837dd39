// Bounded-variable simplex: two-phase primal, plus a dual method for
// warm-started re-optimization.
//
// Exact (to numerical tolerance) LP oracle used for small and medium
// instances: unit tests, cross-validation of the PDHG solver, and
// rounding-algorithm verification. The basis is represented by a sparse LU
// factorization (Markowitz-ordered, threshold-pivoted; see lp/lu.h) kept
// current across pivots by Forrest–Tomlin updates of the U factor in place,
// so per-iteration cost tracks the *current* basis sparsity rather than the
// pivot history, and the refactorization period stretches into the
// thousands. Tests check its optima against an independent KKT certificate
// (tests/lp_certify.h).
//
// Hot path: reduced costs, duals and the phase objective are maintained
// incrementally across pivots (refreshed at every refactorization), and
// pricing is dynamic Devex — reference weights updated from the pivot row
// each iteration, with the reference framework reset when the weights
// drift too far. The pivot-row pass visits only the columns that meet a
// sparse BTRAN result's rows, or every column otherwise, on the calling
// thread. Before declaring optimality after incremental updates, the solver
// refactorizes and re-prices from scratch, so termination is always
// certified against freshly computed duals.
//
// Method::Dual runs the dual simplex instead: starting from a dual-feasible
// basis (a supplied BasisSnapshot, repaired by flipping boxed nonbasics
// whose reduced costs have the wrong sign, or the cold slack basis), it
// prices the most primal-infeasible row under dual Devex row weights and
// restores feasibility with a bound-flipping ratio test — the natural
// method when a previous solve's basis is nearly optimal for a model with
// a handful of changed bounds or costs (planner phase 2, per-class
// re-solves). When the dual path cannot run (no dual-feasible start, a
// stall or an unusable snapshot), solve_simplex transparently falls back
// to the cold two-phase primal and counts the event under
// `simplex.dual.fallbacks`, so the result is correct either way.
#pragma once

#include <cstddef>

#include "lp/model.h"

namespace wanplace::lp {

struct SimplexOptions {
  enum class Method {
    /// Two-phase primal simplex (the default): artificials out in phase 1,
    /// real objective in phase 2.
    Primal,
    /// Dual simplex: dual-feasible start (warm basis or cold slack basis,
    /// repaired by boxed-variable flips), leaving row chosen by primal
    /// infeasibility under dual Devex row weights, entering column by a
    /// bound-flipping ratio test. Falls back to the cold primal whenever a
    /// dual-feasible start cannot be established.
    Dual,
  };
  Method method = Method::Primal;

  /// Optional starting basis from a previous solve of a same-shaped model
  /// (LpSolution::basis). Borrowed for the duration of the solve. Ignored
  /// when empty or shape-incompatible. A basis singular for the new model
  /// is repaired, not ignored: each dependent column the LU could not pivot
  /// is swapped for the logical (slack, else artificial) of an unpivoted
  /// row, counted as `simplex.warm.repaired`; only a repair that still does
  /// not factorize is ignored. A primal solve additionally requires the
  /// imported point to be primal feasible (the dual method exists precisely
  /// because re-optimization starts usually are not).
  const BasisSnapshot* warm_start = nullptr;

  std::size_t max_iterations = 0;  // 0 = automatic (scales with model size)
  double tolerance = 1e-7;
  /// Refactorize the basis every this many pivots; 0 = automatic (4096:
  /// Forrest–Tomlin solves track current factor sparsity, so the fill
  /// guard below usually fires first). Incremental updates plus the
  /// refresh-before-optimal check keep long periods safe.
  std::size_t refactor_period = 0;
  /// Switch to Bland's rule after this many non-improving iterations.
  std::size_t stall_limit = 512;

  /// Dynamic Devex pricing: reference weights are updated from the pivot
  /// row each basis change and reduced costs maintained incrementally, so
  /// pricing is a cached-score scan with no matrix work. Reset the
  /// reference framework (all weights to 1) when the largest weight
  /// exceeds this (weights grow monotonically between resets; very large
  /// weights mean the reference frame no longer resembles the current
  /// basis and the steepest-edge approximation has degraded).
  double devex_reset_threshold = 1e7;

  /// Refactorize when the factor + R-file nonzeros exceed this multiple of
  /// the post-factorization nonzeros (fill-in guard; updates add spike and
  /// elimination fill that a fresh factorization re-compresses).
  double ft_fill_factor = 3.0;
  /// A ratio-test pivot smaller than this while updates have been applied
  /// is treated as possible numerical drift — the basis is refactorized and
  /// the iteration retried on fresh numbers before the pivot is trusted.
  double lu_stability_tolerance = 1e-7;

  /// RHS-density cutoff for the hyper-sparse FTRAN/BTRAN kernels. A solve
  /// whose tracked nonzero pattern stays below this fraction of the row
  /// count runs the graph-driven sparse triangular passes; above it, the
  /// cache-blocked dense scatter runs instead. 0 forces every solve dense,
  /// 1 (or more) keeps solves sparse whenever the pattern allows. Both
  /// paths compute bit-identical nonzero values, so this knob trades time
  /// only, never answers.
  double sparse_density_threshold = 0.1;
};

/// Solve min c^T x subject to the model's rows and bounds.
///
/// On Optimal: x is primal optimal, y are row duals, and dual_bound equals
/// the objective up to tolerance (it is always a certified lower bound).
/// On Infeasible/Unbounded the solution vectors are meaningless.
LpSolution solve_simplex(const LpModel& model, const SimplexOptions& options = {});

}  // namespace wanplace::lp
