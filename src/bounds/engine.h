// Lower-bound engine: the pipeline of Section 5.
//
// For one (instance, heuristic class): check achievability, build the LP
// relaxation, solve it (simplex when small enough to be exact, PDHG
// otherwise), extract the certified lower bound, and round the fractional
// solution into a feasible placement that witnesses the bound's tightness.
#pragma once

#include <string>

#include "bounds/rounding.h"
#include "lp/pdhg.h"
#include "lp/simplex.h"
#include "mcperf/achievability.h"

namespace wanplace::bounds {

struct BoundOptions {
  enum class Solver { Auto, Simplex, Pdhg };
  Solver solver = Solver::Auto;
  /// Auto picks simplex when the LP has at most this many rows (measured
  /// crossover vs PDHG on this codebase: see bench/lp_solvers). With the
  /// sparse LU basis the simplex stays exact and competitive well past the
  /// old dense-inverse limit of 600 rows; Forrest-Tomlin updates + dynamic
  /// Devex pricing moved the crossover up again — the 3914-row MC-PERF
  /// case-study LP solves exactly in ~0.3 s vs ~0.5 s for PDHG with a
  /// 1.6% rounding gap, so the limit now covers it.
  std::size_t simplex_row_limit = 4000;
  lp::SimplexOptions simplex;
  lp::PdhgOptions pdhg;
  RoundingOptions rounding;
  bool run_rounding = true;
  /// Worker threads for the solve (the PDHG matvec pair and the simplex
  /// dynamic-Devex pivot-row pass on >=2000-row models):
  /// 0 = hardware concurrency, 1 = fully serial. Purely a wall-clock knob —
  /// bounds are bit-identical for every value (see PdhgOptions /
  /// SimplexOptions::parallelism).
  std::size_t parallelism = 0;

  /// Warm start for a re-solve of a model with the same shape: the
  /// daemon's per-event re-solve or a direct re-bound of a perturbed
  /// instance. `basis` (borrowed for the call) feeds the simplex dual
  /// method when its shape matches the LP; a null or incompatible basis,
  /// and every PDHG-routed solve, starts cold. Warm starts never change
  /// what the engine reports beyond iteration counts: simplex results are
  /// basis-optimal either way.
  struct WarmStart {
    const lp::BasisSnapshot* basis = nullptr;
  };
  WarmStart warm;
};

/// The inherent-cost estimate for one heuristic class.
struct ClassBound {
  std::string class_name;

  /// Best-case QoS of the class; when below the goal the class simply
  /// cannot meet it (the paper's missing curve points).
  double max_achievable_qos = 0;
  bool achievable = false;

  lp::SolveStatus status = lp::SolveStatus::IterationLimit;
  /// Certified lower bound on the cost of every heuristic in the class.
  double lower_bound = 0;
  /// Cost of the rounded feasible placement (tightness witness; an upper
  /// bound on the class-optimal cost under LP semantics).
  double rounded_cost = 0;
  bool rounded_feasible = false;
  /// (rounded_cost - lower_bound) / max(lower_bound, 1).
  double gap = 0;

  std::size_t lp_rows = 0;
  std::size_t lp_variables = 0;
  std::size_t solver_iterations = 0;
  double solve_seconds = 0;
};

/// Full detail for callers that need the model/solution (e.g. the
/// deployment planner reads the open variables).
struct BoundDetail {
  ClassBound bound;
  mcperf::BuiltModel built;
  lp::LpSolution solution;
  RoundingResult rounding;
};

ClassBound compute_bound(const mcperf::Instance& instance,
                         const mcperf::ClassSpec& spec,
                         const BoundOptions& options = {});

BoundDetail compute_bound_detail(const mcperf::Instance& instance,
                                 const mcperf::ClassSpec& spec,
                                 const BoundOptions& options = {});

/// Solve a model the caller already holds for (instance, spec) — the
/// continuous re-placement path, where the LP was built once and then
/// mutated in step with the instance by mcperf::apply_delta, so the engine
/// must not rebuild it. Takes the model by value: move it in and move
/// `detail.built` back out to carry the state to the next event without a
/// copy; it is returned even when the achievability gate fires, so a
/// transiently unachievable instance does not lose the model. Otherwise
/// behaves exactly like compute_bound_detail; `options.warm.basis`
/// supplies the event-carried (shape-repaired) basis.
BoundDetail compute_bound_built(const mcperf::Instance& instance,
                                const mcperf::ClassSpec& spec,
                                mcperf::BuiltModel built,
                                const BoundOptions& options = {});

}  // namespace wanplace::bounds
