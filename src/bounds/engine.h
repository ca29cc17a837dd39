// Lower-bound engine: the pipeline of Section 5.
//
// For one (instance, heuristic class): check achievability, build the LP
// relaxation, solve it (the exact simplex under a work budget, PDHG when the
// budget runs out), extract the certified lower bound, and round the
// fractional solution into a feasible placement that witnesses the bound's
// tightness.
#pragma once

#include <string>

#include "bounds/rounding.h"
#include "lp/pdhg.h"
#include "lp/simplex.h"
#include "mcperf/achievability.h"

namespace wanplace::bounds {

struct BoundOptions {
  /// Auto runs the simplex on every LP under a deterministic work budget
  /// (solve_lp) and re-solves with PDHG when the budget runs out. Simplex
  /// and Pdhg force one solver with no budget and no fallback.
  enum class Solver { Auto, Simplex, Pdhg };
  Solver solver = Solver::Auto;
  lp::SimplexOptions simplex;
  lp::PdhgOptions pdhg;
  RoundingOptions rounding;
  bool run_rounding = true;
  /// Ignored: every solver runs on the calling thread. Kept only because
  /// perfbench/src/serve.cpp and perfbench/src/select.cpp set it, and
  /// perfbench/ may not change outside a change to the benchmark.
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

/// Which solver produced an LP result, and whether it stopped at a cap
/// short of optimality (its bound is then certified but loose).
struct SolverRun {
  enum class Path {
    Simplex,
    Pdhg,
    /// Auto's simplex spent its work budget; PDHG re-solved the LP.
    SimplexThenPdhg,
  };
  /// Whether the solver that produced the result stopped at its iteration
  /// cap: PDHG's (see solve_lp), or the iteration limit of a forced simplex
  /// (Auto's simplex falls back to PDHG there instead).
  enum class Cap { None, Iterations };
  Path path = Path::Simplex;
  Cap cap = Cap::None;
};

/// "simplex", "pdhg" or "simplex->pdhg", then " (iteration cap)" when the
/// solver stopped at its cap.
std::string to_string(const SolverRun& run);

/// The simplex work budget of Solver::Auto, in pivots x (rows + columns):
/// a solve gets kSimplexWorkBudget / (rows + columns) pivots. A pivot's
/// cost grows with the LP's size; on the default 12-node `gen-example`
/// general LP (22,893 rows, 41,601 columns) 3876 pivots took 1.02 s, ~4 ns
/// per pivot per row-or-column (Xeon at 2.1 GHz), so the budget is about a
/// second of pivoting at any size. The most pivot-heavy case-study solve
/// (storage-constrained at tqos 0.99: 3856 pivots x 12,197) uses a fifth
/// of it. Deterministic: the budget counts pivots, never reads a clock.
constexpr double kSimplexWorkBudget = 2.5e8;

/// The PDHG work budget of solve_lp, in iterations x (rows + columns): every
/// PDHG solve, forced or after a fallback, runs at most
/// kPdhgWorkBudget / (rows + columns) iterations. An iteration costs ~8-19
/// ns per row-or-column (Xeon at 2.1 GHz, idle to busy host), so the budget
/// is 4-10 s of PDHG at any size, below what 10 s of PDHG reached on every
/// non-converging solve of the README quickstart and the default
/// `gen-example` `select` at parallelism 1 and 4 (the least: 7,999 x
/// 64,759 = 5.2e8). Deterministic: the budget counts iterations, never
/// reads a clock.
constexpr double kPdhgWorkBudget = 5e8;

/// One LP solve under the options' solver policy; the bound pipeline and
/// the deployment planner both solve through it.
struct LpRun {
  lp::LpSolution solution;
  SolverRun solver;
  /// options.warm.basis matched the model and seeded the dual simplex.
  bool warm = false;
};

/// Solve `model`, built from `instance` (whose largest possible cost is
/// PDHG's infeasibility threshold). Auto runs the simplex with
/// max_iterations = kSimplexWorkBudget / (rows + columns) when
/// options.simplex.max_iterations is 0, and when the simplex stops at its
/// iteration limit re-solves cold with PDHG, counted as
/// `bounds.pdhg_fallback`. Every PDHG solve runs at most
/// min(options.pdhg.max_iterations, kPdhgWorkBudget / (rows + columns))
/// iterations; stopping there is counted as `bounds.pdhg_iteration_cap`.
/// options.warm.basis warm-starts the dual simplex when its shape matches
/// the model.
LpRun solve_lp(const mcperf::Instance& instance, const lp::LpModel& model,
               const BoundOptions& options);

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
  /// The solver that produced `lower_bound` (left at its default when the
  /// achievability gate stopped the class before any solve).
  SolverRun solver;
  /// Iterations of that solver; after a fallback, PDHG's.
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
