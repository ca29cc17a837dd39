#include "bounds/engine.h"

#include <algorithm>
#include <cmath>

#include "mcperf/builder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace wanplace::bounds {

namespace {

// Deterministic closest-routing audit for tree instances. The LP's
// assignment rows encode "served by the first stored ancestor" exactly, but
// the rounding pass only knows the weaker "some reachable ancestor" coverage
// — so its output must be re-checked under the real routing semantics, and
// the induced per-(up-link, interval) read flows compared against the link
// capacities when any are finite.
bool closest_placement_feasible(const mcperf::Instance& instance,
                                const Placement& placement) {
  const auto& links = *instance.links;
  const std::size_t n_count = instance.node_count();
  const std::size_t i_count = instance.interval_count();
  const std::size_t k_count = instance.object_count();
  const auto& qos = std::get<mcperf::QosGoal>(instance.goal);
  const mcperf::QosGroups groups(instance, qos.scope);
  std::vector<double> covered(groups.count(), 0.0);
  std::vector<double> load(n_count * i_count, 0.0);
  const auto stored = [&](graph::NodeId m, std::size_t i, std::size_t k) {
    return instance.is_origin(m) || placement(m, i, k) != 0;
  };
  for (std::size_t n = 0; n < n_count; ++n) {
    for (std::size_t i = 0; i < i_count; ++i) {
      for (std::size_t k = 0; k < k_count; ++k) {
        const double reads = instance.demand.read(n, i, k);
        if (reads <= 0) continue;
        graph::NodeId serve = static_cast<graph::NodeId>(n);
        while (!stored(serve, i, k) && links.parent[serve] >= 0)
          serve = links.parent[serve];
        if (!stored(serve, i, k) || !instance.dist(n, serve))
          continue;  // first replica on the way up is beyond Tlat (or none)
        covered[groups.group_of(n, k)] += reads;
        for (graph::NodeId walk = static_cast<graph::NodeId>(n);
             walk != serve; walk = links.parent[walk])
          load[static_cast<std::size_t>(walk) * i_count + i] += reads;
      }
    }
  }
  for (std::size_t g = 0; g < groups.count(); ++g) {
    const double total = groups.total_reads(g);
    if (total > 0 && covered[g] / total < qos.tqos - 1e-9) return false;
  }
  for (std::size_t u = 0; u < n_count; ++u) {
    if (links.parent[u] < 0) continue;
    const double cap = links.up_capacity[u];
    if (!std::isfinite(cap)) continue;
    for (std::size_t i = 0; i < i_count; ++i)
      if (load[u * i_count + i] > cap * (1 + 1e-9)) return false;
  }
  return true;
}

// The bound pipeline behind both public entry points. `prebuilt` non-null
// means the caller already holds the LP for (instance, spec) — typically
// delta-maintained across drift events — so the build step is skipped and
// the model is moved into the returned detail even when the achievability
// gate fires (the daemon must keep its model state across transiently
// unachievable instances).
BoundDetail bound_pipeline(const mcperf::Instance& instance,
                           const mcperf::ClassSpec& spec,
                           const BoundOptions& options,
                           mcperf::BuiltModel* prebuilt) {
  Stopwatch watch;
  obs::Span span("bound");
  span.label("class", spec.name);
  BoundDetail detail;
  detail.bound.class_name = spec.name;
  if (prebuilt != nullptr) detail.built = std::move(*prebuilt);

  // Structural feasibility first: can this class reach the QoS goal at all?
  if (std::holds_alternative<mcperf::QosGoal>(instance.goal)) {
    WANPLACE_SPAN("achievability");
    const auto reachability = mcperf::max_achievable_qos(instance, spec);
    detail.bound.max_achievable_qos = reachability.min_qos;
    detail.bound.achievable = reachability.achievable(
        std::get<mcperf::QosGoal>(instance.goal).tqos);
    if (!detail.bound.achievable) {
      detail.bound.status = lp::SolveStatus::Infeasible;
      detail.bound.solve_seconds = watch.elapsed_seconds();
      return detail;
    }
  } else {
    detail.bound.max_achievable_qos = 1.0;
    detail.bound.achievable = true;  // average-latency feasibility is decided
                                     // by the solver
  }

  if (prebuilt == nullptr) {
    WANPLACE_SPAN("build_lp");
    detail.built = mcperf::build_lp(instance, spec);
  }
  detail.bound.lp_rows = detail.built.model.row_count();
  detail.bound.lp_variables = detail.built.model.variable_count();

  LpRun run = solve_lp(instance, detail.built.model, options);
  detail.solution = std::move(run.solution);
  detail.bound.solver = run.solver;
  detail.bound.status = detail.solution.status;
  detail.bound.solver_iterations = detail.solution.iterations;

  if (detail.solution.status == lp::SolveStatus::Infeasible) {
    detail.bound.achievable = false;
    detail.bound.solve_seconds = watch.elapsed_seconds();
    return detail;
  }

  // All costs are non-negative, so the bound is never below zero.
  detail.bound.lower_bound = std::max(0.0, detail.solution.dual_bound);

  const bool rounding_ran =
      options.run_rounding &&
      std::holds_alternative<mcperf::QosGoal>(instance.goal);
  if (rounding_ran) {
    WANPLACE_SPAN("rounding");
    detail.rounding = round_solution(instance, spec, detail.built,
                                     detail.solution.x, options.rounding);
    detail.bound.rounded_feasible = detail.rounding.feasible;
    if (detail.bound.rounded_feasible &&
        spec.routing == mcperf::Routing::Closest &&
        !closest_placement_feasible(instance, detail.rounding.placement))
      detail.bound.rounded_feasible = false;
    if (detail.rounding.feasible) {
      detail.bound.rounded_cost = detail.rounding.evaluation.cost;
      detail.bound.gap =
          (detail.bound.rounded_cost - detail.bound.lower_bound) /
          std::max(detail.bound.lower_bound, 1.0);
    }
  }
  detail.bound.solve_seconds = watch.elapsed_seconds();
  if (span.active()) {
    span.attr("rows", static_cast<double>(detail.bound.lp_rows));
    span.attr("vars", static_cast<double>(detail.bound.lp_variables));
    span.attr("iterations",
              static_cast<double>(detail.bound.solver_iterations));
  }
  if (obs::metrics_enabled()) {
    obs::counter_add("bounds.classes");
    obs::counter_add("bounds.iterations",
                     static_cast<double>(detail.bound.solver_iterations));
    obs::histogram_record("bounds.solve_seconds",
                          detail.bound.solve_seconds);
    if (run.warm) obs::counter_add("bounds.warm_starts");
    // Only a computed gap belongs in the histogram: when rounding was
    // skipped (average-latency goal, run_rounding=false) or came back
    // infeasible, `gap` is still its default 0 and recording it would
    // drag the distribution toward a tightness the run never measured.
    if (rounding_ran && detail.rounding.feasible)
      obs::histogram_record("bounds.gap", detail.bound.gap);
    if (rounding_ran && !detail.rounding.feasible)
      obs::counter_add("bounds.rounding_infeasible");
  }
  log_info("bound[", spec.name, "]: lb=", detail.bound.lower_bound,
           " rounded=", detail.bound.rounded_cost,
           " rows=", detail.bound.lp_rows, " solver=",
           to_string(detail.bound.solver), " time=",
           detail.bound.solve_seconds, "s");
  return detail;
}

}  // namespace

std::string to_string(const SolverRun& run) {
  std::string out = run.path == SolverRun::Path::Simplex ? "simplex"
                    : run.path == SolverRun::Path::Pdhg  ? "pdhg"
                                                         : "simplex->pdhg";
  if (run.cap == SolverRun::Cap::Iterations) out += " (iteration cap)";
  return out;
}

LpRun solve_lp(const mcperf::Instance& instance, const lp::LpModel& model,
               const BoundOptions& options) {
  using Solver = BoundOptions::Solver;
  LpRun run;
  // Iterations that `budget` buys on this LP: budget / (rows + columns).
  const auto affordable = [&](double budget) {
    const auto size = static_cast<double>(model.row_count() +
                                          model.variable_count());
    return std::max<std::size_t>(1, static_cast<std::size_t>(budget / size));
  };
  if (options.solver != Solver::Pdhg) {
    lp::SimplexOptions simplex = options.simplex;
    if (options.solver == Solver::Auto && simplex.max_iterations == 0)
      simplex.max_iterations = affordable(kSimplexWorkBudget);
    const lp::BasisSnapshot* basis = options.warm.basis;
    if (basis != nullptr &&
        basis->compatible(model.variable_count(), model.row_count())) {
      // A near-optimal basis for a perturbed model is dual-feasible (or a
      // few repair flips away), which is exactly the dual method's starting
      // requirement; it falls back to the cold primal on its own if not.
      simplex.warm_start = basis;
      simplex.method = lp::SimplexOptions::Method::Dual;
      run.warm = true;
    }
    run.solution = lp::solve_simplex(model, simplex);
    if (run.solution.status != lp::SolveStatus::IterationLimit) return run;
    if (options.solver == Solver::Simplex) {
      run.solver.cap = SolverRun::Cap::Iterations;
      return run;
    }
    run.solver.path = SolverRun::Path::SimplexThenPdhg;
    if (obs::metrics_enabled()) obs::counter_add("bounds.pdhg_fallback");
    log_info("simplex spent its budget of ", simplex.max_iterations,
             " pivots on ", model.row_count(), " rows; re-solving with PDHG");
  } else {
    run.solver.path = SolverRun::Path::Pdhg;
  }
  lp::PdhgOptions pdhg = options.pdhg;
  if (pdhg.infeasibility_threshold == lp::kInfinity)
    pdhg.infeasibility_threshold = 2 * instance.max_possible_cost() + 1;
  pdhg.max_iterations =
      std::min(pdhg.max_iterations, affordable(kPdhgWorkBudget));
  run.solution = lp::solve_pdhg(model, pdhg);
  if (run.solution.status == lp::SolveStatus::IterationLimit) {
    run.solver.cap = SolverRun::Cap::Iterations;
    if (obs::metrics_enabled()) obs::counter_add("bounds.pdhg_iteration_cap");
  }
  return run;
}

BoundDetail compute_bound_detail(const mcperf::Instance& instance,
                                 const mcperf::ClassSpec& spec,
                                 const BoundOptions& options) {
  return bound_pipeline(instance, spec, options, nullptr);
}

BoundDetail compute_bound_built(const mcperf::Instance& instance,
                                const mcperf::ClassSpec& spec,
                                mcperf::BuiltModel built,
                                const BoundOptions& options) {
  return bound_pipeline(instance, spec, options, &built);
}

ClassBound compute_bound(const mcperf::Instance& instance,
                         const mcperf::ClassSpec& spec,
                         const BoundOptions& options) {
  return compute_bound_detail(instance, spec, options).bound;
}

}  // namespace wanplace::bounds
