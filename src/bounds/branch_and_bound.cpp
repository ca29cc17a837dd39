#include "bounds/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "mcperf/builder.h"
#include "util/check.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace wanplace::bounds {

namespace {

struct Searcher {
  const mcperf::Instance& instance;
  const mcperf::ClassSpec& spec;
  const BnbOptions& options;
  mcperf::BuiltModel built;
  Stopwatch watch;
  BnbResult best;
  bool limits_hit = false;
  double root_bound = 0;

  explicit Searcher(const mcperf::Instance& inst,
                    const mcperf::ClassSpec& sp, const BnbOptions& opts)
      : instance(inst), spec(sp), options(opts) {
    built = mcperf::build_lp(instance, spec);
    best.cost = std::numeric_limits<double>::infinity();
  }

  bool out_of_budget() {
    if (best.nodes_explored >= options.max_nodes) {
      limits_hit = true;
      return true;
    }
    return false;
  }

  /// Most fractional unfixed store variable in the LP point, or SIZE_MAX.
  std::size_t pick_branch(const std::vector<double>& x) const {
    std::size_t chosen = SIZE_MAX;
    double best_score = 1e-6;  // distance from integrality
    for (std::size_t n = 0; n < instance.node_count(); ++n) {
      if (instance.is_origin(n)) continue;
      for (std::size_t i = 0; i < instance.interval_count(); ++i)
        for (std::size_t k = 0; k < instance.object_count(); ++k) {
          const auto var =
              static_cast<std::size_t>(built.store(n, i, k));
          if (built.model.lower(var) == built.model.upper(var)) continue;
          const double value = x[var];
          const double score = std::min(value, 1 - value);
          if (score > best_score) {
            best_score = score;
            chosen = var;
          }
        }
    }
    return chosen;
  }

  Placement extract_placement(const std::vector<double>& x) const {
    Placement placement(instance.node_count(), instance.interval_count(),
                        instance.object_count());
    for (std::size_t n = 0; n < instance.node_count(); ++n) {
      if (instance.is_origin(n)) continue;
      for (std::size_t i = 0; i < instance.interval_count(); ++i)
        for (std::size_t k = 0; k < instance.object_count(); ++k)
          placement(n, i, k) =
              x[static_cast<std::size_t>(built.store(n, i, k))] > 0.5 ? 1
                                                                      : 0;
    }
    return placement;
  }

  void search() {
    ++best.nodes_explored;
    if (out_of_budget()) return;

    const auto relaxation = lp::solve_simplex(built.model, options.simplex);
    if (relaxation.status == lp::SolveStatus::Infeasible) return;
    WANPLACE_CHECK(relaxation.status == lp::SolveStatus::Optimal,
                   "unexpected relaxation status in branch and bound");
    if (best.nodes_explored == 1) root_bound = relaxation.dual_bound;
    // Any integral descendant costs at least the relaxation objective (the
    // class-semantics cost only adds padding on top of it).
    if (relaxation.objective >= best.cost - 1e-9) return;

    const std::size_t branch_var = pick_branch(relaxation.x);
    if (branch_var == SIZE_MAX) {
      // Integral (up to tolerance): evaluate under class semantics.
      const Placement placement = extract_placement(relaxation.x);
      const Evaluation eval =
          evaluate_placement(instance, spec, placement);
      if (eval.feasible() && eval.cost < best.cost) {
        best.feasible = true;
        best.cost = eval.cost;
        best.placement = placement;
      }
      return;
    }

    const double saved_lower = built.model.lower(branch_var);
    const double saved_upper = built.model.upper(branch_var);
    // Explore the round-down child first (cheaper solutions first).
    built.model.set_bounds(branch_var, 0, 0);
    search();
    built.model.set_bounds(branch_var, 1, 1);
    search();
    built.model.set_bounds(branch_var, saved_lower, saved_upper);
  }
};

}  // namespace

BnbResult solve_branch_and_bound(const mcperf::Instance& instance,
                                 const mcperf::ClassSpec& spec,
                                 const BnbOptions& options) {
  instance.validate();
  WANPLACE_REQUIRE(std::holds_alternative<mcperf::QosGoal>(instance.goal),
                   "branch and bound supports the QoS metric");
  Searcher searcher(instance, spec, options);
  searcher.search();

  BnbResult result = std::move(searcher.best);
  result.proven_optimal = result.feasible && !searcher.limits_hit;
  result.lower_bound = result.proven_optimal
                           ? result.cost
                           : std::max(0.0, searcher.root_bound);
  if (!result.feasible) result.cost = 0;
  result.seconds = searcher.watch.elapsed_seconds();
  log_debug("bnb: nodes=", result.nodes_explored, " cost=", result.cost,
            " optimal=", result.proven_optimal);
  return result;
}

}  // namespace wanplace::bounds
