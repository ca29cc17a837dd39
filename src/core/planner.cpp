#include "core/planner.h"

#include <algorithm>

#include "graph/reachability.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/log.h"

namespace wanplace::core {

DeploymentPlanner::DeploymentPlanner(PlannerOptions options)
    : options_(std::move(options)) {
  if (options_.phase2_classes.empty())
    options_.phase2_classes = default_phase2_classes();
}

std::vector<mcperf::ClassSpec> DeploymentPlanner::default_phase2_classes() {
  // Section 6.2: "In these experiments, we do not consider prefetching; all
  // heuristics considered are reactive." The general reactive bound is a
  // reference line in Figure 3, not a deployable class, so it is not part
  // of the recommendation set.
  auto storage = mcperf::classes::storage_constrained();
  storage.reactive = true;
  auto replicas = mcperf::classes::replica_constrained();
  replicas.reactive = true;
  return {storage, replicas, mcperf::classes::caching()};
}

DeploymentPlan DeploymentPlanner::plan(
    const mcperf::Instance& instance) const {
  instance.validate();
  WANPLACE_REQUIRE(instance.origin.has_value(),
                   "deployment planning needs the origin (headquarters)");
  WANPLACE_REQUIRE(!instance.latencies.empty(),
                   "deployment planning needs the latency matrix");
  WANPLACE_REQUIRE(std::holds_alternative<mcperf::QosGoal>(instance.goal),
                   "deployment planning supports the QoS metric");

  // --- phase 1: which sites to open --------------------------------------
  mcperf::Instance phase1 = instance;
  phase1.costs.zeta = options_.zeta;
  const auto detail = bounds::compute_bound_detail(
      phase1, mcperf::classes::general(), options_.bounds);
  WANPLACE_REQUIRE(detail.bound.achievable,
                   "goal unachievable even for the general class");

  DeploymentPlan plan;
  plan.phase1_lower_bound = detail.bound.lower_bound;
  plan.phase1_solver = detail.bound.solver;

  // Rank sites by how strongly the LP wants them open, then keep the
  // smallest prefix on which the goal is still achievable. This turns the
  // fractional open variables into a deterministic minimal deployment.
  const std::size_t n_count = instance.node_count();
  const auto origin = static_cast<std::size_t>(*instance.origin);
  std::vector<std::pair<double, std::size_t>> score;
  for (std::size_t n = 0; n < n_count; ++n) {
    if (n == origin) continue;
    double value = 0;
    if (!detail.built.open.empty() && detail.built.open[n] >= 0)
      value = detail.solution.x[static_cast<std::size_t>(
          detail.built.open[n])];
    // Tie-break by total fractional storage placed on the node.
    double mass = 0;
    for (std::size_t i = 0; i < instance.interval_count(); ++i)
      for (std::size_t k = 0; k < instance.object_count(); ++k)
        mass += detail.solution.x[static_cast<std::size_t>(
            detail.built.store(n, i, k))];
    score.emplace_back(value + 1e-6 * mass, n);
  }
  std::sort(score.begin(), score.end(), std::greater<>());

  // A candidate open set is feasible when each QoS accounting group can
  // still meet its ratio: reads at a site that reaches no open node within
  // Tlat are structurally unserviceable, and constraint (2) tolerates up to
  // a (1 - tqos) fraction of each group's reads missing the latency goal.
  // At tqos == 1 this degenerates to the strict rule (every site with
  // demand must reach an open node); for per-user scopes an uncovered site
  // always busts its own group, so the slack only ever helps the pooled
  // scopes (Overall, PerObject) — exactly the cases where requiring full
  // coverage used to open sites the QoS slack already paid for.
  const auto& goal = std::get<mcperf::QosGoal>(instance.goal);
  const mcperf::QosGroups groups(instance, goal.scope);
  const double slack = 1.0 - goal.tqos;
  auto achievable_with = [&](const std::vector<graph::NodeId>& nodes) {
    std::vector<double> uncovered(groups.count(), 0.0);
    for (std::size_t n = 0; n < n_count; ++n) {
      if (instance.demand.total_reads(n) <= 0) continue;
      bool reachable = false;
      for (const auto m : nodes)
        if (instance.dist(n, static_cast<std::size_t>(m))) {
          reachable = true;
          break;
        }
      if (reachable) continue;
      if (slack <= 0) return false;
      for (std::size_t k = 0; k < instance.object_count(); ++k) {
        double reads = 0;
        for (std::size_t i = 0; i < instance.interval_count(); ++i)
          reads += instance.demand.read(n, i, k);
        uncovered[groups.group_of(n, k)] += reads;
      }
    }
    for (std::size_t g = 0; g < groups.count(); ++g)
      if (uncovered[g] > slack * groups.total_reads(g) + 1e-9) return false;
    return true;
  };

  plan.open_nodes = {static_cast<graph::NodeId>(origin)};
  for (const auto& [value, n] : score) {
    if (achievable_with(plan.open_nodes)) break;
    plan.open_nodes.push_back(static_cast<graph::NodeId>(n));
    std::sort(plan.open_nodes.begin(), plan.open_nodes.end());
  }
  WANPLACE_REQUIRE(achievable_with(plan.open_nodes),
                   "no prefix of ranked sites achieves the goal");
  log_info("planner: phase 1 opened ", plan.open_nodes.size(), " of ",
           n_count, " sites");

  // --- phase 2 re-optimization: cost of operating the deployment ----------
  // Same LP as phase 1 with a handful of changed bounds: every open
  // variable is fixed to the decision. The opening costs stay in the
  // objective — fixed columns contribute a constant zeta * |open|, which is
  // subtracted from the bound below. Keeping the objective untouched is
  // what makes the warm start pay: a bounds-only perturbation leaves the
  // phase-1 basis dual feasible, so the dual simplex re-optimizes in a few
  // pivots (zeroing zeta would move the duals through the basic fractional
  // open columns and force a cold fallback). The solve goes through the
  // bound engine's solver policy; a PDHG re-solve starts cold.
  {
    obs::Span span("planner.phase2");
    lp::LpModel model = detail.built.model;
    std::vector<char> is_open(n_count, 0);
    for (const auto m : plan.open_nodes)
      is_open[static_cast<std::size_t>(m)] = 1;
    double open_cost = 0;  // the fixed columns' constant objective share
    for (std::size_t n = 0; n < n_count; ++n) {
      if (detail.built.open.empty() || detail.built.open[n] < 0) continue;
      const auto j = static_cast<std::size_t>(detail.built.open[n]);
      if (is_open[n]) open_cost += model.objective(j);
      model.fix_variable(j, is_open[n] ? 1.0 : 0.0);
    }
    bounds::BoundOptions refit_options = options_.bounds;
    refit_options.warm.basis =
        options_.warm_phase2 ? &detail.solution.basis : nullptr;
    const auto [refit, solver, warm] =
        bounds::solve_lp(phase1, model, refit_options);
    plan.phase2_solver = solver;
    if (refit.status != lp::SolveStatus::Infeasible)
      plan.phase2_lower_bound =
          std::max(0.0, refit.dual_bound - open_cost);
    if (span.active()) {
      span.attr("iterations", static_cast<double>(refit.iterations));
      span.attr("warm", warm ? 1.0 : 0.0);
    }
    if (obs::metrics_enabled()) {
      obs::counter_add("planner.phase2.solves");
      obs::counter_add("planner.phase2.iterations",
                       static_cast<double>(refit.iterations));
      if (warm) obs::counter_add("planner.phase2.warm_starts");
    }
    log_info("planner: phase 2 bound ", plan.phase2_lower_bound, " in ",
             refit.iterations, warm ? " warm" : " cold", " iterations (",
             bounds::to_string(solver), ")");
  }

  // --- assignment: users go to the nearest deployed node ------------------
  plan.assignment =
      graph::nearest_assignment(instance.latencies, plan.open_nodes);

  // --- phase 2: reduced instance -----------------------------------------
  const std::size_t reduced_n = plan.open_nodes.size();
  std::vector<std::size_t> index_of(n_count, SIZE_MAX);
  for (std::size_t r = 0; r < reduced_n; ++r)
    index_of[static_cast<std::size_t>(plan.open_nodes[r])] = r;

  plan.reduced.latencies =
      graph::restrict_latencies(instance.latencies, plan.open_nodes);
  plan.reduced.dist = BoolMatrix(reduced_n, reduced_n);
  for (std::size_t a = 0; a < reduced_n; ++a)
    for (std::size_t b = 0; b < reduced_n; ++b)
      plan.reduced.dist(a, b) =
          instance.dist(plan.open_nodes[a], plan.open_nodes[b]);
  plan.reduced.demand = workload::Demand(
      reduced_n, instance.interval_count(), instance.object_count());
  for (std::size_t n = 0; n < n_count; ++n) {
    const auto serving =
        index_of[static_cast<std::size_t>(plan.assignment[n])];
    WANPLACE_CHECK(serving != SIZE_MAX, "assignment to closed node");
    for (std::size_t i = 0; i < instance.interval_count(); ++i)
      for (std::size_t k = 0; k < instance.object_count(); ++k) {
        plan.reduced.demand.read(serving, i, k) +=
            instance.demand.read(n, i, k);
        plan.reduced.demand.write(serving, i, k) +=
            instance.demand.write(n, i, k);
      }
  }
  plan.reduced.costs = instance.costs;
  plan.reduced.costs.zeta = 0;  // sites are decided; no opening cost now
  plan.reduced.goal = instance.goal;
  plan.reduced.origin = static_cast<graph::NodeId>(
      index_of[static_cast<std::size_t>(*instance.origin)]);

  if (options_.run_phase2) {
    SelectorOptions selector_options;
    selector_options.classes = options_.phase2_classes;
    selector_options.bounds = options_.bounds;
    plan.selection =
        HeuristicSelector(selector_options).select(plan.reduced);
  }
  return plan;
}

}  // namespace wanplace::core
