// Section 5 claim: the method scales to realistically sized systems (the
// paper reports under 1 minute to ~12 hours with CPLEX on 2004 hardware,
// with the rounding step taking seconds). This bench measures our solver
// pipeline across instance sizes under the engine's Auto policy — exact
// simplex over the Forrest-Tomlin sparse basis under a work budget, PDHG when
// the budget runs out — reporting LP dimensions, the solver that ran, and
// the bound/rounding split.
#include "common.h"

#include <chrono>

#include "core/planner.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "graph/shortest_paths.h"
#include "tree/family.h"
#include "tree/tree_dp.h"

namespace {

using namespace wanplace;

struct Size {
  std::size_t nodes, intervals, objects, requests;
};

/// Single-interval closest-allocation instance on a complete fanout-4 tree
/// of the given depth (85 / 341 / 1365 nodes) — the exact-DP window, so the
/// tree rows can race the DP against the LP pipeline on identical inputs.
mcperf::Instance tree_bench_instance(std::size_t depth) {
  graph::TreeParams params;
  params.depth = depth;
  params.fanout = 4;
  params.level_latency_ms = {100, 70, 50, 30, 30};
  params.local_latency_ms = 10;
  Rng rng(1);
  const auto topology = graph::tree(params, rng);

  mcperf::Instance instance;
  instance.latencies = graph::all_pairs_latencies(topology);
  instance.dist = graph::within_threshold(instance.latencies, 150);
  instance.demand = workload::Demand(topology.node_count(), 1, 1);
  for (std::size_t n = 0; n < topology.node_count(); ++n)
    instance.demand.read(n, 0, 0) = static_cast<double>(1 + n % 4);
  instance.goal = mcperf::QosGoal{1.0, mcperf::QosScope::PerUserPerObject};
  instance.origin = 0;
  instance.links = tree::extract_links(topology, 0, 150);
  instance.costs.alpha = 1;
  instance.costs.beta = 0.5;
  return instance;
}

/// Register the tree-family crossover points: the exact DP vs the exact
/// simplex LP vs PDHG on the same hierarchical instances. One row per
/// (size, method); for the DP the solver-iters column carries the DP state
/// count and the LP dimension columns are blank.
void register_tree_points() {
  for (const std::size_t depth : {3u, 4u, 5u}) {
    const std::size_t nodes = graph::tree_node_count(depth, 4);
    const std::string label = "scaling/tree/N=" + std::to_string(nodes);
    ::benchmark::RegisterBenchmark(
        label.c_str(),
        [depth, nodes](::benchmark::State& state) {
          const auto instance = tree_bench_instance(depth);
          const auto spec = mcperf::classes::closest();

          tree::TreeDpResult dp;
          double dp_s = 0;
          bounds::BoundDetail auto_detail, pdhg_detail;
          double auto_it = 0, auto_s = 0, pdhg_it = 0, pdhg_s = 0;
          for (auto _ : state) {
            const auto start = std::chrono::steady_clock::now();
            dp = tree::solve_tree_dp(instance, spec);
            dp_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();

            auto options = bench::bound_options();
            options.solver = bounds::BoundOptions::Solver::Auto;
            bench::reset_metrics();
            auto_detail = bounds::compute_bound_detail(instance, spec,
                                                       options);
            auto_it = bench::metric_sum("bounds.iterations");
            auto_s = bench::metric_sum("bounds.solve_seconds");

            options.solver = bounds::BoundOptions::Solver::Pdhg;
            bench::reset_metrics();
            pdhg_detail = bounds::compute_bound_detail(instance, spec,
                                                       options);
            pdhg_it = bench::metric_sum("bounds.iterations");
            pdhg_s = bench::metric_sum("bounds.solve_seconds");
          }
          state.counters["dp_seconds"] = dp_s;
          state.counters["dp_optimum"] = dp.optimum;
          state.counters["lp_bound"] = auto_detail.bound.lower_bound;

          bench::results()
              .cell(static_cast<std::int64_t>(nodes))
              .cell(std::int64_t{1})
              .cell(std::int64_t{1})
              .cell("-")
              .cell("-")
              .cell("tree-dp")
              .cell(static_cast<std::int64_t>(dp.states))
              .cell(dp_s, 3)
              .cell(dp.states > 0
                        ? format_number(dp_s / dp.states * 1e6, 2)
                        : std::string("-"))
              .cell("-")
              .cell("-")
              .cell("-")
              .cell("-");
          bench::results().finish_row();
          for (const bool pdhg : {false, true}) {
            const auto& detail = pdhg ? pdhg_detail : auto_detail;
            const double it = pdhg ? pdhg_it : auto_it;
            const double secs = pdhg ? pdhg_s : auto_s;
            bench::results()
                .cell(static_cast<std::int64_t>(nodes))
                .cell(std::int64_t{1})
                .cell(std::int64_t{1})
                .cell(static_cast<std::int64_t>(detail.bound.lp_rows))
                .cell(static_cast<std::int64_t>(detail.bound.lp_variables))
                .cell(bounds::to_string(detail.bound.solver))
                .cell(static_cast<std::int64_t>(it))
                .cell(secs, 3)
                .cell(it > 0 ? format_number(secs / it * 1e6, 1)
                             : std::string("-"))
                .cell(static_cast<std::int64_t>(bench::metric_sum(
                    "rounding.round_ups")))
                .cell(detail.bound.rounded_feasible
                          ? format_number(detail.bound.gap, 3)
                          : std::string("-"))
                .cell("-")
                .cell("-");
            bench::results().finish_row();
          }
        })
        ->Iterations(1)
        ->Unit(::benchmark::kSecond);
  }
}

void register_points() {
  bench::results({"nodes", "intervals", "objects", "lp-rows", "lp-vars",
                  "solver", "solver-iters", "bound-seconds", "us/it",
                  "round-ups", "gap", "re-cold-it", "re-warm-it"});
  const std::vector<Size> sizes{
      {6, 6, 30, 6'000},     {8, 8, 40, 12'000},  {8, 8, 60, 16'000},
      {12, 12, 120, 36'000}, {12, 12, 240, 72'000}, {16, 12, 240, 96'000},
  };
  for (const auto size : sizes) {
    const std::string label = "scaling/N=" + std::to_string(size.nodes) +
                              "/I=" + std::to_string(size.intervals) +
                              "/K=" + std::to_string(size.objects);
    ::benchmark::RegisterBenchmark(
        label.c_str(),
        [size](::benchmark::State& state) {
          core::CaseStudyConfig config;
          config.node_count = size.nodes;
          config.interval_count = size.intervals;
          config.object_count = size.objects;
          config.web_requests = size.requests;
          config.group_requests = size.requests;  // unused here
          config.web_head_count = std::max<std::size_t>(4, size.objects / 10);
          const auto study = core::make_case_study(config);
          const auto instance = study.web_instance(0.99);
          const auto instance97 = study.web_instance(0.97);

          auto options = bench::bound_options();
          options.solver = bounds::BoundOptions::Solver::Auto;
          bounds::BoundDetail detail;
          double solver_it = 0, bound_s = 0, round_ups = 0;
          double class_cold_it = 0, class_warm_it = 0;
          for (auto _ : state) {
            // The iteration/seconds/round-up columns come from the
            // telemetry registry (reset per run), not the result struct —
            // one source of truth with any trace of the same solve.
            bench::reset_metrics();
            detail = bounds::compute_bound_detail(
                instance, mcperf::classes::general(), options);
            solver_it = bench::metric_sum("bounds.iterations");
            bound_s = bench::metric_sum("bounds.solve_seconds");
            round_ups = bench::metric_sum("rounding.round_ups");

            // Re-optimization after a goal change: the same LP re-bounded
            // at tqos = 0.97 (only the QoS row rhs moves, so the shape —
            // and therefore the exported basis — carries over), cold vs
            // warm-started from the 0.99 solve's basis. A 0.99 solve that
            // fell back to PDHG leaves no basis, so both columns are cold
            // re-solves there.
            auto re_options = options;
            re_options.run_rounding = false;
            bench::reset_metrics();
            bounds::compute_bound_detail(instance97,
                                         mcperf::classes::general(),
                                         re_options);
            class_cold_it = bench::metric_sum("bounds.iterations");
            re_options.warm.basis = &detail.solution.basis;
            bench::reset_metrics();
            bounds::compute_bound_detail(instance97,
                                         mcperf::classes::general(),
                                         re_options);
            class_warm_it = bench::metric_sum("bounds.iterations");
          }
          state.counters["rows"] =
              static_cast<double>(detail.bound.lp_rows);
          state.counters["bound"] = detail.bound.lower_bound;
          bench::results()
              .cell(static_cast<std::int64_t>(size.nodes))
              .cell(static_cast<std::int64_t>(size.intervals))
              .cell(static_cast<std::int64_t>(size.objects))
              .cell(static_cast<std::int64_t>(detail.bound.lp_rows))
              .cell(static_cast<std::int64_t>(detail.bound.lp_variables))
              .cell(bounds::to_string(detail.bound.solver))
              .cell(static_cast<std::int64_t>(solver_it))
              .cell(bound_s, 2)
              .cell(solver_it > 0
                        ? format_number(bound_s / solver_it * 1e6, 1)
                        : std::string("-"))
              .cell(static_cast<std::int64_t>(round_ups))
              .cell(detail.bound.rounded_feasible
                        ? format_number(detail.bound.gap, 3)
                        : std::string("-"))
              .cell(static_cast<std::int64_t>(class_cold_it))
              .cell(static_cast<std::int64_t>(class_warm_it));
          bench::results().finish_row();
        })
        ->Iterations(1)
        ->Unit(::benchmark::kSecond);
  }

  // Planner phase-2 re-optimization: the phase-1 LP re-solved with the
  // open set fixed — warm (dual simplex from the phase-1 basis) vs cold
  // (two-phase primal from scratch). One row per mode; the solver-iters
  // column is the phase-2 pivot count. K=30 keeps the planner model
  // (3733 rows: the open columns add coverage-linking rows over the
  // general class's 2053) well inside the Auto policy's simplex budget.
  ::benchmark::RegisterBenchmark(
      "scaling/planner-phase2",
      [](::benchmark::State& state) {
        core::CaseStudyConfig config;
        config.node_count = 8;
        config.interval_count = 8;
        config.object_count = 30;
        config.web_requests = 12'000;
        config.web_head_count = 4;
        const auto study = core::make_case_study(config);
        const auto instance = study.web_instance(0.99);
        core::PlannerOptions planner;
        planner.bounds = bench::bound_options();
        // bound_options() pins PDHG for the figure pipelines; the planner
        // point exercises the Auto policy so the 3733-row model takes the
        // exact-simplex path and the phase-2 column counts pivots.
        planner.bounds.solver = bounds::BoundOptions::Solver::Auto;
        planner.run_phase2 = false;  // isolate the LP re-optimization
        double cold_it = 0, warm_it = 0, cold_s = 0, warm_s = 0;
        for (auto _ : state) {
          planner.warm_phase2 = false;
          bench::reset_metrics();
          core::DeploymentPlanner(planner).plan(instance);
          cold_it = bench::metric_sum("planner.phase2.iterations");
          cold_s = bench::metric_sum("simplex.solve_seconds") +
                   bench::metric_sum("pdhg.solve_seconds");
          planner.warm_phase2 = true;
          bench::reset_metrics();
          core::DeploymentPlanner(planner).plan(instance);
          warm_it = bench::metric_sum("planner.phase2.iterations");
          warm_s = bench::metric_sum("simplex.solve_seconds") +
                   bench::metric_sum("pdhg.solve_seconds");
        }
        state.counters["cold_pivots"] = cold_it;
        state.counters["warm_pivots"] = warm_it;
        for (const bool warm : {false, true}) {
          bench::results()
              .cell(std::int64_t{8})
              .cell(std::int64_t{8})
              .cell(std::int64_t{30})
              .cell("-")
              .cell("-")
              .cell(warm ? "phase2-warm" : "phase2-cold")
              .cell(static_cast<std::int64_t>(warm ? warm_it : cold_it))
              .cell(warm ? warm_s : cold_s, 2)
              .cell((warm ? warm_it : cold_it) > 0
                        ? format_number((warm ? warm_s : cold_s) /
                                            (warm ? warm_it : cold_it) * 1e6,
                                        1)
                        : std::string("-"))
              .cell("-")
              .cell("-")
              .cell("-")
              .cell("-");
          bench::results().finish_row();
        }
      })
      ->Iterations(1)
      ->Unit(::benchmark::kSecond);
}

}  // namespace

int main(int argc, char** argv) {
  register_points();
  register_tree_points();
  return wanplace::bench::run_main("scaling", argc, argv);
}
