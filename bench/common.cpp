#include "common.h"

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>

#include "core/planner.h"
#include "core/selector.h"
#include "heuristics/cache.h"
#include "obs/metrics.h"
#include "sim/sweep.h"

namespace wanplace::bench {

namespace {

std::string env_or(const char* name, const std::string& fallback) {
  const char* value = std::getenv(name);
  return value ? value : fallback;
}

std::optional<Table>& table_slot() {
  static std::optional<Table> slot;
  return slot;
}

}  // namespace

bool small_scale() {
  static const bool small = env_or("WANPLACE_BENCH_SCALE", "paper") == "small";
  return small;
}

const core::CaseStudy& case_study() {
  static const core::CaseStudy study = make_case_study(
      small_scale() ? core::CaseStudyConfig::small() : core::CaseStudyConfig{});
  return study;
}

bounds::BoundOptions bound_options() {
  bounds::BoundOptions options;
  options.solver = bounds::BoundOptions::Solver::Pdhg;
  options.pdhg.tolerance = 3e-4;
  options.pdhg.check_period = 200;
  return options;
}

void reset_metrics() {
  obs::Registry::global().enable(true);
  obs::Registry::global().reset();
}

double metric_sum(const std::string& name) {
  const auto snapshot = obs::Registry::global().snapshot();
  const auto it = snapshot.find(name);
  return it == snapshot.end() ? 0.0 : it->second.sum;
}

std::uint64_t metric_count(const std::string& name) {
  const auto snapshot = obs::Registry::global().snapshot();
  const auto it = snapshot.find(name);
  return it == snapshot.end() ? 0 : it->second.count;
}

Table& results(std::vector<std::string> header_if_new) {
  auto& slot = table_slot();
  if (!slot) {
    if (header_if_new.empty()) header_if_new = {"series", "value"};
    slot.emplace(std::move(header_if_new));
  }
  return *slot;
}

std::string qos_label(double tqos) {
  return format_number(tqos * 100, 5);
}

int run_main(const std::string& name, int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();

  if (table_slot()) {
    const Table& table = *table_slot();
    std::cout << "\n=== " << name
              << (small_scale() ? " (small scale)" : " (paper scale)")
              << " ===\n"
              << table.to_ascii();
    const std::string out_dir = env_or("WANPLACE_BENCH_OUT", "bench_results");
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (!ec) {
      const std::string path = out_dir + "/" + name + ".csv";
      try {
        table.write_csv(path);
        std::cout << "(csv written to " << path << ")\n";
      } catch (const Error& error) {
        std::cerr << "csv write failed: " << error.what() << '\n';
      }
    }
  }
  return 0;
}

void register_fig1(bool group_workload) {
  results({"class", "qos%", "achievable", "lower-bound", "rounded-cost",
           "gap", "lp-rows", "seconds"});

  std::vector<mcperf::ClassSpec> specs{mcperf::classes::general()};
  for (auto& spec : core::HeuristicSelector::default_classes())
    specs.push_back(spec);

  for (const auto& spec : specs) {
    for (double tqos : core::qos_sweep()) {
      const std::string label =
          spec.name + "/qos=" + qos_label(tqos);
      ::benchmark::RegisterBenchmark(
          label.c_str(),
          [spec, tqos, group_workload](::benchmark::State& state) {
            const auto& study = case_study();
            const auto instance = group_workload
                                      ? study.group_instance(tqos)
                                      : study.web_instance(tqos);
            bounds::ClassBound bound;
            for (auto _ : state)
              bound = bounds::compute_bound(instance, spec, bound_options());
            state.counters["lower_bound"] = bound.lower_bound;
            state.counters["achievable"] = bound.achievable ? 1 : 0;
            if (bound.rounded_feasible)
              state.counters["rounded"] = bound.rounded_cost;
            results()
                .cell(spec.name)
                .cell(qos_label(tqos))
                .cell(bound.achievable ? "yes" : "no")
                .cell(bound.achievable ? format_number(bound.lower_bound, 1)
                                       : std::string("-"))
                .cell(bound.rounded_feasible
                          ? format_number(bound.rounded_cost, 1)
                          : std::string("-"))
                .cell(bound.rounded_feasible ? format_number(bound.gap, 3)
                                             : std::string("-"))
                .cell(static_cast<std::int64_t>(bound.lp_rows))
                .cell(bound.solve_seconds, 1);
            results().finish_row();
          })
          ->Iterations(1)
          ->Unit(::benchmark::kSecond);
    }
  }
}

namespace {

/// Phase-1 deployment shared by all Figure 3 points of one workload.
struct Fig3Setup {
  core::DeploymentPlan plan;
  workload::Trace reduced_trace;
  graph::LatencyMatrix reduced_latencies;
  BoolMatrix reduced_dist;
};

const Fig3Setup& fig3_setup(bool group_workload) {
  static std::optional<Fig3Setup> cache[2];
  auto& slot = cache[group_workload ? 1 : 0];
  if (!slot) {
    const auto& study = case_study();
    // Deploy for a 99% goal (the figure then sweeps the goal on the
    // resulting topology, as the paper does).
    const auto instance = group_workload ? study.group_instance(0.99)
                                         : study.web_instance(0.99);
    core::PlannerOptions options;
    options.zeta = 10'000;
    options.bounds = bound_options();
    options.run_phase2 = false;
    Fig3Setup setup;
    setup.plan = core::DeploymentPlanner(options).plan(instance);

    // Remap the trace onto the reduced system: every site's requests are
    // served by its assigned open node.
    std::vector<std::size_t> index_of(study.config.node_count, SIZE_MAX);
    for (std::size_t r = 0; r < setup.plan.open_nodes.size(); ++r)
      index_of[static_cast<std::size_t>(setup.plan.open_nodes[r])] = r;
    std::vector<graph::NodeId> mapping(study.config.node_count);
    for (std::size_t n = 0; n < mapping.size(); ++n)
      mapping[n] = static_cast<graph::NodeId>(
          index_of[static_cast<std::size_t>(setup.plan.assignment[n])]);
    const auto& trace = group_workload ? study.group_trace : study.web_trace;
    setup.reduced_trace =
        trace.remap_nodes(mapping, setup.plan.open_nodes.size());
    setup.reduced_latencies = setup.plan.reduced.latencies;
    setup.reduced_dist = setup.plan.reduced.dist;
    slot = std::move(setup);
  }
  return *slot;
}

}  // namespace

void register_fig3(bool group_workload) {
  results({"series", "qos%", "cost", "note"});

  const std::string fig =
      group_workload ? std::string("fig3_group/") : std::string("fig3_web/");

  // Deployment summary row (phase 1).
  ::benchmark::RegisterBenchmark(
      (fig + "phase1_deploy").c_str(),
      [group_workload](::benchmark::State& state) {
        for (auto _ : state) fig3_setup(group_workload);
        const auto& setup = fig3_setup(group_workload);
        state.counters["open_nodes"] =
            static_cast<double>(setup.plan.open_nodes.size());
        results()
            .cell("deployed-nodes")
            .cell("-")
            .cell(static_cast<std::int64_t>(setup.plan.open_nodes.size()))
            .cell("phase-1, zeta=10000");
        results().finish_row();
      })
      ->Iterations(1)
      ->Unit(::benchmark::kSecond);

  // Reduced-topology class bounds per QoS (the reactive general bound is
  // the figure's reference line).
  std::vector<mcperf::ClassSpec> fig3_classes{mcperf::classes::reactive()};
  for (auto& spec : core::DeploymentPlanner::default_phase2_classes())
    fig3_classes.push_back(spec);
  for (const auto& spec : fig3_classes) {
    for (double tqos : core::qos_sweep()) {
      const std::string label = fig + spec.name + "/qos=" + qos_label(tqos);
      ::benchmark::RegisterBenchmark(
          label.c_str(),
          [spec, tqos, group_workload](::benchmark::State& state) {
            const auto& setup = fig3_setup(group_workload);
            auto instance = setup.plan.reduced;
            instance.goal = mcperf::QosGoal{tqos};
            bounds::ClassBound bound;
            for (auto _ : state)
              bound = bounds::compute_bound(instance, spec, bound_options());
            if (bound.achievable)
              state.counters["lower_bound"] = bound.lower_bound;
            results()
                .cell(spec.name + "-bound")
                .cell(qos_label(tqos))
                .cell(bound.achievable
                          ? format_number(bound.lower_bound, 1)
                          : std::string("unachievable"))
                .cell("max-qos " +
                      format_number(bound.max_achievable_qos * 100, 4));
            results().finish_row();
          })
          ->Iterations(1)
          ->Unit(::benchmark::kSecond);
    }
  }

  // The deployed heuristic on the reduced system: greedy-global for WEB,
  // LRU caching for GROUP (the paper's Figure 3 choices).
  for (double tqos : core::qos_sweep()) {
    const std::string label = fig + "deployed/qos=" + qos_label(tqos);
    ::benchmark::RegisterBenchmark(
        label.c_str(),
        [tqos, group_workload](::benchmark::State& state) {
          const auto& study = case_study();
          const auto& setup = fig3_setup(group_workload);
          sim::SweepResult sweep;
          for (auto _ : state) {
            if (group_workload) {
              sim::CachingConfig caching;
              caching.origin = *setup.plan.reduced.origin;
              caching.tlat_ms = study.config.tlat_ms;
              caching.interval_count = study.config.interval_count;
              sweep = sim::sweep_caching(
                  setup.reduced_trace, setup.reduced_latencies, caching,
                  heuristics::lru_factory(), tqos,
                  sim::geometric_candidates(study.config.object_count));
            } else {
              sim::IntervalSimConfig config;
              config.origin = *setup.plan.reduced.origin;
              config.tlat_ms = study.config.tlat_ms;
              config.interval_count = study.config.interval_count;
              sweep = sim::sweep_greedy_global(
                  setup.reduced_trace, setup.reduced_latencies,
                  setup.reduced_dist, config, tqos,
                  sim::geometric_candidates(study.config.object_count));
            }
          }
          if (sweep.feasible)
            state.counters["cost"] = sweep.best.total_cost;
          results()
              .cell(group_workload ? "lru-caching" : "greedy-global")
              .cell(qos_label(tqos))
              .cell(sweep.feasible ? format_number(sweep.best.total_cost, 1)
                                   : std::string("cannot meet goal"))
              .cell(sweep.feasible
                        ? "provisioned " + std::to_string(sweep.provisioned)
                        : std::string("-"));
          results().finish_row();
        })
        ->Iterations(1)
        ->Unit(::benchmark::kSecond);
  }
}

}  // namespace wanplace::bench
