// End-to-end wall time of the commands a user runs, at a chosen solver
// parallelism: `select` and `plan` on the WEB case study at the measured
// point (8 nodes, 8 intervals, 60 objects, 16,000 reads; Tlat 150 ms), and
// `select` on a topology + trace pair such as the default `wanplace_cli
// gen-example` output. One JSON line per run: workload, parallelism, wall
// seconds, and the per-class bounds with the solver that produced them.
//
//   end_to_end select-q99 <parallelism> [repeats]
//   end_to_end plan <parallelism> [repeats]
//   end_to_end select-files <parallelism> <topology> <trace> [repeats]
//
// select-q99 and select-files fan the classes out `parallelism` wide with
// serial solves when it is above 1 (SelectorOptions::parallelism). plan
// sets the bound engine's parallelism (PlannerOptions::bounds), which
// only PDHG's matvecs use; its phase-2 selection fans out over the
// hardware threads either way.
// select-files builds the instance as the CLI does with its defaults:
// tqos 0.99, 24 intervals, per-user scope, origin 0.
#include <cstdio>
#include <string>

#include "core/case_study.h"
#include "core/planner.h"
#include "core/selector.h"
#include "graph/io.h"
#include "graph/reachability.h"
#include "graph/shortest_paths.h"
#include "util/line_reader.h"
#include "util/stopwatch.h"
#include "workload/demand.h"
#include "workload/trace.h"

namespace {

using namespace wanplace;

mcperf::Instance case_study(double tqos) {
  core::CaseStudyConfig config;
  config.node_count = 8;
  config.interval_count = 8;
  config.object_count = 60;
  config.web_requests = 16'000;
  config.web_head_count = 6;
  return core::make_case_study(config).web_instance(tqos);
}

mcperf::Instance from_files(const char* topology_path,
                            const char* trace_path) {
  const auto topology = graph::load_topology_file(topology_path);
  const auto trace = workload::Trace::load_file(trace_path);
  mcperf::Instance instance;
  instance.latencies = graph::all_pairs_latencies(topology);
  instance.dist = graph::within_threshold(instance.latencies, 150);
  instance.demand = workload::aggregate(trace, 24);
  instance.goal = mcperf::QosGoal{0.99, mcperf::QosScope::PerUser};
  instance.origin = 0;
  return instance;
}

std::string bounds_json(const core::SelectionReport& report) {
  std::string out = "{";
  const auto add = [&](const bounds::ClassBound& bound) {
    if (out.size() > 1) out += ", ";
    char value[64];
    std::snprintf(value, sizeof value, "%.6f", bound.lower_bound);
    out += "\"" + bound.class_name + "\": ";
    out += bound.achievable ? "[" + std::string(value) + ", \"" +
                                  bounds::to_string(bound.solver) + "\"]"
                            : std::string("null");
  };
  add(report.general);
  for (const auto& bound : report.classes) add(bound);
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workload = argc > 1 ? argv[1] : "";
  const bool files = workload == "select-files";
  if (argc < (files ? 5 : 3) ||
      (!files && workload != "select-q99" && workload != "plan")) {
    std::fprintf(stderr,
                 "usage: end_to_end select-q99|plan <parallelism> [repeats]\n"
                 "       end_to_end select-files <parallelism> <topology> "
                 "<trace> [repeats]\n");
    return 2;
  }
  const auto parallelism = parse_integer<std::size_t>(argv[2]);
  const int repeat_arg = files ? 5 : 3;
  const auto repeats =
      argc > repeat_arg ? parse_integer<int>(argv[repeat_arg]) : 1;
  if (!parallelism || !repeats) {
    std::fprintf(stderr, "parallelism and repeats must be integers\n");
    return 2;
  }
  const auto instance =
      files ? from_files(argv[3], argv[4]) : case_study(0.99);

  for (int r = 0; r < *repeats; ++r) {
    Stopwatch watch;
    std::string detail;
    if (workload == "plan") {
      core::PlannerOptions options;
      options.bounds.parallelism = *parallelism;
      const auto plan = core::DeploymentPlanner(options).plan(instance);
      detail = "\"open\": [";
      for (std::size_t i = 0; i < plan.open_nodes.size(); ++i)
        detail += (i ? ", " : "") + std::to_string(plan.open_nodes[i]);
      char bounds[128];
      std::snprintf(bounds, sizeof bounds,
                    "], \"phase1\": %.6f, \"phase2\": %.6f",
                    plan.phase1_lower_bound, plan.phase2_lower_bound);
      detail += bounds;
    } else {
      core::SelectorOptions options;
      options.parallelism = *parallelism;
      detail = "\"bounds\": " +
               bounds_json(core::HeuristicSelector(options).select(instance));
    }
    std::printf("{\"workload\": \"%s\", \"parallelism\": %zu, "
                "\"wall_s\": %.3f, %s}\n",
                workload.c_str(), *parallelism, watch.elapsed_seconds(),
                detail.c_str());
    std::fflush(stdout);
  }
  return 0;
}
