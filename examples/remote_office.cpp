// The paper's Section 6.1 methodology end to end on the remote-office case
// study: compute class bounds for both workloads, pick the heuristic,
// deploy it in simulation, and compare its actual cost against the bound
// and against LRU caching (the "obvious" default).
//
// Run with --paper for the full-size case study (slower); the default uses
// the small configuration.
#include <cstring>
#include <iostream>

#include "core/case_study.h"
#include "core/selector.h"
#include "sim/sweep.h"

namespace {

using namespace wanplace;

void analyze(const core::CaseStudy& study, bool group, double tqos) {
  const char* name = group ? "GROUP" : "WEB";
  const auto& trace = group ? study.group_trace : study.web_trace;
  const auto instance =
      group ? study.group_instance(tqos) : study.web_instance(tqos);

  std::cout << "\n----- workload " << name << " (QoS goal "
            << format_number(tqos * 100, 4) << "%) -----\n";
  std::cout << "trace: " << trace.read_count() << " reads, most popular "
            << trace.max_object_reads() << ", least popular "
            << trace.min_object_reads() << "\n\n";

  // Step 1: class lower bounds (Figure 1 for this workload).
  const core::SelectionReport report =
      core::HeuristicSelector().select(instance);
  std::cout << report.to_table().to_ascii() << "\n";
  if (!report.has_recommendation()) {
    std::cout << "no class meets the goal.\n";
    return;
  }
  std::cout << "chosen class: " << report.recommended_bound().class_name
            << " -> deploy " << report.suggestion << "\n";

  // Step 2: deploy the chosen heuristic (simulation) and sanity-check it
  // against the bound, plus LRU caching as the default people would pick.
  sim::IntervalSimConfig config;
  config.origin = study.origin;
  config.tlat_ms = study.config.tlat_ms;
  config.interval_count = study.config.interval_count;

  sim::SweepResult chosen;
  const auto& chosen_class = report.recommended_bound().class_name;
  if (chosen_class == "replica-constrained") {
    chosen = sim::sweep_replica_greedy(
        trace, study.latencies, study.dist, config, tqos,
        sim::exhaustive_candidates(study.config.node_count - 1));
  } else {
    chosen = sim::sweep_greedy_global(
        trace, study.latencies, study.dist, config, tqos,
        sim::geometric_candidates(study.config.object_count));
  }

  sim::CachingConfig caching;
  caching.origin = study.origin;
  caching.tlat_ms = study.config.tlat_ms;
  caching.interval_count = study.config.interval_count;
  const auto lru = sim::sweep_caching(
      trace, study.latencies, caching, heuristics::lru_factory(), tqos,
      sim::geometric_candidates(study.config.object_count));

  if (chosen.feasible)
    std::cout << "deployed " << report.suggestion << ": cost "
              << format_number(chosen.best.total_cost, 1) << " (bound was "
              << format_number(report.recommended_bound().lower_bound, 1)
              << ")\n";
  else
    std::cout << "deployed heuristic could not meet the goal in simulation "
                 "(bound analysis is necessary but a concrete heuristic "
                 "may still fall short).\n";
  if (lru.feasible) {
    std::cout << "LRU caching: cost "
              << format_number(lru.best.total_cost, 1);
    if (chosen.feasible)
      std::cout << " -> " << format_number(
                       lru.best.total_cost / chosen.best.total_cost, 2)
                << "x the chosen heuristic";
    std::cout << "\n";
  } else {
    std::cout << "LRU caching cannot meet this goal at any capacity.\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool paper =
      argc > 1 && std::strcmp(argv[1], "--paper") == 0;
  const auto study = core::make_case_study(
      paper ? core::CaseStudyConfig{} : core::CaseStudyConfig::small());
  std::cout << "case study: " << study.topology.summary()
            << (paper ? " (paper scale)" : " (small scale; --paper for full)")
            << "\n";
  analyze(study, /*group=*/false, 0.95);
  analyze(study, /*group=*/true, 0.95);
  return 0;
}
