// The paper's Section 6.2 methodology: no infrastructure exists yet. Phase
// 1 decides which sites get file servers (node-opening cost zeta); phase 2
// re-derives the class bounds on the reduced topology and picks the
// heuristic for the deployed system.
#include <iostream>

#include "core/case_study.h"
#include "core/planner.h"

int main() {
  using namespace wanplace;

  const auto study = core::make_case_study(core::CaseStudyConfig::small());
  std::cout << "case study: " << study.topology.summary() << "\n";

  const double tqos = 0.95;
  const auto instance = study.web_instance(tqos);

  core::PlannerOptions options;
  options.zeta = 10'000;  // the paper's node-opening cost
  const auto plan = core::DeploymentPlanner(options).plan(instance);

  std::cout << "\nphase 1: deploy file servers on "
            << plan.open_nodes.size() << " of " << study.config.node_count
            << " sites:";
  for (const auto node : plan.open_nodes) std::cout << ' ' << node;
  std::cout << "\nsite -> serving node:";
  for (std::size_t n = 0; n < plan.assignment.size(); ++n)
    std::cout << ' ' << n << "->" << plan.assignment[n];
  std::cout << "\n\nphase 2: class bounds on the deployed system\n"
            << plan.selection.to_table().to_ascii() << "\n";

  if (plan.selection.has_recommendation())
    std::cout << "recommended heuristic for the deployed system: "
              << plan.selection.suggestion << "\n";
  else
    std::cout << "no reactive class meets the goal on the reduced system; "
                 "deploy more sites or relax the goal.\n";
  return 0;
}
