// DeploymentPlanner: the paper's Section 6.2 two-phase methodology.
//
// Phase 1 — where to deploy: solve MC-PERF with a node-opening cost (zeta);
// the nodes that store anything in the rounded solution are the sites worth
// deploying file servers on (the origin is always deployed).
//
// Phase 2 — what heuristic: users of undeployed sites are assigned to the
// nearest deployed node, the instance is reduced to the deployed topology
// with demand aggregated onto assigned nodes, and the Section 6.1 selector
// runs on the reduced instance (with reactive classes, as in the paper).
#pragma once

#include "core/selector.h"
#include "graph/shortest_paths.h"

namespace wanplace::core {

struct PlannerOptions {
  /// Node-opening unit cost for phase 1 (paper: 10,000).
  double zeta = 10'000;
  bounds::BoundOptions bounds;
  /// Classes for the phase-2 selection; empty = the Figure 3 set
  /// (reactive, storage constrained, replica constrained, caching).
  std::vector<mcperf::ClassSpec> phase2_classes;
  /// Skip the phase-2 class selection (callers that only need the open set
  /// and assignment, e.g. the Figure 3 bench that sweeps QoS itself).
  bool run_phase2 = true;
  /// Warm-start the simplex phase-2 re-optimization of the phase-1 LP with
  /// the dual method from the phase-1 basis. A phase 1 that PDHG solved
  /// leaves no basis, and a PDHG re-solve always starts cold. The bound is the same either way — the switch exists
  /// so benches can measure warm vs cold pivot counts.
  bool warm_phase2 = true;
};

struct DeploymentPlan {
  /// Deployed sites in original node ids (origin included).
  std::vector<graph::NodeId> open_nodes;
  /// Original node -> serving deployed node (original ids).
  std::vector<graph::NodeId> assignment;
  /// The reduced instance phase 2 ran on (nodes reindexed to open_nodes
  /// order).
  mcperf::Instance reduced;
  /// Phase-1 cost bound including opening costs.
  double phase1_lower_bound = 0;
  /// Certified lower bound on the steady-state cost of operating the chosen
  /// deployment: the phase-1 LP re-optimized with every open variable fixed
  /// to the decision and the opening costs zeroed out (full topology,
  /// demand still at the original sites). Because only bounds and objective
  /// coefficients change, this re-solve runs the dual simplex warm-started
  /// from the phase-1 basis (see PlannerOptions::warm_phase2).
  double phase2_lower_bound = 0;
  /// The solvers behind the two bounds (bounds::to_string names them).
  bounds::SolverRun phase1_solver;
  bounds::SolverRun phase2_solver;
  /// Phase-2 class selection on the reduced system.
  SelectionReport selection;
};

class DeploymentPlanner {
 public:
  explicit DeploymentPlanner(PlannerOptions options = {});

  /// `instance` must have an origin and a full latency matrix (used for the
  /// nearest-node assignment).
  DeploymentPlan plan(const mcperf::Instance& instance) const;

  /// The Figure 3 class set.
  static std::vector<mcperf::ClassSpec> default_phase2_classes();

 private:
  PlannerOptions options_;
};

}  // namespace wanplace::core
