// Exact bottom-up DP for replica placement on hierarchical (tree) instances
// (Benoit/Rehn/Robert-style Global routing and the Rehn-Sonigo Closest
// policy), with QoS radius and per-link bandwidth capacities.
//
// This is a certifier, not a bound: it computes the true integral optimum
// with no LP involvement, so the differential harness can assert
//   LP lower bound <= DP optimum <= rounded feasible cost
// on every generated tree instance. The DP covers the window of MC-PERF
// where the optimum decomposes over the tree:
//   - a single interval, full-coverage QoS semantics (PerUserPerObject with
//     any tqos in (0,1], or tqos = 1 at any scope),
//   - no provisioned storage/replica constraints, gamma = 0, zeta = 0,
//   - the origin at the tree root,
//   - Routing::Global (any replica within Tlat serves) or Routing::Closest
//     (the first replica on the way to the root serves),
//   - finite link capacities only with Routing::Closest and one object.
// Knowledge/history/reactive classes are handled through the create
// permission cube exactly as the LP does.
#pragma once

#include <cstddef>
#include <vector>

#include "mcperf/heuristic_class.h"
#include "mcperf/instance.h"
#include "util/matrix.h"

namespace wanplace::tree {

struct TreeDpResult {
  bool feasible = false;
  /// True integral optimum (0 when infeasible).
  double optimum = 0;
  /// Witness placement achieving `optimum`; dims (n, 1, k).
  BoolCube placement;
  /// DP state count (memo entries / Pareto frontier sizes), for bench.
  std::size_t states = 0;
};

/// Solve (instance, spec) exactly. REQUIREs the instance/spec to be inside
/// the DP window documented above, and instance.dist to agree with the
/// link-model path latencies (the DP decides coverage from the links; a
/// mismatched dist matrix would silently certify a different problem than
/// the LP solved).
TreeDpResult solve_tree_dp(const mcperf::Instance& instance,
                           const mcperf::ClassSpec& spec);

/// Deterministic closest-routing audit of an integral placement: per
/// (up-link, interval) read flow, whether every demand is served within
/// Tlat by its first stored ancestor, and whether all finite capacities are
/// respected. `load[n * interval_count + i]` is the flow on n's up-link.
struct ClosestLoads {
  std::vector<double> load;
  bool covered = false;
  bool within_caps = false;
};
ClosestLoads closest_loads(const mcperf::Instance& instance,
                           const BoolCube& placement);

}  // namespace wanplace::tree
