// Exact MC-PERF solving by LP-based branch and bound.
//
// Branching only on store variables is sufficient for exactness: once every
// store[n,i,k] is integral, the LP pushes covered to min(1, reachable
// stores) and create to max(0, store delta), both of which are integral.
// The LP relaxation bound at each node prunes against the best placement's
// class-semantics cost (which is never below the LP objective, so pruning
// is safe).
//
// Practical reach: instances up to a few hundred store cells — an order of
// magnitude beyond the exhaustive oracle in exact.h — used to validate the
// rounding algorithm's tightness on mid-size instances.
#pragma once

#include "bounds/feasible.h"
#include "lp/simplex.h"
#include "mcperf/heuristic_class.h"
#include "mcperf/instance.h"

namespace wanplace::bounds {

struct BnbOptions {
  /// The one search budget: explored nodes, never a clock, so whether a
  /// search is proven optimal does not depend on host speed.
  std::size_t max_nodes = 200'000;
  lp::SimplexOptions simplex;
};

struct BnbResult {
  bool feasible = false;        // an integral placement was found
  bool proven_optimal = false;  // search completed without hitting limits
  double cost = 0;              // class-semantics cost of the best placement
  double lower_bound = 0;       // certified bound on the true optimum
  Placement placement;
  std::size_t nodes_explored = 0;
  double seconds = 0;
};

/// Solve MC-PERF exactly (QoS metric). When limits are hit the result is
/// still usable: `cost` is the best placement found, `lower_bound` a valid
/// bound on the optimum.
BnbResult solve_branch_and_bound(const mcperf::Instance& instance,
                                 const mcperf::ClassSpec& spec,
                                 const BnbOptions& options = {});

}  // namespace wanplace::bounds
