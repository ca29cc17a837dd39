// The domain-specific rounding algorithm (paper Appendix C, Figures 5-7).
//
// Turns the fractional LP store values into a feasible 0/1 placement whose
// cost demonstrates how tight the LP lower bound is. The structure follows
// the paper: repeatedly round UP the fractional value with the lowest
// cost/reward ratio until the QoS goal is met by integral values, then
// round DOWN values whose removal keeps the goal (preferring zero-reward
// positive-cost removals), and finally apply the storage/replica-constraint
// cost padding from Figure 5.
//
// Two documented clarifications over the pseudo-code (DESIGN.md):
//  - achieved QoS is recomputed from integral values rather than tracked as
//    fractional deltas (same selection rule, exact accounting);
//  - rounding up a cell whose creation the class forbids at that interval
//    "backfills" the store run to the latest permitted creation interval,
//    keeping constraint (20)/(20a) valid by construction.
#pragma once

#include <vector>

#include "bounds/feasible.h"
#include "mcperf/builder.h"

namespace wanplace::bounds {

struct RoundingOptions {
  /// Round maximal constant-value interval runs as one unit (the Appendix C
  /// speed optimization: "over an order of magnitude faster, < 5% cost").
  bool batch_runs = false;
};

struct RoundingResult {
  bool feasible = false;
  Placement placement;
  Evaluation evaluation;
  std::size_t round_ups = 0;
  std::size_t round_downs = 0;
};

/// Round the LP solution `x` (indexed by built.store) into a feasible
/// placement for (instance, spec). QoS-metric instances only.
RoundingResult round_solution(const mcperf::Instance& instance,
                              const mcperf::ClassSpec& spec,
                              const mcperf::BuiltModel& built,
                              const std::vector<double>& x,
                              const RoundingOptions& options = {});

/// Generic threshold-rounding baseline used by the rounding ablation bench:
/// round at `threshold`, then greedily repair uncovered demand without any
/// cost/reward weighting and without a drop pass.
RoundingResult round_generic(const mcperf::Instance& instance,
                             const mcperf::ClassSpec& spec,
                             const mcperf::BuiltModel& built,
                             const std::vector<double>& x,
                             double threshold = 0.5);

}  // namespace wanplace::bounds
