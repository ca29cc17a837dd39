// Branch-and-bound exact solver: agreement with the exhaustive oracle on
// tiny instances, and the LP <= B&B <= rounded sandwich on mid-size ones.
#include <gtest/gtest.h>

#include "bounds/branch_and_bound.h"
#include "bounds/engine.h"
#include "bounds/exact.h"
#include "instance_helpers.h"
#include "util/check.h"

namespace wanplace::bounds {
namespace {

using test::line_instance;
using test::random_instance;

TEST(Bnb, MatchesExhaustiveOnTinyInstances) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    auto instance = line_instance(3, 2, 2, 0.8);
    Rng rng(seed);
    for (std::size_t n = 0; n < 2; ++n)
      for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t k = 0; k < 2; ++k)
          instance.demand.read(n, i, k) =
              static_cast<double>(rng.uniform_index(5));
    if (instance.demand.total_reads() == 0) continue;

    const auto spec = mcperf::classes::general();
    const auto exhaustive = solve_exact(instance, spec);
    const auto bnb = solve_branch_and_bound(instance, spec);
    ASSERT_EQ(bnb.feasible, exhaustive.feasible) << "seed " << seed;
    if (exhaustive.feasible) {
      ASSERT_TRUE(bnb.proven_optimal) << "seed " << seed;
      EXPECT_NEAR(bnb.cost, exhaustive.cost, 1e-6) << "seed " << seed;
    }
  }
}

TEST(Bnb, MatchesExhaustiveUnderClassConstraints) {
  auto instance = line_instance(3, 2, 2, 0.7);
  instance.demand.read(0, 0, 0) = 4;
  instance.demand.read(1, 1, 1) = 3;
  instance.demand.read(0, 1, 0) = 2;
  for (const auto& spec : {mcperf::classes::storage_constrained(),
                           mcperf::classes::replica_constrained(),
                           mcperf::classes::reactive()}) {
    const auto exhaustive = solve_exact(instance, spec);
    const auto bnb = solve_branch_and_bound(instance, spec);
    ASSERT_EQ(bnb.feasible, exhaustive.feasible) << spec.name;
    if (exhaustive.feasible) {
      EXPECT_NEAR(bnb.cost, exhaustive.cost, 1e-6) << spec.name;
    }
  }
}

// Instances small enough for B&B to prove optimality in a fraction of a
// second, so the upper half of the sandwich is always checked. The first
// two have strict gaps on both sides (LP 11.93 < 12 < 13 rounded, and
// 10.31 < 13 < 14); on the third, rounding finds the optimum
// (9.19 < 10 = 10).
TEST(Bnb, SandwichedBetweenLpAndRounding) {
  struct Case {
    std::uint64_t seed;
    std::size_t nodes, intervals, objects, requests;
    bool strict;
  };
  for (const Case c : {Case{18, 4, 3, 4, 300, true},
                       Case{13, 5, 2, 3, 200, true},
                       Case{11, 5, 2, 4, 300, false}}) {
    const auto instance = random_instance(c.seed, c.nodes, c.intervals,
                                          c.objects, 0.85, c.requests);
    const auto spec = mcperf::classes::general();

    BoundOptions options;
    options.solver = BoundOptions::Solver::Simplex;
    const auto detail = compute_bound_detail(instance, spec, options);
    ASSERT_TRUE(detail.bound.achievable) << "seed " << c.seed;
    ASSERT_TRUE(detail.bound.rounded_feasible) << "seed " << c.seed;

    const auto bnb = solve_branch_and_bound(instance, spec);
    ASSERT_TRUE(bnb.feasible) << "seed " << c.seed;
    ASSERT_TRUE(bnb.proven_optimal) << "seed " << c.seed;
    EXPECT_GE(bnb.cost, detail.bound.lower_bound - 1e-6) << "seed " << c.seed;
    EXPECT_LE(bnb.cost, detail.bound.rounded_cost + 1e-6) << "seed " << c.seed;
    if (c.strict) {
      EXPECT_GT(bnb.cost, detail.bound.lower_bound + 1e-6) << "seed " << c.seed;
      EXPECT_LT(bnb.cost, detail.bound.rounded_cost - 1e-6)
          << "seed " << c.seed;
    }
  }
}

TEST(Bnb, InfeasibleDetected) {
  auto instance = line_instance(4, 1, 1, 1.0);
  instance.demand.read(0, 0, 0) = 1;
  const auto bnb =
      solve_branch_and_bound(instance, mcperf::classes::reactive());
  EXPECT_FALSE(bnb.feasible);
}

TEST(Bnb, BudgetLimitsStillYieldValidBound) {
  const auto instance = random_instance(5, 5, 3, 4, 0.9, 300);
  BnbOptions tight;
  tight.max_nodes = 2;  // prune almost immediately
  const auto bnb = solve_branch_and_bound(
      instance, mcperf::classes::general(), tight);
  EXPECT_FALSE(bnb.proven_optimal);
  // The root relaxation bound is still a valid lower bound.
  const auto full =
      solve_branch_and_bound(instance, mcperf::classes::general());
  if (full.proven_optimal) {
    EXPECT_LE(bnb.lower_bound, full.cost + 1e-6);
  }
}

TEST(Bnb, RejectsAvgLatencyGoal) {
  auto instance = line_instance(3, 1, 1, 0.9);
  instance.goal = mcperf::AvgLatencyGoal{100};
  EXPECT_THROW(
      solve_branch_and_bound(instance, mcperf::classes::general()),
      InvalidArgument);
}

}  // namespace
}  // namespace wanplace::bounds
