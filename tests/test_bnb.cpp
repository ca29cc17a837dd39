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

TEST(Bnb, SandwichedBetweenLpAndRounding) {
  for (std::uint64_t seed : {2u, 12u, 22u}) {
    const auto instance = random_instance(seed, 5, 3, 4, 0.85, 300);
    const auto spec = mcperf::classes::general();

    BoundOptions options;
    options.solver = BoundOptions::Solver::Simplex;
    const auto detail = compute_bound_detail(instance, spec, options);
    if (!detail.bound.achievable) continue;

    const auto bnb = solve_branch_and_bound(instance, spec);
    ASSERT_TRUE(bnb.feasible) << "seed " << seed;
    EXPECT_GE(bnb.cost, detail.bound.lower_bound - 1e-6) << "seed " << seed;
    if (detail.bound.rounded_feasible && bnb.proven_optimal) {
      EXPECT_LE(bnb.cost, detail.bound.rounded_cost + 1e-6)
          << "seed " << seed;
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
