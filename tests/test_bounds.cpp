#include <gtest/gtest.h>

#include <cmath>

#include "bounds/engine.h"
#include "bounds/exact.h"
#include "bounds/feasible.h"
#include "bounds/rounding.h"
#include "instance_helpers.h"
#include "mcperf/builder.h"
#include "util/check.h"

namespace wanplace::bounds {
namespace {

using mcperf::ClassSpec;
using mcperf::Instance;
using mcperf::QosGoal;
using test::line_instance;
using test::random_instance;

// ---------------------------------------------------------------------------
// evaluate_placement.

TEST(Evaluate, EmptyPlacementCoversOnlyOriginNeighborhood) {
  auto instance = line_instance(4, 2, 1, 0.5);
  instance.demand.read(2, 0, 0) = 1;  // adjacent to origin (node 3)
  instance.demand.read(0, 1, 0) = 1;  // far from origin
  Placement none(4, 2, 1);
  const auto eval =
      evaluate_placement(instance, mcperf::classes::general(), none);
  EXPECT_TRUE(eval.create_valid);
  EXPECT_DOUBLE_EQ(eval.cost, 0);
  EXPECT_DOUBLE_EQ(eval.min_qos, 0);  // node 0 completely uncovered
  EXPECT_FALSE(eval.goal_met);
}

TEST(Evaluate, StorageAndCreationCost) {
  auto instance = line_instance(3, 3, 1, 0.5, /*with_origin=*/false);
  instance.demand.read(0, 0, 0) = 1;
  Placement placement(3, 3, 1);
  placement(0, 0, 0) = 1;
  placement(0, 1, 0) = 1;  // one run of 2 intervals: 2 storage + 1 create
  placement(0, 2, 0) = 0;
  const auto eval =
      evaluate_placement(instance, mcperf::classes::general(), placement);
  EXPECT_DOUBLE_EQ(eval.storage_cost, 2);
  EXPECT_DOUBLE_EQ(eval.creation_cost, 1);
  EXPECT_DOUBLE_EQ(eval.cost, 3);
}

TEST(Evaluate, GapInRunCostsTwoCreations) {
  auto instance = line_instance(2, 3, 1, 0.5, /*with_origin=*/false);
  Placement placement(2, 3, 1);
  placement(0, 0, 0) = 1;
  placement(0, 2, 0) = 1;  // gap at interval 1 forces re-creation
  const auto eval =
      evaluate_placement(instance, mcperf::classes::general(), placement);
  EXPECT_DOUBLE_EQ(eval.creation_cost, 2);
  EXPECT_DOUBLE_EQ(eval.storage_cost, 2);
}

TEST(Evaluate, ReactiveColdCreateInvalid) {
  auto instance = line_instance(2, 2, 1, 0.5, /*with_origin=*/false);
  instance.demand.read(0, 0, 0) = 1;
  Placement placement(2, 2, 1);
  placement(0, 0, 0) = 1;  // created at interval 0: forbidden when reactive
  const auto reactive =
      evaluate_placement(instance, mcperf::classes::reactive(), placement);
  EXPECT_FALSE(reactive.create_valid);
  const auto general =
      evaluate_placement(instance, mcperf::classes::general(), placement);
  EXPECT_TRUE(general.create_valid);
}

TEST(Evaluate, ProvisionedStorageConstraintCost) {
  // 2 working nodes + origin; node 0 peaks at 2 objects, node 1 at 0.
  auto instance = line_instance(3, 2, 2, 0.5);
  Placement placement(3, 2, 2);
  placement(0, 0, 0) = 1;
  placement(0, 0, 1) = 1;
  const auto eval = evaluate_placement(
      instance, mcperf::classes::storage_constrained(), placement);
  // Provisioned capacity 2 on both non-origin nodes for 2 intervals.
  EXPECT_DOUBLE_EQ(eval.storage_cost, 2 * 2 * 2);
  // 2 actual creations + padding 2 for node 1 never filling capacity.
  EXPECT_DOUBLE_EQ(eval.creation_cost, 4);
}

TEST(Evaluate, ProvisionedReplicaConstraintCost) {
  auto instance = line_instance(3, 2, 2, 0.5);
  Placement placement(3, 2, 2);
  placement(0, 0, 0) = 1;
  placement(1, 0, 0) = 1;  // object 0 peaks at 2 replicas; object 1 at 0
  const auto eval = evaluate_placement(
      instance, mcperf::classes::replica_constrained(), placement);
  // rep = 2 across 2 objects and 2 intervals.
  EXPECT_DOUBLE_EQ(eval.storage_cost, 2 * 2 * 2);
  EXPECT_DOUBLE_EQ(eval.creation_cost, 2 + 2);
}

TEST(Evaluate, WriteCost) {
  auto instance = line_instance(2, 1, 1, 0.5, /*with_origin=*/false);
  instance.costs.delta = 2;
  instance.demand.write(0, 0, 0) = 3;
  Placement placement(2, 1, 1);
  placement(1, 0, 0) = 1;
  const auto eval =
      evaluate_placement(instance, mcperf::classes::general(), placement);
  EXPECT_DOUBLE_EQ(eval.write_cost, 2 * 3 * 1);
}

// ---------------------------------------------------------------------------
// Exact solver.

TEST(Exact, TrivialCoverage) {
  auto instance = line_instance(2, 2, 1, 1.0, /*with_origin=*/false);
  instance.demand.read(0, 0, 0) = 1;
  const auto result = solve_exact(instance, mcperf::classes::general());
  ASSERT_TRUE(result.feasible);
  // One store during interval 0 at node 0 or 1 (both reach node 0):
  // storage 1 + creation 1.
  EXPECT_DOUBLE_EQ(result.cost, 2);
}

TEST(Exact, PrefersSharedReplica) {
  // Star: leaves 1 and 2 both reach hub 0. One replica at the hub covers
  // both; replicas at leaves would need two.
  mcperf::Instance instance;
  const auto topology = graph::star(3, 100, 10);
  instance.latencies = graph::all_pairs_latencies(topology);
  instance.dist = graph::within_threshold(instance.latencies, 150);
  instance.demand = workload::Demand(3, 1, 1);
  instance.demand.read(1, 0, 0) = 1;
  instance.demand.read(2, 0, 0) = 1;
  instance.goal = QosGoal{1.0};
  const auto result = solve_exact(instance, mcperf::classes::general());
  ASSERT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.cost, 2);  // single store+create at the hub
  EXPECT_TRUE(result.placement(0, 0, 0));
}

TEST(Exact, InfeasibleWhenIsolated) {
  auto instance = line_instance(4, 1, 1, 1.0);
  instance.demand.read(0, 0, 0) = 1;
  ClassSpec spec = mcperf::classes::reactive();
  const auto result = solve_exact(instance, spec);
  EXPECT_FALSE(result.feasible);  // cold start, origin out of reach
}

TEST(Exact, QosSlackAllowsSkippingExpensiveDemand) {
  auto instance = line_instance(2, 2, 2, 0.5, /*with_origin=*/false);
  instance.demand.read(0, 0, 0) = 9;
  instance.demand.read(0, 1, 1) = 1;
  const auto result = solve_exact(instance, mcperf::classes::general());
  ASSERT_TRUE(result.feasible);
  // Covering only object 0 at interval 0 reaches 90% >= 50%.
  EXPECT_DOUBLE_EQ(result.cost, 2);
}

// ---------------------------------------------------------------------------
// Lower-bound engine invariants (the paper's core claims, in miniature).

TEST(Engine, LpBoundBelowExactBelowRounded) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto instance = line_instance(3, 2, 2, 0.8, /*with_origin=*/true);
    Rng rng(seed);
    for (std::size_t n = 0; n < 2; ++n)
      for (std::size_t i = 0; i < 2; ++i)
        for (std::size_t k = 0; k < 2; ++k)
          instance.demand.read(n, i, k) =
              static_cast<double>(rng.uniform_index(5));
    if (instance.demand.total_reads() == 0) continue;

    const auto spec = mcperf::classes::general();
    BoundOptions options;
    options.solver = BoundOptions::Solver::Simplex;
    const auto detail = compute_bound_detail(instance, spec, options);
    if (!detail.bound.achievable) continue;
    const auto exact = solve_exact(instance, spec);
    ASSERT_TRUE(exact.feasible) << "seed " << seed;
    EXPECT_LE(detail.bound.lower_bound, exact.cost + 1e-6) << "seed " << seed;
    ASSERT_TRUE(detail.bound.rounded_feasible) << "seed " << seed;
    EXPECT_GE(detail.bound.rounded_cost, exact.cost - 1e-6)
        << "seed " << seed;
  }
}

TEST(Engine, GeneralBoundIsLowest) {
  const auto instance = random_instance(11, 6, 3, 4, 0.9, 300);
  BoundOptions options;
  options.solver = BoundOptions::Solver::Simplex;
  const auto general =
      compute_bound(instance, mcperf::classes::general(), options);
  ASSERT_TRUE(general.achievable);
  for (const auto& spec :
       {mcperf::classes::storage_constrained(),
        mcperf::classes::replica_constrained(),
        mcperf::classes::cooperative_caching_with_prefetching()}) {
    const auto bound = compute_bound(instance, spec, options);
    if (!bound.achievable) continue;
    EXPECT_GE(bound.lower_bound, general.lower_bound - 1e-6)
        << spec.name << " below general";
  }
}

TEST(Engine, MorePermissiveClassesHaveLowerBounds) {
  const auto instance = random_instance(23, 6, 3, 4, 0.85, 300);
  BoundOptions options;
  options.solver = BoundOptions::Solver::Simplex;

  const auto caching =
      compute_bound(instance, mcperf::classes::caching(), options);
  const auto coop =
      compute_bound(instance, mcperf::classes::cooperative_caching(), options);
  if (caching.achievable && coop.achievable) {
    EXPECT_GE(caching.lower_bound, coop.lower_bound - 1e-6);
  }

  const auto prefetch = compute_bound(
      instance, mcperf::classes::caching_with_prefetching(), options);
  if (caching.achievable && prefetch.achievable) {
    EXPECT_GE(caching.lower_bound, prefetch.lower_bound - 1e-6);
  }
}

TEST(Engine, BoundMonotoneInQos) {
  auto instance = random_instance(37, 6, 3, 4, 0.5, 300);
  BoundOptions options;
  options.solver = BoundOptions::Solver::Simplex;
  double previous = -1;
  for (double tqos : {0.5, 0.8, 0.95}) {
    instance.goal = QosGoal{tqos};
    const auto bound =
        compute_bound(instance, mcperf::classes::general(), options);
    ASSERT_TRUE(bound.achievable);
    EXPECT_GE(bound.lower_bound, previous - 1e-7) << "tqos " << tqos;
    previous = bound.lower_bound;
  }
}

TEST(Engine, UnachievableClassReported) {
  auto instance = line_instance(4, 2, 1, 0.999);
  instance.demand.read(0, 0, 0) = 1;  // cold start far from origin
  const auto bound = compute_bound(instance, mcperf::classes::caching());
  EXPECT_FALSE(bound.achievable);
  EXPECT_EQ(bound.status, lp::SolveStatus::Infeasible);
  EXPECT_LT(bound.max_achievable_qos, 0.999);
}

TEST(Engine, PdhgPathAgreesWithSimplexOnSmallInstance) {
  const auto instance = random_instance(51, 5, 3, 3, 0.9, 200);
  BoundOptions simplex_options;
  simplex_options.solver = BoundOptions::Solver::Simplex;
  const auto exact =
      compute_bound(instance, mcperf::classes::general(), simplex_options);
  ASSERT_TRUE(exact.achievable);

  BoundOptions pdhg_options;
  pdhg_options.solver = BoundOptions::Solver::Pdhg;
  pdhg_options.pdhg.max_iterations = 200000;
  pdhg_options.pdhg.tolerance = 1e-5;
  const auto approx =
      compute_bound(instance, mcperf::classes::general(), pdhg_options);
  EXPECT_LE(approx.lower_bound, exact.lower_bound + 1e-5);
  EXPECT_NEAR(approx.lower_bound, exact.lower_bound,
              0.01 * (1 + exact.lower_bound));
}

// ---------------------------------------------------------------------------
// Rounding.

class RoundingSweep : public ::testing::TestWithParam<int> {};

TEST_P(RoundingSweep, ProducesFeasiblePlacements) {
  const auto instance =
      random_instance(100 + GetParam(), 6, 4, 5, 0.9, 400);
  for (const auto& spec : {mcperf::classes::general(),
                           mcperf::classes::storage_constrained(),
                           mcperf::classes::replica_constrained(),
                           mcperf::classes::cooperative_caching()}) {
    BoundOptions options;
    options.solver = BoundOptions::Solver::Simplex;
    const auto detail = compute_bound_detail(instance, spec, options);
    if (!detail.bound.achievable) continue;
    EXPECT_TRUE(detail.bound.rounded_feasible)
        << spec.name << " seed " << GetParam();
    EXPECT_GE(detail.bound.rounded_cost, detail.bound.lower_bound - 1e-6)
        << spec.name << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundingSweep, ::testing::Range(0, 8));

TEST(Rounding, DomainBeatsGenericOnAverage) {
  double domain_total = 0, generic_total = 0;
  int counted = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto instance = random_instance(200 + seed, 6, 4, 5, 0.9, 400);
    const auto spec = mcperf::classes::general();
    BoundOptions options;
    options.solver = BoundOptions::Solver::Simplex;
    const auto detail = compute_bound_detail(instance, spec, options);
    if (!detail.bound.achievable || !detail.bound.rounded_feasible) continue;
    const auto generic = round_generic(instance, spec, detail.built,
                                       detail.solution.x);
    if (!generic.feasible) continue;
    domain_total += detail.bound.rounded_cost;
    generic_total += generic.evaluation.cost;
    ++counted;
  }
  ASSERT_GT(counted, 2);
  EXPECT_LE(domain_total, generic_total * 1.02);
}

TEST(Rounding, BatchRunsStillFeasible) {
  const auto instance = random_instance(301, 6, 4, 5, 0.9, 400);
  const auto spec = mcperf::classes::general();
  BoundOptions options;
  options.solver = BoundOptions::Solver::Simplex;
  options.rounding.batch_runs = true;
  const auto detail = compute_bound_detail(instance, spec, options);
  if (detail.bound.achievable) {
    EXPECT_TRUE(detail.bound.rounded_feasible);
  }
}

TEST(Rounding, AlreadyIntegralSolutionPassesThrough) {
  auto instance = line_instance(2, 2, 1, 1.0, /*with_origin=*/false);
  instance.demand.read(0, 0, 0) = 1;
  const auto spec = mcperf::classes::general();
  const auto built = mcperf::build_lp(instance, spec);
  std::vector<double> x(built.model.variable_count(), 0.0);
  // Store object 0 at node 0 during interval 0 (and create it).
  x[static_cast<std::size_t>(built.store(0, 0, 0))] = 1;
  x[static_cast<std::size_t>(built.create(0, 0, 0))] = 1;
  const auto result = round_solution(instance, spec, built, x);
  ASSERT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.evaluation.cost, 2);
  EXPECT_EQ(result.round_ups, 0u);
}

TEST(Rounding, RepairsEmptySolution) {
  auto instance = line_instance(2, 2, 1, 1.0, /*with_origin=*/false);
  instance.demand.read(0, 0, 0) = 1;
  const auto spec = mcperf::classes::general();
  const auto built = mcperf::build_lp(instance, spec);
  const std::vector<double> zeros(built.model.variable_count(), 0.0);
  const auto result = round_solution(instance, spec, built, zeros);
  ASSERT_TRUE(result.feasible);
  EXPECT_GE(result.round_ups, 1u);
  EXPECT_DOUBLE_EQ(result.evaluation.cost, 2);
}

}  // namespace
}  // namespace wanplace::bounds
