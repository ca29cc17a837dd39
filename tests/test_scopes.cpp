// QoS scope variations (Section 3.1: per-user, overall, per-object,
// per-user-per-object) and the neighborhood knowledge model.
#include <gtest/gtest.h>

#include "bounds/engine.h"
#include "bounds/feasible.h"
#include "instance_helpers.h"
#include "mcperf/achievability.h"
#include "mcperf/builder.h"
#include "util/check.h"

namespace wanplace::mcperf {
namespace {

using test::line_instance;
using test::random_instance;

TEST(QosGroups, GroupCounts) {
  auto instance = line_instance(3, 2, 4, 0.9);
  EXPECT_EQ(QosGroups(instance, QosScope::PerUser).count(), 3u);
  EXPECT_EQ(QosGroups(instance, QosScope::Overall).count(), 1u);
  EXPECT_EQ(QosGroups(instance, QosScope::PerObject).count(), 4u);
  EXPECT_EQ(QosGroups(instance, QosScope::PerUserPerObject).count(), 12u);
}

TEST(QosGroups, TotalsAccumulatePerScope) {
  auto instance = line_instance(3, 2, 2, 0.9);
  instance.demand.read(0, 0, 0) = 3;
  instance.demand.read(0, 1, 1) = 5;
  instance.demand.read(1, 0, 0) = 7;

  const QosGroups per_user(instance, QosScope::PerUser);
  EXPECT_DOUBLE_EQ(per_user.total_reads(0), 8);
  EXPECT_DOUBLE_EQ(per_user.total_reads(1), 7);

  const QosGroups overall(instance, QosScope::Overall);
  EXPECT_DOUBLE_EQ(overall.total_reads(0), 15);

  const QosGroups per_object(instance, QosScope::PerObject);
  EXPECT_DOUBLE_EQ(per_object.total_reads(0), 10);
  EXPECT_DOUBLE_EQ(per_object.total_reads(1), 5);
}

TEST(QosGroups, GroupOfBoundsChecked) {
  auto instance = line_instance(2, 1, 2, 0.9);
  const QosGroups groups(instance, QosScope::PerUser);
  EXPECT_THROW(groups.group_of(5, 0), InvalidArgument);
  EXPECT_THROW(groups.group_of(0, 9), InvalidArgument);
}

TEST(Scopes, BuilderEmitsOneQosRowPerActiveGroup) {
  auto instance = line_instance(3, 2, 2, 0.9);
  instance.demand.read(0, 0, 0) = 3;
  instance.demand.read(1, 1, 1) = 2;

  auto rows_with = [&](QosScope scope) {
    instance.goal = QosGoal{0.9, scope};
    const auto built = build_lp(instance, classes::general());
    std::size_t qos_rows = 0;
    for (std::size_t r = 0; r < built.model.row_count(); ++r)
      if (built.model.row_name(r).rfind("qos[", 0) == 0) ++qos_rows;
    return qos_rows;
  };
  EXPECT_EQ(rows_with(QosScope::PerUser), 2u);    // nodes 0 and 1 active
  EXPECT_EQ(rows_with(QosScope::Overall), 1u);
  EXPECT_EQ(rows_with(QosScope::PerObject), 2u);  // objects 0 and 1 active
  EXPECT_EQ(rows_with(QosScope::PerUserPerObject), 2u);
}

TEST(Scopes, OverallBoundNeverAbovePerUser) {
  // The overall constraint is implied by the per-user ones, so its optimum
  // cannot exceed the per-user optimum.
  for (std::uint64_t seed : {3u, 9u, 21u}) {
    auto instance = random_instance(seed, 6, 3, 4, 0.9, 400);
    bounds::BoundOptions options;
    options.solver = bounds::BoundOptions::Solver::Simplex;

    instance.goal = QosGoal{0.9, QosScope::PerUser};
    const auto per_user =
        bounds::compute_bound(instance, classes::general(), options);
    instance.goal = QosGoal{0.9, QosScope::Overall};
    const auto overall =
        bounds::compute_bound(instance, classes::general(), options);
    if (!per_user.achievable) continue;
    ASSERT_TRUE(overall.achievable) << "seed " << seed;
    EXPECT_LE(overall.lower_bound, per_user.lower_bound + 1e-6)
        << "seed " << seed;
  }
}

TEST(Scopes, PerUserPerObjectIsTightest) {
  auto instance = random_instance(15, 6, 3, 4, 0.8, 400);
  bounds::BoundOptions options;
  options.solver = bounds::BoundOptions::Solver::Simplex;

  instance.goal = QosGoal{0.8, QosScope::PerUserPerObject};
  const auto finest =
      bounds::compute_bound(instance, classes::general(), options);
  if (!finest.achievable) GTEST_SKIP() << "instance too sparse";
  for (QosScope scope :
       {QosScope::PerUser, QosScope::PerObject, QosScope::Overall}) {
    instance.goal = QosGoal{0.8, scope};
    const auto coarser =
        bounds::compute_bound(instance, classes::general(), options);
    ASSERT_TRUE(coarser.achievable);
    EXPECT_LE(coarser.lower_bound, finest.lower_bound + 1e-6);
  }
}

TEST(Scopes, RoundingFeasibleUnderEveryScope) {
  for (QosScope scope : {QosScope::PerUser, QosScope::Overall,
                         QosScope::PerObject, QosScope::PerUserPerObject}) {
    auto instance = random_instance(33, 6, 3, 4, 0.8, 400);
    instance.goal = QosGoal{0.8, scope};
    bounds::BoundOptions options;
    options.solver = bounds::BoundOptions::Solver::Simplex;
    const auto detail =
        bounds::compute_bound_detail(instance, classes::general(), options);
    if (!detail.bound.achievable) continue;
    EXPECT_TRUE(detail.bound.rounded_feasible)
        << "scope " << static_cast<int>(scope);
    EXPECT_GE(detail.bound.rounded_cost, detail.bound.lower_bound - 1e-6);
  }
}

TEST(Scopes, EvaluatePlacementHonorsScope) {
  // Node 0 uncovered, node 1 covered; per-user 60% fails, overall 60%
  // passes (node 1 carries more traffic).
  auto instance = line_instance(3, 1, 1, 0.6, /*with_origin=*/false);
  instance.demand.read(0, 0, 0) = 1;
  instance.demand.read(1, 0, 0) = 9;
  bounds::Placement placement(3, 1, 1);
  placement(2, 0, 0) = 1;  // covers node 1 (adjacent) but not node 0

  instance.goal = QosGoal{0.6, QosScope::PerUser};
  const auto per_user =
      bounds::evaluate_placement(instance, classes::general(), placement);
  EXPECT_FALSE(per_user.goal_met);

  instance.goal = QosGoal{0.6, QosScope::Overall};
  const auto overall =
      bounds::evaluate_placement(instance, classes::general(), placement);
  EXPECT_TRUE(overall.goal_met);
  EXPECT_NEAR(overall.min_qos, 0.9, 1e-12);
}

TEST(Scopes, AchievabilityHonorsScope) {
  // Reactive class, cold-start read at node 0 (far from origin): per-user
  // scope is capped by node 0's ratio, overall scope by the global ratio.
  auto instance = line_instance(4, 2, 1, 0.99);
  instance.demand.read(0, 0, 0) = 1;  // uncoverable
  instance.demand.read(2, 0, 0) = 9;  // origin-adjacent: always covered

  instance.goal = QosGoal{0.99, QosScope::PerUser};
  const auto per_user = max_achievable_qos(instance, classes::reactive());
  EXPECT_NEAR(per_user.min_qos, 0.0, 1e-12);  // node 0 fully cold

  instance.goal = QosGoal{0.99, QosScope::Overall};
  const auto overall = max_achievable_qos(instance, classes::reactive());
  EXPECT_NEAR(overall.min_qos, 0.9, 1e-12);
}

// ---------------------------------------------------------------------------
// Neighborhood knowledge.

TEST(Neighborhood, SphereBetweenLocalAndGlobal) {
  // Line 0-1-2-3 (origin 3). Node 0's access is known to node 1 (neighbor)
  // but not to node 2 under neighborhood knowledge.
  auto instance = line_instance(4, 3, 1, 0.9);
  instance.demand.read(0, 0, 0) = 1;

  auto spec = classes::cooperative_caching();
  spec.knowledge = Knowledge::Neighborhood;
  spec.history_intervals = 0;  // unbounded history isolates the know effect
  const auto allowed = compute_create_allowed(instance, spec);
  EXPECT_TRUE(allowed(1, 1, 0));   // neighbor learned of the access
  EXPECT_FALSE(allowed(2, 1, 0));  // two hops away: no knowledge

  spec.knowledge = Knowledge::Global;
  const auto global = compute_create_allowed(instance, spec);
  EXPECT_TRUE(global(2, 1, 0));
}

TEST(Neighborhood, PresetOrderedBetweenCachingAndCoop) {
  const auto instance = random_instance(71, 6, 4, 5, 0.85, 500);
  bounds::BoundOptions options;
  options.solver = bounds::BoundOptions::Solver::Simplex;
  const auto caching =
      bounds::compute_bound(instance, classes::caching(), options);
  const auto neighborhood =
      bounds::compute_bound(instance, classes::neighborhood_caching(),
                            options);
  const auto coop =
      bounds::compute_bound(instance, classes::cooperative_caching(),
                            options);
  if (neighborhood.achievable && coop.achievable) {
    EXPECT_GE(neighborhood.lower_bound, coop.lower_bound - 1e-6);
  }
  if (caching.achievable && neighborhood.achievable) {
    EXPECT_GE(caching.lower_bound, neighborhood.lower_bound - 1e-6);
  }
}

TEST(Neighborhood, RestrictsCreation) {
  ClassSpec spec;
  spec.knowledge = Knowledge::Neighborhood;
  EXPECT_TRUE(spec.restricts_creation());
}

}  // namespace
}  // namespace wanplace::mcperf
