// Theorem 1 (Appendix A), executable: minimal replication cost of the
// reduced MC-PERF instance equals the minimum set cover.
#include <gtest/gtest.h>

#include "bounds/branch_and_bound.h"
#include "bounds/exact.h"
#include "lp/simplex.h"
#include "mcperf/builder.h"
#include "mcperf/reduction.h"
#include "util/check.h"
#include "util/rng.h"

namespace wanplace::mcperf {
namespace {

SetCoverInstance random_cover(Rng& rng, std::size_t elements,
                              std::size_t sets) {
  SetCoverInstance cover;
  cover.element_count = elements;
  cover.sets.resize(sets);
  for (std::size_t e = 0; e < elements; ++e) {
    // Every element is covered by at least one set so a cover exists.
    cover.sets[rng.uniform_index(sets)].push_back(e);
  }
  for (std::size_t s = 0; s < sets; ++s)
    for (std::size_t e = 0; e < elements; ++e)
      if (rng.bernoulli(0.3)) cover.sets[s].push_back(e);
  // Dedup set members.
  for (auto& members : cover.sets) {
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()),
                  members.end());
  }
  return cover;
}

TEST(Reduction, CoversPredicate) {
  SetCoverInstance cover{.element_count = 3, .sets = {{0, 1}, {2}, {1, 2}}};
  EXPECT_TRUE(covers(cover, {0, 1}));
  EXPECT_TRUE(covers(cover, {0, 2}));
  EXPECT_FALSE(covers(cover, {0}));
  EXPECT_FALSE(covers(cover, {1, 2}));
}

TEST(Reduction, ExhaustiveOracle) {
  SetCoverInstance cover{.element_count = 3, .sets = {{0, 1}, {2}, {1, 2}}};
  EXPECT_EQ(min_set_cover_exhaustive(cover), 2u);
  SetCoverInstance everything{.element_count = 3, .sets = {{0, 1, 2}}};
  EXPECT_EQ(min_set_cover_exhaustive(everything), 1u);
  SetCoverInstance impossible{.element_count = 2, .sets = {{0}}};
  EXPECT_EQ(min_set_cover_exhaustive(impossible), SIZE_MAX);
}

TEST(Reduction, McPerfOptimumEqualsMinimumCover) {
  Rng rng(606);
  for (int trial = 0; trial < 6; ++trial) {
    const auto cover = random_cover(rng, 5, 4);
    const auto oracle = min_set_cover_exhaustive(cover);
    ASSERT_NE(oracle, SIZE_MAX);

    const auto instance = reduce_set_cover(cover);
    const auto result =
        bounds::solve_branch_and_bound(instance, classes::general());
    ASSERT_TRUE(result.feasible) << "trial " << trial;
    ASSERT_TRUE(result.proven_optimal) << "trial " << trial;
    EXPECT_NEAR(result.cost, static_cast<double>(oracle), 1e-6)
        << "trial " << trial;
  }
}

TEST(Reduction, LpRelaxationLowerBoundsTheCover) {
  Rng rng(707);
  const auto cover = random_cover(rng, 6, 5);
  const auto oracle = min_set_cover_exhaustive(cover);
  ASSERT_NE(oracle, SIZE_MAX);
  const auto built = build_lp(reduce_set_cover(cover), classes::general());
  const auto sol = lp::solve_simplex(built.model);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_LE(sol.objective, static_cast<double>(oracle) + 1e-9);
}

TEST(Reduction, RejectsDegenerateInput) {
  EXPECT_THROW(reduce_set_cover(SetCoverInstance{}), InvalidArgument);
  SetCoverInstance bad{.element_count = 2, .sets = {{5}}};
  EXPECT_THROW(reduce_set_cover(bad), InvalidArgument);
}

}  // namespace
}  // namespace wanplace::mcperf
