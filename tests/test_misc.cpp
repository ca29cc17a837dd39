// Edge-case coverage: logging, stopwatch, solver budget paths, cost-model
// corners.
#include <gtest/gtest.h>

#include <thread>

#include "instance_helpers.h"
#include "lp/simplex.h"
#include "util/log.h"
#include "util/stopwatch.h"

namespace wanplace {
namespace {

TEST(Log, LevelGate) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  // These must be no-ops (nothing observable to assert beyond not crashing).
  log_debug("invisible ", 42);
  log_info("invisible");
  log_warn("invisible");
  set_log_level(saved);
}

TEST(Stopwatch, MonotonicAndResettable) {
  Stopwatch watch;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double first = watch.elapsed_seconds();
  EXPECT_GT(first, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GE(watch.elapsed_seconds(), first);
  watch.reset();
  EXPECT_LT(watch.elapsed_seconds(), first + 0.005);
}

TEST(Simplex, IterationLimitReported) {
  Rng rng(4242);
  lp::LpModel model;
  for (int j = 0; j < 20; ++j) model.add_variable(0, 1, rng.uniform(-1, 1));
  for (int r = 0; r < 15; ++r) {
    std::vector<std::size_t> cols;
    std::vector<double> coeffs;
    for (std::size_t j = 0; j < 20; ++j)
      if (rng.bernoulli(0.5)) {
        cols.push_back(j);
        coeffs.push_back(rng.uniform(-2, 2));
      }
    if (!cols.empty()) model.add_row(lp::RowType::Le, 5, cols, coeffs);
  }
  lp::SimplexOptions options;
  options.max_iterations = 1;
  const auto sol = lp::solve_simplex(model, options);
  EXPECT_EQ(sol.status, lp::SolveStatus::IterationLimit);
  // Even a truncated run must report a non-lying certificate.
  lp::SimplexOptions full;
  const auto exact = lp::solve_simplex(model, full);
  if (exact.status == lp::SolveStatus::Optimal) {
    EXPECT_LE(sol.dual_bound, exact.objective + 1e-7);
  }
}

TEST(Instance, MaxPossibleCostIncludesWrites) {
  auto instance = test::line_instance(3, 2, 2, 0.9);
  const double base = instance.max_possible_cost();
  instance.costs.delta = 1;
  instance.demand.write(0, 0, 0) = 10;
  EXPECT_GT(instance.max_possible_cost(), base);
}

TEST(Demand, BoundaryTimestampLandsInLastInterval) {
  std::vector<workload::Request> requests{
      {.time_s = 99.999999, .node = 0, .object = 0}};
  const workload::Trace trace(std::move(requests), 100, 1, 1);
  const auto demand = workload::aggregate(trace, 10);
  EXPECT_DOUBLE_EQ(demand.read(0, 9, 0), 1);
}

TEST(Model, MaxViolationFlagsEverything) {
  lp::LpModel model;
  const auto x = model.add_variable(0, 1, 0);
  model.add_row(lp::RowType::Ge, 1, {x}, {1});
  model.add_row(lp::RowType::Eq, 0.5, {x}, {1});
  EXPECT_GT(model.max_violation({2.0}), 0);   // bound violated
  EXPECT_GT(model.max_violation({0.0}), 0);   // Ge row violated
  EXPECT_GT(model.max_violation({1.0}), 0);   // Eq row violated
  lp::LpModel feasible;
  const auto y = feasible.add_variable(0, 1, 0);
  feasible.add_row(lp::RowType::Le, 1, {y}, {1});
  EXPECT_LE(feasible.max_violation({0.5}), 1e-12);
}

TEST(Simplex, AllVariablesFixedStillSolves) {
  lp::LpModel model;
  const auto x = model.add_variable(0.3, 0.3, 2);
  model.add_row(lp::RowType::Le, 1, {x}, {1});
  const auto sol = lp::solve_simplex(model);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 0.6, 1e-9);
}

TEST(Simplex, EmptyRowListIsBoxProblem) {
  lp::LpModel model;
  model.add_variable(0, 2, -1);
  model.add_variable(-1, 3, 2);
  const auto sol = lp::solve_simplex(model);
  ASSERT_EQ(sol.status, lp::SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, -2 + -2, 1e-9);
}

}  // namespace
}  // namespace wanplace
