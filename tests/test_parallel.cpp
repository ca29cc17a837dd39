// Determinism tests for the parallelism knob: every component that accepts
// it must produce results identical to the sequential seed path — the knob
// buys wall-clock time only, never a different answer.
#include <gtest/gtest.h>

#include "core/selector.h"
#include "graph/generators.h"
#include "graph/reachability.h"
#include "graph/shortest_paths.h"
#include "instance_helpers.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace wanplace {
namespace {

// --------------------------------------------------------------------------
// Selector: parallelism=1 and parallelism=N reports are bit-identical.

void expect_same_bound(const bounds::ClassBound& a,
                       const bounds::ClassBound& b) {
  EXPECT_EQ(a.class_name, b.class_name);
  EXPECT_EQ(a.achievable, b.achievable);
  EXPECT_EQ(a.max_achievable_qos, b.max_achievable_qos);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
  EXPECT_EQ(a.rounded_cost, b.rounded_cost);
  EXPECT_EQ(a.rounded_feasible, b.rounded_feasible);
  EXPECT_EQ(a.gap, b.gap);
  EXPECT_EQ(a.lp_rows, b.lp_rows);
  EXPECT_EQ(a.lp_variables, b.lp_variables);
  EXPECT_EQ(a.solver_iterations, b.solver_iterations);
  // solve_seconds is wall-clock and legitimately differs.
}

core::SelectionReport run_selector(const mcperf::Instance& instance,
                                   std::size_t parallelism) {
  core::SelectorOptions options;
  options.parallelism = parallelism;
  core::HeuristicSelector selector(options);
  return selector.select(instance);
}

TEST(ParallelSelector, ReportBitIdenticalAcrossParallelism) {
  const auto instance = test::random_instance(42);
  const auto serial = run_selector(instance, 1);
  for (std::size_t parallelism : {2u, 4u}) {
    const auto parallel = run_selector(instance, parallelism);
    expect_same_bound(serial.general, parallel.general);
    ASSERT_EQ(serial.classes.size(), parallel.classes.size());
    for (std::size_t i = 0; i < serial.classes.size(); ++i)
      expect_same_bound(serial.classes[i], parallel.classes[i]);
    EXPECT_EQ(serial.recommended, parallel.recommended);
    EXPECT_EQ(serial.suggestion, parallel.suggestion);
    EXPECT_EQ(serial.optimality_ratio, parallel.optimality_ratio);
  }
}

TEST(ParallelSelector, LineInstanceIdenticalReports) {
  const auto instance = test::line_instance(5, 4, 4, 0.8);
  const auto serial = run_selector(instance, 1);
  const auto parallel = run_selector(instance, 3);
  expect_same_bound(serial.general, parallel.general);
  ASSERT_EQ(serial.classes.size(), parallel.classes.size());
  for (std::size_t i = 0; i < serial.classes.size(); ++i)
    expect_same_bound(serial.classes[i], parallel.classes[i]);
  EXPECT_EQ(serial.recommended, parallel.recommended);
}

// --------------------------------------------------------------------------
// Sweeps: batched speculative evaluation replays the serial early-exit
// logic, so the result must match the seed path exactly — including which
// candidate is reported when early exits trigger mid-batch.

void expect_same_sweep(const sim::SweepResult& a, const sim::SweepResult& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.provisioned, b.provisioned);
  EXPECT_EQ(a.best.total_cost, b.best.total_cost);
  EXPECT_EQ(a.best.storage_cost, b.best.storage_cost);
  EXPECT_EQ(a.best.creation_cost, b.best.creation_cost);
  EXPECT_EQ(a.best.min_qos, b.best.min_qos);
  EXPECT_EQ(a.best.covered, b.best.covered);
  EXPECT_EQ(a.best.served, b.best.served);
  EXPECT_EQ(a.best.creations, b.best.creations);
  EXPECT_EQ(a.best.qos, b.best.qos);
}

struct SweepFixture {
  graph::LatencyMatrix latencies;
  BoolMatrix dist;
  graph::NodeId origin = 3;
  workload::Trace trace;

  SweepFixture()
      : trace([] {
          Rng rng(5);
          workload::WebParams params;
          params.shape.node_count = 4;
          params.shape.object_count = 10;
          params.shape.request_count = 2000;
          params.shape.duration_s = 3600 * 4;
          return workload::generate_web(params, rng);
        }()) {
    const auto topology = graph::line(4, 100, 10);
    latencies = graph::all_pairs_latencies(topology);
    dist = graph::within_threshold(latencies, 150);
  }
};

TEST(ParallelSweep, CachingIdenticalAcrossParallelism) {
  SweepFixture fix;
  sim::CachingConfig config;
  config.capacity = 0;
  config.origin = fix.origin;
  config.tlat_ms = 150;
  config.interval_count = 4;
  const auto candidates = sim::exhaustive_candidates(10);
  const auto serial =
      sim::sweep_caching(fix.trace, fix.latencies, config,
                         heuristics::lru_factory(), 0.5, candidates, 1);
  for (std::size_t parallelism : {2u, 3u, 4u, 7u}) {
    const auto parallel = sim::sweep_caching(fix.trace, fix.latencies, config,
                                             heuristics::lru_factory(), 0.5,
                                             candidates, parallelism);
    expect_same_sweep(serial, parallel);
  }
}

TEST(ParallelSweep, GreedyGlobalIdenticalAcrossParallelism) {
  SweepFixture fix;
  sim::IntervalSimConfig config;
  config.origin = fix.origin;
  config.interval_count = 4;
  const auto candidates = sim::exhaustive_candidates(8);
  const auto serial = sim::sweep_greedy_global(
      fix.trace, fix.latencies, fix.dist, config, 0.5, candidates, 0, 1);
  for (std::size_t parallelism : {2u, 4u}) {
    const auto parallel = sim::sweep_greedy_global(fix.trace, fix.latencies,
                                                   fix.dist, config, 0.5,
                                                   candidates, 0, parallelism);
    expect_same_sweep(serial, parallel);
  }
}

TEST(ParallelSweep, ReplicaGreedyIdenticalAcrossParallelism) {
  SweepFixture fix;
  sim::IntervalSimConfig config;
  config.origin = fix.origin;
  config.interval_count = 4;
  const auto candidates = sim::exhaustive_candidates(4);
  const auto serial = sim::sweep_replica_greedy(
      fix.trace, fix.latencies, fix.dist, config, 0.5, candidates, 0, 1);
  const auto parallel = sim::sweep_replica_greedy(
      fix.trace, fix.latencies, fix.dist, config, 0.5, candidates, 0, 3);
  expect_same_sweep(serial, parallel);
}

}  // namespace
}  // namespace wanplace
