#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/reachability.h"
#include "graph/shortest_paths.h"
#include "sim/simulator.h"
#include "sim/sweep.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace wanplace::sim {
namespace {

/// Line of 4 nodes (100ms links, Tlat 150ms), origin at node 3.
struct Fixture {
  graph::LatencyMatrix latencies;
  BoolMatrix dist;
  graph::NodeId origin = 3;

  Fixture() {
    const auto topology = graph::line(4, 100, 10);
    latencies = graph::all_pairs_latencies(topology);
    dist = graph::within_threshold(latencies, 150);
  }

  CachingConfig caching_config(std::size_t capacity,
                               bool cooperative = false) const {
    return CachingConfig{.capacity = capacity,
                         .cooperative = cooperative,
                         .origin = origin,
                         .tlat_ms = 150,
                         .interval_count = 4};
  }
};

workload::Trace repeated_reads(std::size_t repetitions) {
  // Node 0 reads object 0 `repetitions` times.
  std::vector<workload::Request> requests;
  for (std::size_t r = 0; r < repetitions; ++r)
    requests.push_back({.time_s = static_cast<double>(r * 10),
                        .node = 0,
                        .object = 0,
                        .is_write = false});
  return workload::Trace(std::move(requests), 3600, 4, 1);
}

TEST(CachingSim, FirstMissThenHits) {
  Fixture fix;
  const auto trace = repeated_reads(5);
  const auto result = simulate_caching(trace, fix.latencies,
                                       fix.caching_config(1), heuristics::lru_factory());
  EXPECT_EQ(result.served, 5u);
  EXPECT_EQ(result.creations, 1u);  // one insertion on the first miss
  // First access goes to the origin (300ms > Tlat): uncovered. Rest hit.
  EXPECT_EQ(result.covered, 4u);
  EXPECT_NEAR(result.qos[0], 0.8, 1e-12);
}

TEST(CachingSim, ZeroCapacityAlwaysMisses) {
  Fixture fix;
  const auto trace = repeated_reads(5);
  const auto result = simulate_caching(trace, fix.latencies,
                                       fix.caching_config(0), heuristics::lru_factory());
  EXPECT_EQ(result.creations, 0u);
  EXPECT_EQ(result.covered, 0u);  // origin is 300ms away
  EXPECT_DOUBLE_EQ(result.storage_cost, 0);
}

TEST(CachingSim, OriginNodeAlwaysCovered) {
  Fixture fix;
  std::vector<workload::Request> requests{
      {.time_s = 0, .node = 3, .object = 0, .is_write = false}};
  const workload::Trace trace(std::move(requests), 100, 4, 1);
  const auto result = simulate_caching(trace, fix.latencies,
                                       fix.caching_config(1), heuristics::lru_factory());
  EXPECT_EQ(result.covered, 1u);
  EXPECT_EQ(result.creations, 0u);  // origin never inserts
}

TEST(CachingSim, CooperativeFetchesFromNeighbor) {
  Fixture fix;
  // Node 1 reads object 0 (miss, inserts); then node 0 reads it twice.
  std::vector<workload::Request> requests{
      {.time_s = 0, .node = 1, .object = 0},
      {.time_s = 10, .node = 0, .object = 0},
      {.time_s = 20, .node = 0, .object = 0},
  };
  const workload::Trace trace(std::move(requests), 100, 4, 1);

  const auto plain = simulate_caching(trace, fix.latencies,
                                      fix.caching_config(1, false),
                                      heuristics::lru_factory());
  // Plain caching: node 0's first read goes to the origin (uncovered).
  EXPECT_EQ(plain.covered, 1u);  // only node 0's second read (local hit)

  const auto coop = simulate_caching(trace, fix.latencies,
                                     fix.caching_config(1, true),
                                     heuristics::lru_factory());
  // Cooperative: node 0 fetches from node 1 (100ms, covered), then hits.
  EXPECT_EQ(coop.covered, 2u);
  EXPECT_GT(coop.qos[0], plain.qos[0]);
}

TEST(CachingSim, CooperativeDirectoryTracksEviction) {
  Fixture fix;
  // Node 1 caches object 0 then evicts it by touching object 1; node 0's
  // later read of object 0 cannot be served by node 1 anymore.
  std::vector<workload::Request> requests{
      {.time_s = 0, .node = 1, .object = 0},
      {.time_s = 10, .node = 1, .object = 1},  // evicts object 0 (capacity 1)
      {.time_s = 20, .node = 0, .object = 0},
  };
  const workload::Trace trace(std::move(requests), 100, 4, 2);
  const auto coop = simulate_caching(trace, fix.latencies,
                                     fix.caching_config(1, true),
                                     heuristics::lru_factory());
  // Node 0's read must fall back to the origin: uncovered.
  EXPECT_NEAR(coop.qos[0], 0.0, 1e-12);
}

TEST(CachingSim, StorageCostIsProvisioned) {
  Fixture fix;
  const auto trace = repeated_reads(1);
  const auto result = simulate_caching(trace, fix.latencies,
                                       fix.caching_config(2), heuristics::lru_factory());
  // capacity 2 x 3 non-origin nodes x 4 intervals.
  EXPECT_DOUBLE_EQ(result.storage_cost, 2 * 3 * 4);
}

// ---------------------------------------------------------------------------
// Interval-heuristic simulation.

TEST(IntervalSim, CoversDemandAfterWarmup) {
  Fixture fix;
  std::vector<workload::Request> requests;
  for (int rep = 0; rep < 8; ++rep)
    requests.push_back({.time_s = rep * 400.0, .node = 0, .object = 0});
  const workload::Trace trace(std::move(requests), 3600, 4, 1);

  heuristics::GreedyGlobalPlacement greedy(fix.dist, fix.origin,
                                           {.capacity = 1});
  IntervalSimConfig config;
  config.origin = fix.origin;
  config.interval_count = 4;
  config.accounting = IntervalSimConfig::StorageAccounting::Capacity;
  config.provisioned = 1;
  const auto sim =
      simulate_interval_heuristic(trace, fix.latencies, config, greedy);
  // Interval 0 (reads at t=0,400,800) is a cold start; the 5 later reads
  // are covered once the object is placed.
  EXPECT_EQ(sim.result.served, 8u);
  EXPECT_EQ(sim.result.covered, 5u);
  EXPECT_DOUBLE_EQ(sim.result.storage_cost, 1 * 3 * 4);
  EXPECT_GE(sim.result.creations, 1u);
}

TEST(IntervalSim, UsageAccountingCountsCells) {
  Fixture fix;
  std::vector<workload::Request> requests{
      {.time_s = 0, .node = 0, .object = 0}};
  const workload::Trace trace(std::move(requests), 3600, 4, 1);
  heuristics::RandomPlacement nothing(fix.origin, 0, 1);
  IntervalSimConfig config;
  config.origin = fix.origin;
  config.interval_count = 2;
  config.accounting = IntervalSimConfig::StorageAccounting::Usage;
  const auto sim =
      simulate_interval_heuristic(trace, fix.latencies, config, nothing);
  EXPECT_DOUBLE_EQ(sim.result.storage_cost, 0);
  EXPECT_DOUBLE_EQ(sim.result.total_cost, 0);
}

// ---------------------------------------------------------------------------
// Sweeps.

workload::Trace zipf_trace(Rng& rng, std::size_t nodes = 4,
                           std::size_t objects = 10,
                           std::size_t requests = 2000) {
  workload::WebParams params;
  params.shape.node_count = nodes;
  params.shape.object_count = objects;
  params.shape.request_count = requests;
  params.shape.duration_s = 3600 * 4;
  return workload::generate_web(params, rng);
}

TEST(Sweep, CachingFindsFeasibleCapacity) {
  Fixture fix;
  Rng rng(5);
  const auto trace = zipf_trace(rng);
  const auto sweep = sweep_caching(trace, fix.latencies,
                                   fix.caching_config(0),
                                   heuristics::lru_factory(), 0.5,
                                   exhaustive_candidates(10));
  ASSERT_TRUE(sweep.feasible);
  EXPECT_GE(sweep.best.min_qos, 0.5);
  EXPECT_GT(sweep.provisioned, 0u);
}

TEST(Sweep, ImpossibleTargetReported) {
  Fixture fix;
  Rng rng(6);
  const auto trace = zipf_trace(rng);
  // 99.999% per-user QoS is unreachable: every node's first touch of each
  // object misses to a 300ms origin.
  const auto sweep = sweep_caching(trace, fix.latencies,
                                   fix.caching_config(0),
                                   heuristics::lru_factory(), 0.99999,
                                   exhaustive_candidates(10));
  EXPECT_FALSE(sweep.feasible);
}

TEST(Sweep, GreedyGlobalMeetsModerateTarget) {
  Fixture fix;
  Rng rng(7);
  const auto trace = zipf_trace(rng);
  IntervalSimConfig config;
  config.origin = fix.origin;
  config.interval_count = 4;
  const auto sweep = sweep_greedy_global(trace, fix.latencies, fix.dist,
                                         config, 0.5, exhaustive_candidates(10));
  ASSERT_TRUE(sweep.feasible);
  EXPECT_GE(sweep.best.min_qos, 0.5);
}

TEST(Sweep, ReplicaGreedyMeetsModerateTarget) {
  Fixture fix;
  Rng rng(8);
  const auto trace = zipf_trace(rng);
  IntervalSimConfig config;
  config.origin = fix.origin;
  config.interval_count = 4;
  const auto sweep = sweep_replica_greedy(trace, fix.latencies, fix.dist,
                                          config, 0.5, exhaustive_candidates(3));
  ASSERT_TRUE(sweep.feasible);
  EXPECT_GE(sweep.best.min_qos, 0.5);
}

TEST(Sweep, HigherTargetCostsMore) {
  Fixture fix;
  Rng rng(9);
  const auto trace = zipf_trace(rng, 4, 10, 4000);
  IntervalSimConfig config;
  config.origin = fix.origin;
  config.interval_count = 4;
  const auto low = sweep_greedy_global(trace, fix.latencies, fix.dist,
                                       config, 0.4, exhaustive_candidates(10));
  const auto high = sweep_greedy_global(trace, fix.latencies, fix.dist,
                                        config, 0.7, exhaustive_candidates(10));
  if (low.feasible && high.feasible) {
    EXPECT_LE(low.best.total_cost, high.best.total_cost + 1e-9);
  }
}

}  // namespace
}  // namespace wanplace::sim
