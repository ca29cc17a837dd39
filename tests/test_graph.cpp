#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include <sstream>
#include <string>
#include <utility>

#include "graph/generators.h"
#include "graph/io.h"
#include "graph/reachability.h"
#include "graph/shortest_paths.h"
#include "graph/topology.h"
#include "util/check.h"
#include "util/rng.h"

namespace wanplace::graph {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Floyd-Warshall oracle for cross-checking Dijkstra.
LatencyMatrix floyd_warshall(const Topology& topology) {
  const std::size_t n = topology.node_count();
  LatencyMatrix d(n, n, kInf);
  for (std::size_t i = 0; i < n; ++i) d(i, i) = 0;
  for (std::size_t i = 0; i < n; ++i)
    for (const auto& nb : topology.neighbors(static_cast<NodeId>(i)))
      d(i, nb.node) = std::min(d(i, nb.node), nb.latency_ms);
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        d(i, j) = std::min(d(i, j), d(i, k) + d(k, j));
  for (std::size_t i = 0; i < n; ++i) d(i, i) = topology.local_latency_ms();
  return d;
}

TEST(Topology, BasicConstruction) {
  Topology t(3, 5.0);
  t.add_edge(0, 1, 100);
  t.add_edge(1, 2, 150);
  EXPECT_EQ(t.node_count(), 3u);
  EXPECT_EQ(t.edge_count(), 2u);
  EXPECT_DOUBLE_EQ(t.local_latency_ms(), 5.0);
  EXPECT_TRUE(t.connected());
}

TEST(Topology, RejectsBadEdges) {
  Topology t(3);
  EXPECT_THROW(t.add_edge(0, 0, 10), InvalidArgument);
  EXPECT_THROW(t.add_edge(0, 3, 10), InvalidArgument);
  EXPECT_THROW(t.add_edge(0, 1, 0), InvalidArgument);
  EXPECT_THROW(t.add_edge(0, 1, -5), InvalidArgument);
}

TEST(Topology, DisconnectedDetected) {
  Topology t(4);
  t.add_edge(0, 1, 10);
  t.add_edge(2, 3, 10);
  EXPECT_FALSE(t.connected());
  t.add_edge(1, 2, 10);
  EXPECT_TRUE(t.connected());
}

TEST(Topology, UndirectedNeighbors) {
  Topology t(2);
  t.add_edge(0, 1, 42);
  ASSERT_EQ(t.neighbors(0).size(), 1u);
  ASSERT_EQ(t.neighbors(1).size(), 1u);
  EXPECT_EQ(t.neighbors(0)[0].node, 1);
  EXPECT_DOUBLE_EQ(t.neighbors(1)[0].latency_ms, 42);
}

TEST(ShortestPaths, LineTopology) {
  const auto t = line(4, 100, 7);
  const auto lat = all_pairs_latencies(t);
  EXPECT_DOUBLE_EQ(lat(0, 3), 300);
  EXPECT_DOUBLE_EQ(lat(0, 1), 100);
  EXPECT_DOUBLE_EQ(lat(2, 0), 200);
  EXPECT_DOUBLE_EQ(lat(1, 1), 7);  // local access latency
}

TEST(ShortestPaths, PicksShorterOfParallelRoutes) {
  Topology t(3);
  t.add_edge(0, 1, 100);
  t.add_edge(1, 2, 100);
  t.add_edge(0, 2, 500);
  const auto lat = all_pairs_latencies(t);
  EXPECT_DOUBLE_EQ(lat(0, 2), 200);  // via node 1
}

TEST(ShortestPaths, UnreachableIsInfinite) {
  Topology t(3);
  t.add_edge(0, 1, 50);
  const auto lat = all_pairs_latencies(t);
  EXPECT_TRUE(std::isinf(lat(0, 2)));
  EXPECT_TRUE(std::isinf(lat(2, 1)));
}

TEST(ShortestPaths, MatchesFloydWarshallOnRandomGraphs) {
  Rng rng(1234);
  for (int trial = 0; trial < 10; ++trial) {
    WaxmanParams params;
    params.node_count = 12;
    auto t = waxman(params, rng);
    const auto dij = all_pairs_latencies(t);
    const auto fw = floyd_warshall(t);
    for (std::size_t i = 0; i < t.node_count(); ++i)
      for (std::size_t j = 0; j < t.node_count(); ++j)
        EXPECT_NEAR(dij(i, j), fw(i, j), 1e-9)
            << "trial " << trial << " pair " << i << "," << j;
  }
}

TEST(ShortestPaths, SymmetricForUndirectedGraphs) {
  Rng rng(99);
  AsLikeParams params;
  params.node_count = 15;
  const auto t = as_like(params, rng);
  const auto lat = all_pairs_latencies(t);
  for (std::size_t i = 0; i < 15; ++i)
    for (std::size_t j = 0; j < 15; ++j)
      EXPECT_NEAR(lat(i, j), lat(j, i), 1e-9);
}

TEST(Generators, AsLikeIsConnectedAndDeterministic) {
  AsLikeParams params;
  params.node_count = 20;
  Rng rng1(7), rng2(7);
  const auto a = as_like(params, rng1);
  const auto b = as_like(params, rng2);
  EXPECT_TRUE(a.connected());
  EXPECT_EQ(a.edge_count(), b.edge_count());
  const auto la = all_pairs_latencies(a);
  const auto lb = all_pairs_latencies(b);
  EXPECT_EQ(la, lb);
}

TEST(Generators, AsLikeLatenciesInRange) {
  AsLikeParams params;
  params.node_count = 20;
  Rng rng(5);
  const auto t = as_like(params, rng);
  for (std::size_t n = 0; n < t.node_count(); ++n)
    for (const auto& nb : t.neighbors(static_cast<NodeId>(n))) {
      EXPECT_GE(nb.latency_ms, params.min_link_latency_ms);
      EXPECT_LE(nb.latency_ms, params.max_link_latency_ms);
    }
}

TEST(Generators, AsLikeHasSkewedDegrees) {
  AsLikeParams params;
  params.node_count = 40;
  Rng rng(21);
  const auto t = as_like(params, rng);
  std::size_t max_degree = 0, min_degree = SIZE_MAX;
  for (std::size_t n = 0; n < t.node_count(); ++n) {
    const auto d = t.neighbors(static_cast<NodeId>(n)).size();
    max_degree = std::max(max_degree, d);
    min_degree = std::min(min_degree, d);
  }
  EXPECT_GE(min_degree, params.attach_links);
  EXPECT_GE(max_degree, 3 * min_degree / 2)
      << "preferential attachment should produce hubs";
}

TEST(Generators, WaxmanConnected) {
  Rng rng(31);
  for (int trial = 0; trial < 5; ++trial) {
    WaxmanParams params;
    params.node_count = 15;
    EXPECT_TRUE(waxman(params, rng).connected());
  }
}

TEST(Generators, RegularShapes) {
  EXPECT_EQ(ring(5, 10).edge_count(), 5u);
  EXPECT_EQ(star(5, 10).edge_count(), 4u);
  EXPECT_EQ(line(5, 10).edge_count(), 4u);
  EXPECT_TRUE(ring(5, 10).connected());
  EXPECT_TRUE(star(5, 10).connected());
  EXPECT_TRUE(line(5, 10).connected());
}

TEST(Reachability, WithinThreshold) {
  const auto t = line(3, 100, 10);
  const auto lat = all_pairs_latencies(t);
  const auto dist = within_threshold(lat, 150);
  EXPECT_TRUE(dist(0, 0));   // local access within threshold
  EXPECT_TRUE(dist(0, 1));   // 100ms
  EXPECT_FALSE(dist(0, 2));  // 200ms
}

TEST(Reachability, ThresholdBoundaryInclusive) {
  const auto t = line(2, 150, 10);
  const auto lat = all_pairs_latencies(t);
  const auto dist = within_threshold(lat, 150);
  EXPECT_TRUE(dist(0, 1));
}

TEST(Reachability, FetchMatrices) {
  const auto all = fetch_all(3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_TRUE(all(i, j));

  const auto origin = fetch_origin_only(3, 2);
  EXPECT_TRUE(origin(0, 0));
  EXPECT_TRUE(origin(0, 2));
  EXPECT_FALSE(origin(0, 1));
  EXPECT_TRUE(origin(2, 2));
}

TEST(Reachability, NearestAssignment) {
  const auto t = line(4, 100, 10);
  const auto lat = all_pairs_latencies(t);
  const auto assignment = nearest_assignment(lat, {0, 3});
  EXPECT_EQ(assignment[0], 0);
  EXPECT_EQ(assignment[1], 0);  // 100 vs 200
  EXPECT_EQ(assignment[2], 3);
  EXPECT_EQ(assignment[3], 3);
}

TEST(Reachability, AssignmentTieBreaksToLowerId) {
  const auto t = line(3, 100, 10);
  const auto lat = all_pairs_latencies(t);
  const auto assignment = nearest_assignment(lat, {0, 2});
  EXPECT_EQ(assignment[1], 0);  // equidistant; lower id wins
}

TEST(Reachability, RestrictLatencies) {
  const auto t = line(4, 100, 10);
  const auto lat = all_pairs_latencies(t);
  const auto reduced = restrict_latencies(lat, {1, 3});
  EXPECT_EQ(reduced.rows(), 2u);
  EXPECT_DOUBLE_EQ(reduced(0, 1), 200);  // node1 -> node3
  EXPECT_DOUBLE_EQ(reduced(0, 0), 10);   // diagonal keeps local latency
}

TEST(TopologyIo, SaveLoadRoundTrip) {
  Rng rng(11);
  AsLikeParams params;
  params.node_count = 10;
  const auto original = as_like(params, rng);
  std::stringstream buffer;
  save_topology(original, buffer);
  const auto loaded = load_topology(buffer);
  EXPECT_EQ(loaded.node_count(), original.node_count());
  EXPECT_EQ(loaded.edge_count(), original.edge_count());
  EXPECT_DOUBLE_EQ(loaded.local_latency_ms(), original.local_latency_ms());
  EXPECT_EQ(all_pairs_latencies(loaded), all_pairs_latencies(original));
}

TEST(TopologyIo, ParsesCommentsAndBlankLines) {
  std::stringstream in(
      "# a comment\n"
      "\n"
      "local_latency 5\n"
      "nodes 3   # trailing comment\n"
      "edge 0 1 120\n"
      "edge 1 2 90\n");
  const auto topology = load_topology(in);
  EXPECT_EQ(topology.node_count(), 3u);
  EXPECT_EQ(topology.edge_count(), 2u);
  EXPECT_DOUBLE_EQ(topology.local_latency_ms(), 5);
}

TEST(TopologyIo, EdgesBeforeNodesDirective) {
  std::stringstream in(
      "edge 0 1 100\n"
      "nodes 2\n");
  const auto topology = load_topology(in);
  EXPECT_EQ(topology.edge_count(), 1u);
}

TEST(TopologyIo, RejectsMalformedInput) {
  std::stringstream missing_nodes("edge 0 1 100\n");
  EXPECT_THROW(load_topology(missing_nodes), Error);
  std::stringstream bad_directive("nodes 2\nfrobnicate 1\n");
  EXPECT_THROW(load_topology(bad_directive), Error);
  std::stringstream bad_edge("nodes 2\nedge 0 5 100\n");
  EXPECT_THROW(load_topology(bad_edge), Error);
  std::stringstream double_nodes("nodes 2\nnodes 3\n");
  EXPECT_THROW(load_topology(double_nodes), Error);
}

/// Load `text` as a topology and return the rejection message (failing
/// the test if it parses).
std::string load_topology_error(const std::string& text) {
  std::stringstream in(text);
  try {
    load_topology(in);
  } catch (const Error& error) {
    return error.what();
  }
  ADD_FAILURE() << "topology parsed: " << text;
  return "";
}

TEST(TopologyIo, RejectsBadEdgeBandwidth) {
  const std::pair<std::string, std::string> cases[] = {
      {"edge 0 1 5 abc",
       "topology:2: edge bandwidth is not a finite number: 'abc'"},
      {"edge 0 1 5 10 extra", "topology:2: unexpected trailing token 'extra'"},
      {"edge 0 1 5 10x",
       "topology:2: edge bandwidth is not a finite number: '10x'"},
      {"edge 0 1 5 0", "topology:2: edge bandwidth must be positive, got '0'"},
      {"edge 0 1 5 nan",
       "topology:2: edge bandwidth is not a finite number: 'nan'"},
  };
  for (const auto& [edge, expected] : cases) {
    const auto message = load_topology_error("nodes 2\n" + edge + "\n");
    EXPECT_NE(message.find(expected), std::string::npos)
        << edge << " -> " << message;
  }
  std::stringstream good("nodes 2\nedge 0 1 5 10 # capped\n");
  const auto topology = load_topology(good);
  ASSERT_EQ(topology.neighbors(0).size(), 1u);
  EXPECT_EQ(topology.neighbors(0)[0].bandwidth, 10);
}

// Every token is parsed whole into its type and every domain rule is
// checked at its line: none of these may load, and each names the line and
// the whole offending token.
TEST(TopologyIo, NamesTheLineAndWholeTokenOfEveryBadDirective) {
  const std::pair<std::string, std::string> cases[] = {
      {"nodes 6e3\n",
       "topology:1: node count is not an integer in [1, 2147483647]: '6e3'"},
      {"nodes 6 junk\n", "topology:1: unexpected trailing token 'junk'"},
      {"nodes -6\n",
       "topology:1: node count is not an integer in [1, 2147483647]: '-6'"},
      {"local_latency 10 oops\nnodes 6\n",
       "topology:1: unexpected trailing token 'oops'"},
      {"nodes 6\nedge 0 1 108.4x\n",
       "topology:2: edge latency is not a finite number: '108.4x'"},
      {"nodes 6\nedge 0 1 100\nedge 0 9 100\n",
       "topology:3: edge endpoint is not an integer in [0, 5]: '9'"},
      {"nodes 6\nedge 0 4294967297 100\n",
       "topology:2: edge endpoint is not an integer in [-2147483648, "
       "2147483647]: '4294967297'"},
      {"local_latency -1\nnodes 2\n",
       "topology:1: local latency must be >= 0, got '-1'"},
      {"nodes 2\nedge 1 1 5\n",
       "topology:2: edge endpoints must differ, got '1'"},
      {"nodes 2\nedge 0 1 0\n",
       "topology:2: edge latency must be positive, got '0'"},
      {"nodes 2\nnodes 3\n", "topology:2: duplicate directive 'nodes'"},
      {"# no nodes\nedge 0 1 5\n", "topology:2: missing directive 'nodes'"},
  };
  for (const auto& [text, expected] : cases) {
    const auto message = load_topology_error(text);
    EXPECT_NE(message.find(expected), std::string::npos)
        << text << " -> " << message;
  }
}

// The example in graph/io.h's header comment, with local_latency after
// nodes, loads.
TEST(TopologyIo, LoadsTheHeaderExample) {
  std::stringstream in(
      "nodes 20\n"
      "local_latency 10\n"
      "edge 0 1 120.5        # endpoints and one-way latency in ms\n"
      "edge 1 2 98 500       # optional bandwidth cap (requests/interval)\n");
  const auto topology = load_topology(in);
  EXPECT_EQ(topology.node_count(), 20u);
  EXPECT_EQ(topology.edge_count(), 2u);
  EXPECT_TRUE(topology.has_bandwidth_caps());
  EXPECT_DOUBLE_EQ(topology.local_latency_ms(), 10);
}

}  // namespace
}  // namespace wanplace::graph
