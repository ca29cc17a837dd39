#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>

#include "util/check.h"
#include "util/rng.h"
#include "workload/analysis.h"
#include "workload/demand.h"
#include "workload/generators.h"
#include "workload/history.h"
#include "workload/trace.h"

namespace wanplace::workload {
namespace {

Trace tiny_trace() {
  std::vector<Request> reqs{
      {.time_s = 10, .node = 0, .object = 0, .is_write = false},
      {.time_s = 5, .node = 1, .object = 1, .is_write = false},
      {.time_s = 90, .node = 0, .object = 1, .is_write = true},
  };
  return Trace(std::move(reqs), 100, 2, 2);
}

TEST(Trace, SortsByTime) {
  const auto t = tiny_trace();
  ASSERT_EQ(t.requests().size(), 3u);
  EXPECT_DOUBLE_EQ(t.requests()[0].time_s, 5);
  EXPECT_DOUBLE_EQ(t.requests()[2].time_s, 90);
}

TEST(Trace, CountsReadsAndWrites) {
  const auto t = tiny_trace();
  EXPECT_EQ(t.read_count(), 2u);
  EXPECT_EQ(t.write_count(), 1u);
}

TEST(Trace, RejectsOutOfRange) {
  std::vector<Request> bad_time{{.time_s = 100, .node = 0, .object = 0}};
  EXPECT_THROW(Trace(bad_time, 100, 1, 1), InvalidArgument);
  std::vector<Request> bad_node{{.time_s = 0, .node = 5, .object = 0}};
  EXPECT_THROW(Trace(bad_node, 100, 1, 1), InvalidArgument);
  std::vector<Request> bad_object{{.time_s = 0, .node = 0, .object = 9}};
  EXPECT_THROW(Trace(bad_object, 100, 1, 1), InvalidArgument);
}

TEST(Trace, SaveLoadRoundTrip) {
  const auto t = tiny_trace();
  std::stringstream buffer;
  t.save(buffer);
  const auto loaded = Trace::load(buffer);
  EXPECT_EQ(loaded.node_count(), t.node_count());
  EXPECT_EQ(loaded.object_count(), t.object_count());
  ASSERT_EQ(loaded.requests().size(), t.requests().size());
  for (std::size_t i = 0; i < t.requests().size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.requests()[i].time_s, t.requests()[i].time_s);
    EXPECT_EQ(loaded.requests()[i].node, t.requests()[i].node);
    EXPECT_EQ(loaded.requests()[i].object, t.requests()[i].object);
    EXPECT_EQ(loaded.requests()[i].is_write, t.requests()[i].is_write);
  }
}

TEST(Trace, LoadRejectsGarbage) {
  std::stringstream buffer("not a trace at all");
  EXPECT_THROW(Trace::load(buffer), Error);
}

/// Load `text` as a trace and return the rejection message (failing the
/// test if it parses).
std::string load_trace_error(const std::string& text) {
  std::stringstream buffer(text);
  try {
    Trace::load(buffer);
  } catch (const Error& error) {
    return error.what();
  }
  ADD_FAILURE() << "trace parsed: " << text;
  return "";
}

TEST(Trace, LoadRejectsBadTokenInsteadOfTruncating) {
  // `nan` as the object on line 2 used to end the read there and silently
  // drop every later request.
  const auto message = load_trace_error(
      "wanplace-trace v1 100 2 2\n"
      "0 0 nan r\n"
      "1 0 1 r\n"
      "2 1 1 w\n");
  EXPECT_NE(message.find("trace:2: object is not an integer in [0, 1]: 'nan'"),
            std::string::npos)
      << message;
}

TEST(Trace, LoadNamesTheLineOfEveryMalformedRecord) {
  const std::string header = "wanplace-trace v1 100 2 2\n0 0 0 r\n";
  const std::pair<std::string, std::string> cases[] = {
      {"1 0 1 r\n2 x 1 w\n", "trace:4: node is not an integer in [0, 1]: 'x'"},
      {"1 0 1 r\nabc 1 1 w\n", "trace:4: time is not a finite number: 'abc'"},
      {"1 0 1 q\n", "trace:3: bad request kind 'q'"},
      {"1 0", "trace:3: missing its object field in '1 0'"},
  };
  for (const auto& [body, expected] : cases) {
    const auto message = load_trace_error(header + body);
    EXPECT_NE(message.find(expected), std::string::npos)
        << body << " -> " << message;
  }
}

// Every field is read whole into its type and checked at its own line.
TEST(Trace, LoadNamesTheLineAndWholeTokenOfEveryBadField) {
  const std::string header = "wanplace-trace v1 100 2 2\n";
  const std::pair<std::string, std::string> cases[] = {
      {header + "0 0 0 r 1 1 1 w\n",
       "trace:2: unexpected trailing token '1'"},
      {header + "0 0 0 r\n1 99 0 r\n",
       "trace:3: node is not an integer in [0, 1]: '99'"},
      {header + "0 -1 0 r\n", "trace:2: node is not an integer in [0, 1]: '-1'"},
      {header + "0 3.7 0 r\n",
       "trace:2: node is not an integer in [0, 1]: '3.7'"},
      {"wanplace-trace v1 100 2 2 7\n0 0 0 r\n",
       "trace:1: unexpected trailing token '7'"},
      {header + "1e999 0 0 r\n",
       "trace:2: time is not a finite number: '1e999'"},
      {header + "0 0 0 r\n1 1 1 r\n2 0 1 read\n3 1 0 w\n",
       "trace:4: bad request kind 'read'"},
      {"wanplace-trace v1 0 2 2\n",
       "trace:1: duration must be positive, got '0'"},
      {header + "100 0 0 r\n",
       "trace:2: time is outside the trace horizon, got '100'"},
  };
  for (const auto& [text, expected] : cases) {
    const auto message = load_trace_error(text);
    EXPECT_NE(message.find(expected), std::string::npos)
        << text << " -> " << message;
  }
}

// ---------------------------------------------------------------------------
// Event-stream parsing: every malformed line must be rejected with the
// source, the 1-based line number, and the offending token in the message.

/// Load `text` as an event stream named "events.txt" and return the
/// rejection message (failing the test if it parses).
std::string load_events_error(const std::string& text) {
  std::istringstream in(text);
  try {
    load_events(in, "events.txt");
  } catch (const Error& err) {
    return err.what();
  }
  ADD_FAILURE() << "expected load_events to reject: " << text;
  return "";
}

void expect_mentions(const std::string& message, const std::string& needle) {
  EXPECT_NE(message.find(needle), std::string::npos)
      << "message '" << message << "' should mention '" << needle << "'";
}

TEST(Events, SaveLoadRoundTrip) {
  const std::vector<Event> events{
      DemandDeltaEvent{2, 5, 1, 3.25, -0.5},
      NodeJoinEvent{120.5, {{0, 80.0}, {3, 95.25}}},
      NodeLeaveEvent{4},
      LatencyUpdateEvent{1, 2, 66.125},
  };
  std::stringstream buffer;
  save_events(events, buffer);
  const auto loaded = load_events(buffer);
  ASSERT_EQ(loaded.size(), events.size());
  const auto& d = std::get<DemandDeltaEvent>(loaded[0]);
  EXPECT_EQ(d.node, 2);
  EXPECT_EQ(d.interval, 5u);
  EXPECT_EQ(d.object, 1);
  EXPECT_DOUBLE_EQ(d.read_delta, 3.25);
  EXPECT_DOUBLE_EQ(d.write_delta, -0.5);
  const auto& j = std::get<NodeJoinEvent>(loaded[1]);
  EXPECT_DOUBLE_EQ(j.default_latency_ms, 120.5);
  ASSERT_EQ(j.latency_overrides.size(), 2u);
  EXPECT_EQ(j.latency_overrides[1].first, 3);
  EXPECT_DOUBLE_EQ(j.latency_overrides[1].second, 95.25);
  EXPECT_EQ(std::get<NodeLeaveEvent>(loaded[2]).node, 4);
  const auto& u = std::get<LatencyUpdateEvent>(loaded[3]);
  EXPECT_EQ(u.a, 1);
  EXPECT_EQ(u.b, 2);
  EXPECT_DOUBLE_EQ(u.latency_ms, 66.125);
}

TEST(Events, LoadSkipsCommentsAndBlankLines) {
  std::istringstream in(
      "wanplace-events v1\n"
      "# a comment\n"
      "\n"
      "leave 3\n");
  const auto loaded = load_events(in);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(std::get<NodeLeaveEvent>(loaded[0]).node, 3);
}

TEST(Events, LoadRejectsMissingHeader) {
  const auto message = load_events_error("demand 0 0 0 1 0\n");
  expect_mentions(message, "events.txt:1");
  expect_mentions(message, "wanplace-events v1");
}

TEST(Events, LoadReportsFileLineAndToken) {
  // The bad token sits on line 3 (header is line 1).
  const auto message = load_events_error(
      "wanplace-events v1\n"
      "demand 0 0 0 1 0\n"
      "demand 0 0 zebra 1 0\n");
  expect_mentions(message, "events.txt:3");
  expect_mentions(message, "'zebra'");
}

TEST(Events, LoadRejectsPartiallyNumericTokens) {
  // "3x" consumes a prefix under stol/stod; the whole token must parse.
  expect_mentions(load_events_error("wanplace-events v1\nleave 3x\n"), "'3x'");
  expect_mentions(
      load_events_error("wanplace-events v1\ndemand 1.5 0 0 1 0\n"), "'1.5'");
}

TEST(Events, LoadRejectsNonFiniteNumbers) {
  const auto nan_message = load_events_error(
      "wanplace-events v1\ndemand 0 0 0 nan 0\n");
  expect_mentions(nan_message, "events.txt:2");
  expect_mentions(nan_message, "finite");
  expect_mentions(
      load_events_error("wanplace-events v1\nlatency 0 1 inf\n"), "finite");
  expect_mentions(
      load_events_error("wanplace-events v1\njoin -inf\n"), "finite");
}

TEST(Events, LoadRejectsMissingAndTrailingFields) {
  expect_mentions(load_events_error("wanplace-events v1\ndemand 0 0 0 1\n"),
                  "missing its write_delta field");
  const auto trailing =
      load_events_error("wanplace-events v1\nleave 2 surplus\n");
  expect_mentions(trailing, "trailing");
  expect_mentions(trailing, "'surplus'");
}

TEST(Events, LoadRejectsBadKindsAndOverrides) {
  expect_mentions(load_events_error("wanplace-events v1\nexplode 1 2\n"),
                  "'explode'");
  expect_mentions(load_events_error("wanplace-events v1\njoin 100 0=50\n"),
                  "node:latency");
  expect_mentions(load_events_error("wanplace-events v1\njoin 100 0:oops\n"),
                  "'oops'");
  const auto negative_interval =
      load_events_error("wanplace-events v1\ndemand 0 -2 0 1 0\n");
  expect_mentions(negative_interval, "events.txt:2: interval");
  expect_mentions(negative_interval, "'-2'");
}

TEST(Events, LoadRejectsIdsOutsideTheirType) {
  // Ids are read into NodeId: 4294967299 is an error, not node 3.
  expect_mentions(
      load_events_error("wanplace-events v1\nleave 4294967299\n"),
      "events.txt:2: node is not an integer in [-2147483648, 2147483647]: "
      "'4294967299'");
  expect_mentions(
      load_events_error("wanplace-events v1\ndemand 4294967297 0 1 5 0\n"),
      "events.txt:2: node is not an integer in [-2147483648, 2147483647]: "
      "'4294967297'");
}

TEST(Events, LoadStripsInlineComments) {
  std::istringstream in("wanplace-events v1\nleave 3 # note\n");
  const auto loaded = load_events(in);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(std::get<NodeLeaveEvent>(loaded[0]).node, 3);
}

TEST(Demand, AggregationBucketsCorrectly) {
  const auto t = tiny_trace();
  const auto d = aggregate(t, 10);  // 10s intervals
  EXPECT_DOUBLE_EQ(d.read(0, 1, 0), 1);   // t=10 -> interval 1
  EXPECT_DOUBLE_EQ(d.read(1, 0, 1), 1);   // t=5 -> interval 0
  EXPECT_DOUBLE_EQ(d.write(0, 9, 1), 1);  // t=90 -> interval 9
  EXPECT_DOUBLE_EQ(d.read(0, 9, 1), 0);
}

TEST(Demand, TotalsConsistent) {
  Rng rng(42);
  WebParams params;
  params.shape.node_count = 5;
  params.shape.object_count = 20;
  params.shape.request_count = 1000;
  const auto trace = generate_web(params, rng);
  const auto demand = aggregate(trace, 12);
  EXPECT_DOUBLE_EQ(demand.total_reads(), 1000);
  double per_node = 0;
  for (std::size_t n = 0; n < 5; ++n) per_node += demand.total_reads(n);
  EXPECT_DOUBLE_EQ(per_node, 1000);
  double per_object = 0;
  for (std::size_t k = 0; k < 20; ++k) per_object += demand.object_reads(k);
  EXPECT_DOUBLE_EQ(per_object, 1000);
}

TEST(Generators, WebEveryObjectAccessed) {
  Rng rng(1);
  WebParams params;
  params.shape.node_count = 4;
  params.shape.object_count = 50;
  params.shape.request_count = 500;
  const auto trace = generate_web(params, rng);
  EXPECT_GE(trace.min_object_reads(), 1u);
}

TEST(Generators, WebIsHeavyTailed) {
  Rng rng(2);
  WebParams params;
  params.shape.node_count = 4;
  params.shape.object_count = 100;
  params.shape.request_count = 10000;
  params.zipf_s = 0.9;
  const auto trace = generate_web(params, rng);
  // Most popular object should dominate the least popular by a large factor.
  EXPECT_GE(trace.max_object_reads(), 50 * trace.min_object_reads());
}

TEST(Generators, GroupIsRoughlyUniform) {
  Rng rng(3);
  GroupParams params;
  params.shape.node_count = 4;
  params.shape.object_count = 20;
  params.shape.request_count = 20000;
  const auto trace = generate_group(params, rng);
  const double expected = 20000.0 / 20;
  EXPECT_GE(trace.min_object_reads(), expected * 0.7);
  EXPECT_LE(trace.max_object_reads(), expected * 1.3);
}

TEST(Generators, WritesFollowFraction) {
  Rng rng(4);
  GroupParams params;
  params.shape.node_count = 3;
  params.shape.object_count = 5;
  params.shape.request_count = 10000;
  params.shape.write_fraction = 0.2;
  const auto trace = generate_group(params, rng);
  EXPECT_NEAR(static_cast<double>(trace.write_count()) / 10000, 0.2, 0.03);
}

TEST(Generators, NodeWeightsSkewActivity) {
  Rng rng(5);
  WebParams params;
  params.shape.node_count = 3;
  params.shape.object_count = 10;
  params.shape.request_count = 9000;
  params.shape.node_weights = {8, 1, 1};
  const auto trace = generate_web(params, rng);
  const auto demand = aggregate(trace, 1);
  EXPECT_GT(demand.total_reads(0), 3 * demand.total_reads(1));
}

TEST(Generators, ZipfWeightsDecreasing) {
  const auto w = zipf_weights(10, 0.9);
  for (std::size_t k = 1; k < w.size(); ++k) EXPECT_LT(w[k], w[k - 1]);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
}

TEST(Generators, DiurnalWeightsQuietAtEdgesPeakMidday) {
  const auto weights = diurnal_interval_weights(24, 0.05);
  ASSERT_EQ(weights.size(), 24u);
  EXPECT_LT(weights.front(), weights[12]);
  EXPECT_LT(weights.back(), weights[12]);
  double total = 0;
  for (double w : weights) total += w;
  // The first interval carries a small share of traffic — this is what lets
  // reactive classes reach high QoS despite the cold start.
  EXPECT_LT(weights.front() / total, 0.02);
}

TEST(Generators, IntervalWeightsShapeArrivals) {
  Rng rng(77);
  GroupParams params;
  params.shape.node_count = 3;
  params.shape.object_count = 5;
  params.shape.request_count = 20000;
  params.shape.duration_s = 2400;
  params.shape.interval_weights = {1, 0, 3};  // no arrivals in middle third
  const auto trace = generate_group(params, rng);
  const auto demand = aggregate(trace, 3);
  double per_interval[3] = {0, 0, 0};
  for (std::size_t n = 0; n < 3; ++n)
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t k = 0; k < 5; ++k)
        per_interval[i] += demand.read(n, i, k);
  EXPECT_DOUBLE_EQ(per_interval[1], 0);
  EXPECT_NEAR(per_interval[2] / per_interval[0], 3.0, 0.2);
}

TEST(Generators, SkewedNodeWeightsDeterministic) {
  Rng a(9), b(9);
  EXPECT_EQ(skewed_node_weights(10, 0.8, a), skewed_node_weights(10, 0.8, b));
}

TEST(History, SingleIntervalWindow) {
  Demand demand(1, 4, 1);
  demand.read(0, 1, 0) = 5;
  const auto hist = history(demand, 1);
  EXPECT_FALSE(hist(0, 0, 0));
  EXPECT_TRUE(hist(0, 1, 0));
  EXPECT_FALSE(hist(0, 2, 0));  // window of 1: only the access interval
  EXPECT_FALSE(hist(0, 3, 0));
}

TEST(History, WiderWindow) {
  Demand demand(1, 5, 1);
  demand.read(0, 1, 0) = 1;
  const auto hist = history(demand, 3);
  EXPECT_FALSE(hist(0, 0, 0));
  EXPECT_TRUE(hist(0, 1, 0));
  EXPECT_TRUE(hist(0, 2, 0));
  EXPECT_TRUE(hist(0, 3, 0));
  EXPECT_FALSE(hist(0, 4, 0));
}

TEST(History, UnboundedWindow) {
  Demand demand(1, 5, 1);
  demand.read(0, 1, 0) = 1;
  const auto hist = history(demand, 0);
  EXPECT_FALSE(hist(0, 0, 0));
  for (std::size_t i = 1; i < 5; ++i) EXPECT_TRUE(hist(0, i, 0));
}

TEST(History, RenewedAccessExtendsWindow) {
  Demand demand(1, 6, 1);
  demand.read(0, 0, 0) = 1;
  demand.read(0, 3, 0) = 1;
  const auto hist = history(demand, 2);
  EXPECT_TRUE(hist(0, 0, 0));
  EXPECT_TRUE(hist(0, 1, 0));
  EXPECT_FALSE(hist(0, 2, 0));
  EXPECT_TRUE(hist(0, 3, 0));
  EXPECT_TRUE(hist(0, 4, 0));
  EXPECT_FALSE(hist(0, 5, 0));
}

TEST(History, KnowledgeHistoryUnionsSpheres) {
  Demand demand(2, 2, 1);
  demand.read(1, 0, 0) = 1;  // only node 1 accesses the object
  const auto hist = history(demand, 0);

  const auto local = knowledge_history(hist, know_local(2));
  EXPECT_FALSE(local(0, 0, 0));  // node 0 never saw it
  EXPECT_TRUE(local(1, 0, 0));

  const auto global = knowledge_history(hist, know_global(2));
  EXPECT_TRUE(global(0, 0, 0));  // global knowledge sees node 1's access
  EXPECT_TRUE(global(1, 0, 0));
}

TEST(Analysis, GapAnalysisFindsMinimumGaps) {
  std::vector<Request> reqs{
      {.time_s = 0, .node = 0, .object = 0},
      {.time_s = 10, .node = 0, .object = 0},
      {.time_s = 13, .node = 0, .object = 0},
      {.time_s = 40, .node = 1, .object = 0},
  };
  const Trace trace(std::move(reqs), 100, 2, 1);
  BoolMatrix local(2, 2);
  local(0, 0) = local(1, 1) = 1;
  const auto gaps = access_gaps(trace, local);
  EXPECT_DOUBLE_EQ(gaps.m1_s, 3);
  EXPECT_DOUBLE_EQ(gaps.m2_s, 10);
}

TEST(Analysis, InteractionWidensSphere) {
  std::vector<Request> reqs{
      {.time_s = 0, .node = 0, .object = 0},
      {.time_s = 1, .node = 1, .object = 0},
  };
  const Trace trace(std::move(reqs), 10, 2, 1);
  BoolMatrix local(2, 2);
  local(0, 0) = local(1, 1) = 1;
  const auto isolated = access_gaps(trace, local);
  EXPECT_TRUE(std::isinf(isolated.m1_s));  // one access per node

  BoolMatrix joint(2, 2);
  joint.fill(1);
  const auto combined = access_gaps(trace, joint);
  EXPECT_DOUBLE_EQ(combined.m1_s, 1);
}

TEST(Analysis, PerAccessIntervalTheorem3) {
  // 2*m1 >= m2: use m1/2.
  GapAnalysis close{.m1_s = 4, .m2_s = 6};
  EXPECT_DOUBLE_EQ(per_access_evaluation_interval(close), 2);
  // 2*m1 < m2: m1 suffices.
  GapAnalysis sparse{.m1_s = 4, .m2_s = 10};
  EXPECT_DOUBLE_EQ(per_access_evaluation_interval(sparse), 4);
}

TEST(Analysis, BoundAppliesTheorem2) {
  EXPECT_TRUE(bound_applies(1.0, 1.0));   // same interval
  EXPECT_TRUE(bound_applies(1.0, 2.0));   // 2x
  EXPECT_TRUE(bound_applies(1.0, 5.0));   // beyond 2x
  EXPECT_FALSE(bound_applies(1.0, 1.5));  // in (Delta, 2*Delta)
  EXPECT_FALSE(bound_applies(2.0, 1.0));  // smaller interval
}

}  // namespace
}  // namespace wanplace::workload
