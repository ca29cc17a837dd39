// Continuous re-placement service tests: model-delta validation, the
// publish policy, and the daemon end to end.
//
// The Service.GoldenPublishPins fixture freezes the publish/hold decision
// sequence and the final published cost of a fixed drift-event script over
// the six case-study classes. The daemon pipeline is deterministic
// (simplex + deterministic rounding), so the reason strings pin exactly
// and the costs to 1e-9 relative. Regenerate after a DELIBERATE semantic
// change with WANPLACE_PRINT_GOLDEN=1 and paste over kServiceGolden.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bounds/engine.h"
#include "bounds/feasible.h"
#include "instance_helpers.h"
#include "mcperf/heuristic_class.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/daemon.h"
#include "service/delta.h"
#include "service/policy.h"
#include "util/check.h"
#include "util/rng.h"

namespace wanplace {
namespace {

constexpr double kTlat = 150;

// ---------------------------------------------------------------------------
// Instance::apply_delta validation: every malformed event must throw
// InvalidArgument and leave the instance untouched.

double demand_sum(const mcperf::Instance& instance) {
  double sum = 0;
  for (std::size_t n = 0; n < instance.node_count(); ++n)
    for (std::size_t i = 0; i < instance.interval_count(); ++i)
      for (std::size_t k = 0; k < instance.object_count(); ++k)
        sum += instance.demand.read(n, i, k) + instance.demand.write(n, i, k);
  return sum;
}

void expect_rejected(mcperf::Instance& instance, const workload::Event& event,
                     double tlat = kTlat) {
  const double before = demand_sum(instance);
  const std::size_t nodes = instance.node_count();
  EXPECT_THROW(instance.apply_delta(event, tlat), InvalidArgument);
  EXPECT_EQ(instance.node_count(), nodes);
  EXPECT_EQ(demand_sum(instance), before);
}

TEST(DeltaValidation, DemandUnknownNode) {
  auto instance = test::random_instance(1);
  expect_rejected(instance, workload::DemandDeltaEvent{99, 0, 0, 1, 0});
  expect_rejected(instance, workload::DemandDeltaEvent{-1, 0, 0, 1, 0});
}

TEST(DeltaValidation, DemandUnknownInterval) {
  auto instance = test::random_instance(1);
  expect_rejected(instance, workload::DemandDeltaEvent{0, 99, 0, 1, 0});
}

TEST(DeltaValidation, DemandUnknownObject) {
  auto instance = test::random_instance(1);
  expect_rejected(instance, workload::DemandDeltaEvent{0, 0, 99, 1, 0});
  expect_rejected(instance, workload::DemandDeltaEvent{0, 0, -3, 1, 0});
}

TEST(DeltaValidation, DemandNonFinite) {
  auto instance = test::random_instance(1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  expect_rejected(instance, workload::DemandDeltaEvent{0, 0, 0, nan, 0});
  expect_rejected(instance, workload::DemandDeltaEvent{0, 0, 0, 0, inf});
}

TEST(DeltaValidation, DemandCannotGoNegative) {
  auto instance = test::line_instance(4, 2, 2, 0.9);
  instance.demand.read(0, 0, 0) = 2;
  expect_rejected(instance, workload::DemandDeltaEvent{0, 0, 0, -5, 0});
  expect_rejected(instance, workload::DemandDeltaEvent{0, 0, 0, 0, -1});
  // A delta down to (numerically) zero is fine and clamps exactly.
  instance.apply_delta(workload::DemandDeltaEvent{0, 0, 0, -2, 0}, kTlat);
  EXPECT_EQ(instance.demand.read(0, 0, 0), 0);
}

TEST(DeltaValidation, TreeInstanceTopologyEvents) {
  graph::TreeParams params;
  params.depth = 2;
  params.fanout = 2;
  params.level_latency_ms = {100, 50};
  Rng rng(3);
  auto instance =
      test::tree_instance(graph::tree(params, rng), 120, 1, 2, 0.9);
  const auto& parent = instance.links->parent;
  // A joiner carries no parent edge, so joins stay rejected on trees.
  expect_rejected(instance, workload::NodeJoinEvent{100, {}}, 120);
  // Membership shrinks from the leaves inward: an interior node (and the
  // root) cannot leave while it still has live children.
  graph::NodeId interior = -1, leaf = -1;
  for (std::size_t n = 1; n < instance.node_count(); ++n) {
    bool has_child = false;
    for (std::size_t m = 0; m < instance.node_count(); ++m)
      if (parent[m] == static_cast<graph::NodeId>(n)) has_child = true;
    (has_child ? interior : leaf) = static_cast<graph::NodeId>(n);
  }
  ASSERT_GE(interior, 0);
  ASSERT_GE(leaf, 0);
  expect_rejected(instance, workload::NodeLeaveEvent{0}, 120);  // root/origin
  expect_rejected(instance, workload::NodeLeaveEvent{interior}, 120);
  // A latency update must re-measure an up-link; a non-adjacent pair (two
  // leaves share no edge) is rejected.
  graph::NodeId other_leaf = -1;
  for (std::size_t n = 1; n < instance.node_count(); ++n)
    if (static_cast<graph::NodeId>(n) != leaf &&
        parent[static_cast<std::size_t>(leaf)] != static_cast<graph::NodeId>(n))
      other_leaf = static_cast<graph::NodeId>(n);
  bool other_is_leaf = true;
  for (std::size_t m = 0; m < instance.node_count(); ++m)
    if (parent[m] == other_leaf) other_is_leaf = false;
  if (other_is_leaf)
    expect_rejected(instance, workload::LatencyUpdateEvent{leaf, other_leaf, 80},
                    120);
  // Accepted: re-measure the leaf's up-link (latencies shift by the delta
  // for every pair crossing it), then the leaf itself leaves.
  const auto up = parent[static_cast<std::size_t>(leaf)];
  const double before =
      instance.latencies(static_cast<std::size_t>(leaf), 0);
  const double old_link =
      instance.links->up_latency_ms[static_cast<std::size_t>(leaf)];
  instance.apply_delta(workload::LatencyUpdateEvent{leaf, up, old_link + 30},
                       120);
  EXPECT_NEAR(instance.latencies(static_cast<std::size_t>(leaf), 0),
              before + 30, 1e-12);
  instance.apply_delta(workload::NodeLeaveEvent{leaf}, 120);
  EXPECT_EQ(instance.dist(static_cast<std::size_t>(leaf),
                          static_cast<std::size_t>(leaf)),
            0);
  EXPECT_FALSE(std::isfinite(
      instance.latencies(static_cast<std::size_t>(leaf), 0)));
  // Once every leaf under it is gone, the interior node may leave too.
  for (std::size_t m = 1; m < instance.node_count(); ++m)
    if (parent[m] == interior && instance.dist(m, m) != 0)
      instance.apply_delta(
          workload::NodeLeaveEvent{static_cast<graph::NodeId>(m)}, 120);
  instance.apply_delta(workload::NodeLeaveEvent{interior}, 120);
  EXPECT_EQ(instance.dist(static_cast<std::size_t>(interior),
                          static_cast<std::size_t>(interior)),
            0);
}

TEST(DeltaValidation, JoinNeedsPositiveTlat) {
  auto instance = test::random_instance(2);
  expect_rejected(instance, workload::NodeJoinEvent{100, {}}, 0);
  expect_rejected(instance, workload::LatencyUpdateEvent{0, 1, 80}, -5);
}

TEST(DeltaValidation, JoinBadLatencies) {
  auto instance = test::random_instance(2);
  expect_rejected(instance, workload::NodeJoinEvent{-10, {}});
  expect_rejected(instance, workload::NodeJoinEvent{100, {{99, 50.0}}});
  expect_rejected(instance, workload::NodeJoinEvent{100, {{0, -50.0}}});
}

TEST(DeltaValidation, LeaveUnknownOriginOrDeparted) {
  auto instance = test::random_instance(3);  // origin at node 0
  expect_rejected(instance, workload::NodeLeaveEvent{42});
  expect_rejected(instance, workload::NodeLeaveEvent{0});
  instance.apply_delta(workload::NodeLeaveEvent{2}, kTlat);
  expect_rejected(instance, workload::NodeLeaveEvent{2});  // already left
}

TEST(DeltaValidation, LatencyUpdateBadReferences) {
  auto instance = test::random_instance(4);
  expect_rejected(instance, workload::LatencyUpdateEvent{0, 99, 80});
  expect_rejected(instance, workload::LatencyUpdateEvent{2, 2, 80});
  expect_rejected(instance, workload::LatencyUpdateEvent{0, 1, 0});
  instance.apply_delta(workload::NodeLeaveEvent{3}, kTlat);
  expect_rejected(instance, workload::LatencyUpdateEvent{0, 3, 80});
}

TEST(DeltaValidation, JoinAndLeaveMaintainLiveness) {
  auto instance = test::random_instance(5);
  const std::size_t before = instance.node_count();
  instance.apply_delta(workload::NodeJoinEvent{100, {{0, 60.0}}}, kTlat);
  ASSERT_EQ(instance.node_count(), before + 1);
  const auto fresh = static_cast<graph::NodeId>(before);
  EXPECT_NE(instance.dist(before, before), 0);
  EXPECT_NE(instance.dist(before, 0), 0);  // 60 <= Tlat
  instance.apply_delta(workload::NodeLeaveEvent{fresh}, kTlat);
  EXPECT_EQ(instance.dist(before, before), 0);  // tombstoned, id kept
  EXPECT_EQ(instance.node_count(), before + 1);
}

// ---------------------------------------------------------------------------
// Publish policy unit cases: one per reason string.

TEST(Policy, ReasonsCoverEveryBranch) {
  service::PublishPolicy policy;  // 1% margin, publish on infeasible
  const service::CandidatePlan none{false, 0};
  const service::CandidatePlan cheap{true, 90};
  const service::CandidatePlan close{true, 99.5};
  const service::IncumbentPlan fresh{false, false, 0};
  const service::IncumbentPlan live{true, true, 100};
  const service::IncumbentPlan broken{true, false, 100};

  EXPECT_STREQ(decide(policy, fresh, none).reason, "no-candidate");
  EXPECT_FALSE(decide(policy, fresh, none).publish);
  EXPECT_STREQ(decide(policy, fresh, cheap).reason, "initial");
  EXPECT_STREQ(decide(policy, broken, cheap).reason, "incumbent-infeasible");
  EXPECT_STREQ(decide(policy, live, cheap).reason, "improved");
  EXPECT_STREQ(decide(policy, live, close).reason, "held");

  service::PublishPolicy sticky;
  sticky.publish_on_infeasible = false;
  // Cost gate still applies when infeasible publishing is off.
  EXPECT_STREQ(decide(sticky, broken, cheap).reason, "improved");
  EXPECT_STREQ(decide(sticky, broken, close).reason, "held");

  service::PublishPolicy eager;
  eager.min_relative_gain = 0;
  EXPECT_STREQ(decide(eager, live, close).reason, "improved");
  // Zero margin still demands a STRICT improvement.
  EXPECT_STREQ(decide(eager, live, {true, 100}).reason, "held");
}

// ---------------------------------------------------------------------------
// Daemon end to end.

/// The service golden fixture: the 4-node line of the golden bound tests
/// (origin at node 3) with the same deterministic demand and cost pattern.
mcperf::Instance service_instance() {
  auto instance = test::line_instance(4, 3, 3, 0.6);
  instance.costs.alpha = 1;
  instance.costs.beta = 2;
  instance.costs.delta = 0.25;
  for (std::size_t n = 0; n < 4; ++n)
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t k = 0; k < 3; ++k) {
        instance.demand.read(n, i, k) =
            static_cast<double>(1 + (n + 2 * i + 3 * k) % 4);
        instance.demand.write(n, i, k) = (n + i + k) % 2 ? 0.5 : 0.0;
      }
  return instance;
}

/// Fixed drift script: demand swings, a latency change, a join, demand on
/// the fresh node, a leave, and a final perturbation.
std::vector<workload::Event> service_events() {
  return {
      workload::DemandDeltaEvent{0, 1, 2, 3.0, 0.0},
      workload::DemandDeltaEvent{2, 0, 0, 5.0, 0.5},
      workload::LatencyUpdateEvent{0, 2, 120.0},
      workload::NodeJoinEvent{100.0, {}},
      workload::DemandDeltaEvent{4, 0, 1, 4.0, 0.0},
      workload::NodeLeaveEvent{1},
      workload::DemandDeltaEvent{0, 2, 1, 2.0, 0.0},
  };
}

service::DaemonOptions daemon_options(mcperf::ClassSpec spec) {
  service::DaemonOptions options;
  options.spec = std::move(spec);
  options.tlat_ms = kTlat;
  return options;
}

TEST(Service, StartPublishesInitialPlan) {
  service::PlacementDaemon daemon(service_instance(),
                                  daemon_options(mcperf::classes::general()));
  const auto out = daemon.start();
  EXPECT_EQ(out.kind, "start");
  EXPECT_TRUE(out.published);
  EXPECT_EQ(out.reason, "initial");
  EXPECT_TRUE(daemon.has_plan());
  EXPECT_GT(daemon.published_cost(), 0);
  EXPECT_FALSE(out.warm);
}

TEST(Service, RejectedEventLeavesStateUntouched) {
  service::PlacementDaemon daemon(service_instance(),
                                  daemon_options(mcperf::classes::general()));
  daemon.start();
  const double cost = daemon.published_cost();
  const auto out =
      daemon.on_event(workload::DemandDeltaEvent{99, 0, 0, 1, 0});
  EXPECT_TRUE(out.rejected);
  EXPECT_EQ(out.reason, "rejected");
  EXPECT_FALSE(out.error.empty());
  EXPECT_EQ(daemon.events_seen(), 1u);
  EXPECT_EQ(daemon.published_cost(), cost);
  // The stream keeps flowing after a bad entry.
  const auto next =
      daemon.on_event(workload::DemandDeltaEvent{0, 0, 0, 1, 0});
  EXPECT_FALSE(next.rejected);
}

// The six case-study classes of the selector experiments.
std::vector<mcperf::ClassSpec> service_classes() {
  return {mcperf::classes::general(),
          mcperf::classes::storage_constrained(),
          mcperf::classes::replica_constrained(),
          mcperf::classes::decentralized_local_routing(),
          mcperf::classes::caching(),
          mcperf::classes::cooperative_caching()};
}

// Every class on the golden script: each event's bound equals a cold
// solve of the drifted instance, and every published plan is feasible at
// the cost the daemon published it at (bounds::evaluate_placement).
TEST(Service, IncrementalBoundsMatchColdRebuild) {
  for (const auto& spec : service_classes()) {
    service::PlacementDaemon daemon(service_instance(), daemon_options(spec));
    const auto check_plan = [&](const service::EventOutcome& out) {
      if (!out.published) return;
      const auto eval =
          bounds::evaluate_placement(daemon.instance(), spec, daemon.plan());
      EXPECT_TRUE(eval.feasible()) << spec.name << " " << out.kind;
      EXPECT_NEAR(eval.cost, daemon.published_cost(),
                  1e-9 * (1 + std::abs(eval.cost)))
          << spec.name << " " << out.kind;
    };
    check_plan(daemon.start());
    for (const auto& event : service_events()) {
      const auto out = daemon.on_event(event);
      ASSERT_FALSE(out.rejected);
      check_plan(out);
      const auto cold = bounds::compute_bound(daemon.instance(), spec);
      EXPECT_EQ(out.achievable, cold.achievable) << spec.name;
      if (!out.achievable) continue;
      ASSERT_EQ(out.status, cold.status) << spec.name << " " << out.kind;
      if (out.status == lp::SolveStatus::Optimal) {
        EXPECT_NEAR(out.lower_bound, cold.lower_bound,
                    1e-7 * (1 + std::abs(cold.lower_bound)))
            << spec.name << " " << out.kind;
      }
    }
  }
}

struct ServiceGoldenCase {
  const char* name;      // class preset name
  const char* reasons;   // comma-joined decision reasons, start() first
  std::size_t publishes; // publish count over start + 7 events
  double final_cost;     // published cost after the last event (1e-9 rel)
};

constexpr ServiceGoldenCase kServiceGolden[] = {
    {"general",
     "initial,held,held,held,held,held,improved,incumbent-infeasible", 3, 10},
    {"storage-constrained",
     "initial,improved,held,held,held,held,incumbent-infeasible,"
     "incumbent-infeasible",
     4, 21},
    {"replica-constrained", "initial,held,held,held,held,held,held,held", 1,
     16.25},
    {"decentral-local-routing",
     "initial,held,held,held,held,held,incumbent-infeasible,held", 2,
     10.875},
    {"caching", "initial,held,held,held,held,held,incumbent-infeasible,held",
     2, 61},
    {"coop-caching",
     "initial,held,held,improved,held,held,incumbent-infeasible,held", 3, 21},
};

TEST(Service, GoldenPublishPins) {
  const bool print = std::getenv("WANPLACE_PRINT_GOLDEN") != nullptr;
  const auto classes = service_classes();
  ASSERT_EQ(classes.size(), std::size(kServiceGolden));
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const auto& g = kServiceGolden[c];
    service::PlacementDaemon daemon(service_instance(),
                                    daemon_options(classes[c]));
    std::string reasons = daemon.start().reason;
    for (const auto& event : service_events()) {
      const auto out = daemon.on_event(event);
      reasons += ",";
      reasons += out.reason;
    }
    if (print) {
      std::printf("    {\"%s\", \"%s\", %zu, %.17g},\n",
                  classes[c].name.c_str(), reasons.c_str(),
                  daemon.publishes(), daemon.published_cost());
      continue;
    }
    EXPECT_EQ(classes[c].name, g.name);
    EXPECT_EQ(reasons, g.reasons) << g.name;
    EXPECT_EQ(daemon.publishes(), g.publishes) << g.name;
    EXPECT_NEAR(daemon.published_cost(), g.final_cost,
                1e-9 * (1 + std::abs(g.final_cost)))
        << g.name;
  }
}

TEST(Service, CountersTrackEventsAndPivotSavings) {
  auto& registry = obs::Registry::global();
  registry.enable(true);
  registry.reset();
  {
    service::PlacementDaemon daemon(
        service_instance(), daemon_options(mcperf::classes::general()));
    daemon.start();
    // Demand-only drift: every event takes the incremental path and the
    // warm dual re-solve needs far fewer pivots than the cold baseline.
    for (int i = 0; i < 5; ++i) {
      const auto out = daemon.on_event(
          workload::DemandDeltaEvent{i % 4, 1, i % 3, 1.5, 0.0});
      ASSERT_FALSE(out.rejected);
      EXPECT_TRUE(out.incremental);
      EXPECT_TRUE(out.warm);
    }
  }
  const auto snapshot = registry.snapshot();
  registry.enable(false);
  const auto sum = [&](const char* name) {
    const auto it = snapshot.find(name);
    return it == snapshot.end() ? 0.0 : it->second.sum;
  };
  EXPECT_EQ(sum("service.events"), 5);
  EXPECT_EQ(sum("service.incremental"), 5);
  EXPECT_EQ(sum("service.rebuilds"), 1);  // the start() build
  EXPECT_EQ(sum("service.publishes") + sum("service.holds"), 6);
  EXPECT_GT(sum("service.pivots_saved"), 0);
}

// The widened incremental window: with gamma > 0 (live route blocks) and
// provisioned SC/RC classes, the whole drift script — joins included —
// delta-patches; the only rebuild of the replay is the start() build.
TEST(Service, WidenedWindowStaysIncremental) {
  const mcperf::ClassSpec specs[] = {mcperf::classes::general(),
                                     mcperf::classes::storage_constrained(),
                                     mcperf::classes::replica_constrained()};
  for (const auto& spec : specs) {
    auto& registry = obs::Registry::global();
    registry.enable(true);
    registry.reset();
    {
      auto instance = service_instance();
      instance.costs.gamma = 0.01;
      service::PlacementDaemon daemon(std::move(instance),
                                      daemon_options(spec));
      daemon.start();
      for (const auto& event : service_events()) {
        const auto out = daemon.on_event(event);
        ASSERT_FALSE(out.rejected) << spec.name << ": " << out.error;
        EXPECT_TRUE(out.incremental) << spec.name << " " << out.kind;
      }
      EXPECT_EQ(daemon.status().rebuilds, 1u) << spec.name;
      EXPECT_EQ(daemon.status().incremental, 7u) << spec.name;
    }
    const auto snapshot = registry.snapshot();
    registry.enable(false);
    const auto rebuilds = snapshot.find("service.rebuilds");
    ASSERT_TRUE(rebuilds != snapshot.end()) << spec.name;
    EXPECT_EQ(rebuilds->second.sum, 1) << spec.name;  // the start() build
  }
}

void expect_same_status(const service::DaemonStatus& a,
                        const service::DaemonStatus& b) {
  EXPECT_EQ(a.has_plan, b.has_plan);
  EXPECT_EQ(a.incumbent_cost, b.incumbent_cost);
  EXPECT_EQ(a.published_cost, b.published_cost);
  EXPECT_EQ(a.lower_bound, b.lower_bound);
  EXPECT_EQ(a.regret, b.regret);
  EXPECT_EQ(a.relative_regret, b.relative_regret);
  EXPECT_EQ(a.margin, b.margin);
  EXPECT_EQ(a.last_reason, b.last_reason);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.applied, b.applied);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.publishes, b.publishes);
  EXPECT_EQ(a.holds, b.holds);
  EXPECT_EQ(a.rebuilds, b.rebuilds);
  EXPECT_EQ(a.incremental, b.incremental);
  EXPECT_EQ(a.basis_drops, b.basis_drops);
  EXPECT_EQ(a.events_since_publish, b.events_since_publish);
}

// Batching: singleton batches replay the drift script bit-for-bit against
// the per-event path (same solves, same decisions, same published plan),
// and folding the script into two batches still lands on the same instance
// and the same certified bound — with one solve per batch instead of one
// per event.
TEST(Service, BatchMatchesSequential) {
  service::PlacementDaemon seq(service_instance(),
                               daemon_options(mcperf::classes::general()));
  service::PlacementDaemon one(service_instance(),
                               daemon_options(mcperf::classes::general()));
  service::PlacementDaemon bat(service_instance(),
                               daemon_options(mcperf::classes::general()));
  seq.start();
  one.start();
  bat.start();
  const auto events = service_events();
  service::EventOutcome last_seq;
  for (std::size_t e = 0; e < events.size(); ++e) {
    const auto& event = events[e];
    last_seq = seq.on_event(event);
    const auto folded = one.on_batch(workload::EventBatch{event});
    // A batch of one is the event path with batch accounting: the solve,
    // the audit, and the publish decision are bit-identical.
    EXPECT_EQ(folded.kind, "batch[1]");
    EXPECT_EQ(folded.incremental, last_seq.incremental);
    EXPECT_EQ(folded.lower_bound, last_seq.lower_bound);
    EXPECT_EQ(folded.published, last_seq.published);
    EXPECT_EQ(folded.reason, last_seq.reason);
    if (e == 3) {
      // A rejected singleton is the rejected event: same error, same
      // consumed index, same counters; the replay then continues in step.
      const workload::Event bad = workload::DemandDeltaEvent{99, 0, 0, 1, 0};
      const auto seq_bad = seq.on_event(bad);
      const auto one_bad = one.on_batch({bad});
      EXPECT_TRUE(seq_bad.rejected);
      EXPECT_EQ(one_bad.rejected, seq_bad.rejected);
      EXPECT_EQ(one_bad.error, seq_bad.error);
      EXPECT_EQ(one_bad.index, seq_bad.index);
      expect_same_status(one.status(), seq.status());
    }
  }
  ASSERT_EQ(seq.has_plan(), one.has_plan());
  ASSERT_TRUE(seq.has_plan());
  EXPECT_EQ(seq.published_cost(), one.published_cost());
  for (std::size_t n = 0; n < seq.instance().node_count(); ++n)
    for (std::size_t i = 0; i < seq.instance().interval_count(); ++i)
      for (std::size_t k = 0; k < seq.instance().object_count(); ++k)
        EXPECT_EQ(seq.plan()(n, i, k), one.plan()(n, i, k))
            << n << "," << i << "," << k;

  // Folded batches: same instance, same certified bound, fewer solves.
  const auto out1 = bat.on_batch(
      workload::EventBatch(events.begin(), events.begin() + 4));
  const auto out2 =
      bat.on_batch(workload::EventBatch(events.begin() + 4, events.end()));
  EXPECT_EQ(out1.kind, "batch[4]");
  EXPECT_FALSE(out1.rejected);
  EXPECT_TRUE(out1.incremental);
  EXPECT_EQ(out1.index, 4u);
  EXPECT_EQ(out2.kind, "batch[3]");
  EXPECT_EQ(out2.index, 7u);
  const auto& a = seq.instance();
  const auto& b = bat.instance();
  ASSERT_EQ(a.node_count(), b.node_count());
  for (std::size_t n = 0; n < a.node_count(); ++n) {
    for (std::size_t m = 0; m < a.node_count(); ++m) {
      EXPECT_EQ(a.dist(n, m), b.dist(n, m));
      EXPECT_EQ(a.latencies(n, m), b.latencies(n, m));
    }
    for (std::size_t i = 0; i < a.interval_count(); ++i)
      for (std::size_t k = 0; k < a.object_count(); ++k) {
        EXPECT_EQ(a.demand.read(n, i, k), b.demand.read(n, i, k));
        EXPECT_EQ(a.demand.write(n, i, k), b.demand.write(n, i, k));
      }
  }
  EXPECT_NEAR(out2.lower_bound, last_seq.lower_bound,
              1e-7 * (1 + std::abs(last_seq.lower_bound)));
  // Per-event accounting with per-batch solves: applied + rejected ==
  // events on every path, but the batched series consumed one point per
  // batch — 2 re-solves for the script instead of 7.
  EXPECT_EQ(bat.status().events, 7u);
  EXPECT_EQ(bat.status().applied, 7u);
  EXPECT_EQ(bat.status().rejected, 0u);
  EXPECT_EQ(bat.events_seen() + 1, seq.events_seen());  // + the rejected
  EXPECT_EQ(seq.series().total_appended(), 9u);  // start + 8 events
  EXPECT_EQ(bat.series().total_appended(), 3u);  // start + 2 batches
}

TEST(Service, BatchRejectsAtomically) {
  service::PlacementDaemon daemon(service_instance(),
                                  daemon_options(mcperf::classes::general()));
  daemon.start();
  const double cost = daemon.published_cost();
  const double before = demand_sum(daemon.instance());
  const double bound = daemon.status().lower_bound;
  const workload::EventBatch batch = {
      workload::DemandDeltaEvent{0, 0, 0, 2.0, 0.0},
      workload::DemandDeltaEvent{99, 0, 0, 1.0, 0.0},  // invalid mid-batch
      workload::DemandDeltaEvent{1, 1, 1, 1.0, 0.0},
  };
  const auto out = daemon.on_batch(batch);
  EXPECT_TRUE(out.rejected);
  EXPECT_EQ(out.kind, "batch[3]");
  EXPECT_EQ(out.index, 3u);
  EXPECT_FALSE(out.error.empty());
  // Nothing moved: the valid events before and after the bad one were
  // rolled back with it (all-or-nothing), and no solve ran.
  EXPECT_EQ(demand_sum(daemon.instance()), before);
  EXPECT_EQ(daemon.published_cost(), cost);
  EXPECT_EQ(daemon.status().lower_bound, bound);
  EXPECT_EQ(daemon.status().events, 3u);
  EXPECT_EQ(daemon.status().rejected, 3u);
  EXPECT_EQ(daemon.status().applied, 0u);
  EXPECT_EQ(daemon.series().total_appended(), 2u);  // start + the reject
  // The stream keeps flowing: the same batch minus the bad event applies.
  const auto next = daemon.on_batch(
      {workload::DemandDeltaEvent{0, 0, 0, 2.0, 0.0},
       workload::DemandDeltaEvent{1, 1, 1, 1.0, 0.0}});
  EXPECT_FALSE(next.rejected);
  EXPECT_EQ(next.index, 5u);
  EXPECT_EQ(daemon.status().applied, 2u);
}

TEST(Service, ChurnSoak) {
  auto instance = test::random_instance(123, 6, 3, 4, 0.85);
  service::PlacementDaemon daemon(
      std::move(instance), daemon_options(mcperf::classes::general()));
  daemon.start();
  Rng rng(2024);
  std::size_t joins = 0;
  for (std::size_t step = 0; step < 40; ++step) {
    // Demand moves at a live node (deltas on departed nodes are rejected).
    std::vector<graph::NodeId> live_nodes;
    for (std::size_t n = 0; n < daemon.instance().node_count(); ++n)
      if (daemon.instance().dist(n, n) != 0)
        live_nodes.push_back(static_cast<graph::NodeId>(n));
    workload::Event event = workload::DemandDeltaEvent{
        live_nodes[rng.uniform_index(live_nodes.size())],
        rng.uniform_index(3),
        static_cast<workload::ObjectId>(rng.uniform_index(4)),
        rng.uniform(0.0, 3.0), rng.bernoulli(0.3) ? 0.5 : 0.0};
    const double roll = rng.uniform();
    if (roll < 0.12 && joins < 4) {
      event = workload::NodeJoinEvent{rng.bernoulli(0.5) ? 100.0 : 200.0,
                                      {{0, 90.0}}};
      ++joins;
    } else if (roll < 0.2) {
      // Leave a random live non-origin node, when one exists.
      const auto& inst = daemon.instance();
      std::vector<graph::NodeId> live;
      for (std::size_t n = 0; n < inst.node_count(); ++n)
        if (inst.dist(n, n) != 0 && !inst.is_origin(n))
          live.push_back(static_cast<graph::NodeId>(n));
      if (live.size() > 2)
        event = workload::NodeLeaveEvent{live[rng.uniform_index(live.size())]};
    } else if (roll < 0.3) {
      const auto n = daemon.instance().node_count();
      const auto a = rng.uniform_index(n);
      const auto b = (a + 1 + rng.uniform_index(n - 1)) % n;
      if (daemon.instance().dist(a, a) != 0 &&
          daemon.instance().dist(b, b) != 0)
        event = workload::LatencyUpdateEvent{
            static_cast<graph::NodeId>(a), static_cast<graph::NodeId>(b),
            rng.bernoulli(0.5) ? 80.0 : 220.0};
    }
    const auto out = daemon.on_event(event);
    ASSERT_FALSE(out.rejected) << "step " << step << ": " << out.error;
    ASSERT_FALSE(out.reason.empty());
    // Spot-check the maintained bound against a cold rebuild.
    if (step % 13 == 0) {
      const auto cold =
          bounds::compute_bound(daemon.instance(), mcperf::classes::general());
      EXPECT_EQ(out.achievable, cold.achievable) << "step " << step;
      if (out.achievable && out.status == lp::SolveStatus::Optimal &&
          cold.status == lp::SolveStatus::Optimal) {
        EXPECT_NEAR(out.lower_bound, cold.lower_bound,
                    1e-7 * (1 + std::abs(cold.lower_bound)))
            << "step " << step;
      }
    }
  }
  EXPECT_EQ(daemon.events_seen(), 40u);
}

// ---------------------------------------------------------------------------
// Observability: the regret audit, the status snapshot, and the export
// no-perturbation guarantee.

TEST(Service, RegretAuditTracksIncumbentAndBound) {
  service::PlacementDaemon daemon(service_instance(),
                                  daemon_options(mcperf::classes::general()));
  daemon.start();
  for (const auto& event : service_events()) {
    const auto out = daemon.on_event(event);
    if (out.rejected) continue;
    ASSERT_TRUE(out.audit.exists) << out.kind;
    // The audit's cost must agree with the ground-truth evaluator on the
    // drifted instance. The audit runs before the publish decision, so
    // daemon.plan() is the audited placement only when the event held it.
    if (!out.published) {
      const auto truth = bounds::evaluate_placement(
          daemon.instance(), mcperf::classes::general(), daemon.plan());
      EXPECT_NEAR(out.audit.cost, truth.cost,
                  1e-9 * (1 + std::abs(truth.cost)))
          << out.kind;
      EXPECT_EQ(out.audit.feasible(), truth.feasible()) << out.kind;
      EXPECT_NEAR(out.audit.min_qos, truth.min_qos, 1e-9) << out.kind;
    }
    if (out.audit.bound_certified) {
      EXPECT_NEAR(out.audit.regret, out.audit.cost - out.lower_bound, 1e-12)
          << out.kind;
      // A feasible incumbent can never beat the certified lower bound.
      if (out.audit.feasible()) {
        EXPECT_GE(out.audit.regret, -1e-7 * (1 + std::abs(out.lower_bound)))
            << out.kind;
      }
    }
  }
}

TEST(Service, StatusSnapshotCountsAppliedAndRejected) {
  service::PlacementDaemon daemon(service_instance(),
                                  daemon_options(mcperf::classes::general()));
  daemon.start();
  daemon.on_event(workload::DemandDeltaEvent{0, 0, 0, 2.0, 0.0});
  daemon.on_event(workload::DemandDeltaEvent{99, 0, 0, 1.0, 0.0});  // bad
  daemon.on_event(workload::DemandDeltaEvent{1, 1, 1, 1.0, 0.0});

  const auto status = daemon.status();
  EXPECT_TRUE(status.has_plan);
  EXPECT_EQ(status.events, 3u);
  EXPECT_EQ(status.applied, 2u);
  EXPECT_EQ(status.rejected, 1u);
  EXPECT_EQ(status.publishes + status.holds, 3u);  // start + 2 applied
  EXPECT_GE(status.rebuilds, 1u);                  // at least the start build
  EXPECT_GT(status.incumbent_cost, 0);
  EXPECT_GT(status.lower_bound, 0);
  EXPECT_NEAR(status.regret, status.incumbent_cost - status.lower_bound,
              1e-12);
  EXPECT_FALSE(status.last_reason.empty());
  // The series consumed one index per event, rejected included.
  EXPECT_EQ(daemon.series().total_appended(), 4u);  // start + 3 events
  const auto points = daemon.series().points();
  ASSERT_EQ(points.size(), 4u);
  EXPECT_TRUE(points[2].rejected);
  EXPECT_TRUE(points[2].values.empty());  // no solve happened
  EXPECT_FALSE(points[3].rejected);
}

TEST(Service, BitIdenticalWithExportEnabled) {
  // One replay with telemetry off...
  std::vector<double> plain_bounds, plain_costs;
  {
    service::PlacementDaemon daemon(
        service_instance(), daemon_options(mcperf::classes::general()));
    daemon.start();
    for (const auto& event : service_events()) {
      const auto out = daemon.on_event(event);
      plain_bounds.push_back(out.lower_bound);
      plain_costs.push_back(out.audit.exists ? out.audit.cost : -1);
    }
  }
  // ...and one with the registry live and a full export after every event.
  auto& registry = obs::Registry::global();
  registry.enable(true);
  registry.reset();
  std::vector<double> traced_bounds, traced_costs;
  {
    service::PlacementDaemon daemon(
        service_instance(), daemon_options(mcperf::classes::general()));
    daemon.start();
    for (const auto& event : service_events()) {
      const auto out = daemon.on_event(event);
      traced_bounds.push_back(out.lower_bound);
      traced_costs.push_back(out.audit.exists ? out.audit.cost : -1);
      std::ostringstream sink;
      obs::export_metrics(sink, obs::MetricsFormat::Prometheus,
                          registry.snapshot(), &daemon.series());
      obs::export_metrics(sink, obs::MetricsFormat::Jsonl, registry.snapshot(),
                          &daemon.series());
      EXPECT_FALSE(sink.str().empty());
    }
  }
  registry.enable(false);
  // Exporting only reads telemetry state: solves stay BIT-identical.
  EXPECT_EQ(plain_bounds, traced_bounds);
  EXPECT_EQ(plain_costs, traced_costs);
}

// One stage scope per stage: every event times each stage at most once,
// the stage histograms count exactly the stage spans, and every series
// point carries the five stage timings in pipeline order — on the event
// path, the batch path, and both rejection paths.
TEST(Service, StageTelemetryMatchesSeries) {
  const std::vector<std::string> stages = {"validate", "patch", "resolve",
                                           "audit", "policy"};
  auto& registry = obs::Registry::global();
  auto& tracer = obs::Tracer::global();
  registry.enable(true);
  registry.reset();
  tracer.enable(true);
  tracer.reset();
  std::vector<obs::SeriesPoint> points;
  {
    service::PlacementDaemon daemon(
        service_instance(), daemon_options(mcperf::classes::general()));
    daemon.start();
    const auto events = service_events();
    daemon.on_event(events[0]);
    EXPECT_TRUE(
        daemon.on_event(workload::DemandDeltaEvent{99, 0, 0, 1, 0}).rejected);
    daemon.on_event(events[1]);
    daemon.on_batch(workload::EventBatch(events.begin() + 2, events.end()));
    EXPECT_TRUE(daemon
                    .on_batch({workload::DemandDeltaEvent{0, 0, 0, 1, 0},
                               workload::DemandDeltaEvent{0, 99, 0, 1, 0}})
                    .rejected);
    points = daemon.series().points();
  }
  const auto snapshot = registry.snapshot();
  const auto spans = tracer.spans();
  registry.enable(false);
  registry.reset();
  tracer.enable(false);
  tracer.reset();

  std::map<std::uint64_t, std::string> name_of;
  std::map<std::string, std::size_t> span_count;
  for (const auto& span : spans) {
    name_of[span.id] = span.name;
    ++span_count[span.name];
  }
  EXPECT_EQ(span_count["service.event"], 6u);  // start + 5 calls
  std::set<std::pair<std::uint64_t, std::string>> event_stages;
  for (const auto& span : spans) {
    const auto parent = name_of.find(span.parent);
    if (parent == name_of.end() || parent->second != "service.event")
      continue;
    EXPECT_TRUE(event_stages.emplace(span.parent, span.name).second)
        << "event span " << span.parent << " has two " << span.name;
  }
  for (const auto& stage : stages) {
    const auto histogram = snapshot.find("service.stage." + stage + "_s");
    const std::uint64_t recorded =
        histogram == snapshot.end() ? 0 : histogram->second.count;
    EXPECT_GT(recorded, 0u) << stage;
    EXPECT_EQ(recorded, span_count["service." + stage]) << stage;
  }

  ASSERT_EQ(points.size(), 6u);
  for (const auto& point : points) {
    std::vector<std::string> keys;
    for (const auto& [key, seconds] : point.seconds) keys.push_back(key);
    EXPECT_EQ(keys, stages) << point.index << " " << point.kind;
  }
}

}  // namespace
}  // namespace wanplace
