// Differential certification of the incremental model-delta path.
//
// Each seed deterministically produces one instance and one event sequence
// (demand perturbations, node join/leave, latency updates). The harness
// maintains the daemon's solver state across the sequence — apply_delta on
// the instance, delta-patch (or rebuild) the LP, warm dual re-solve from
// the carried basis — and after EVERY event cross-checks against a cold
// full rebuild of the same post-event instance: achievability must agree,
// solve statuses must agree, and Optimal bounds must match to 1e-7
// relative. The pure-demand shard additionally asserts the acceptance
// property that demand drift never leaves the incremental window (zero
// rebuilds) and never costs the dual simplex its warm start (zero
// simplex.dual.fallbacks).
//
// WANPLACE_FUZZ_SEED replays a CI failure locally; WANPLACE_FUZZ_COUNT
// scales the per-shard sequence count (the fuzz-delta nightly shard cranks
// it up).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <variant>
#include <vector>

#include "bounds/engine.h"
#include "bounds/feasible.h"
#include "instance_helpers.h"
#include "lp_fuzz.h"
#include "mcperf/heuristic_class.h"
#include "obs/metrics.h"
#include "service/audit.h"
#include "service/daemon.h"
#include "service/delta.h"
#include "tree_fuzz.h"
#include "util/rng.h"

namespace wanplace {
namespace {

/// Solve options for the harness: exact simplex, no rounding (the
/// differential property is about the certified bound).
bounds::BoundOptions harness_options() {
  bounds::BoundOptions options;
  options.solver = bounds::BoundOptions::Solver::Simplex;
  options.run_rounding = false;
  return options;
}

/// The daemon's solver-state loop, reduced to its essentials.
struct DeltaHarness {
  mcperf::Instance instance;
  mcperf::ClassSpec spec;
  double tlat_ms;
  service::ModelState state;

  DeltaHarness(mcperf::Instance inst, mcperf::ClassSpec s, double tlat)
      : instance(std::move(inst)), spec(std::move(s)), tlat_ms(tlat) {
    auto detail =
        bounds::compute_bound_detail(instance, spec, harness_options());
    state.built = std::move(detail.built);
    state.valid = state.built.model.variable_count() > 0;
    state.basis = std::move(detail.solution.basis);
  }

  /// Apply one event and warm re-solve; `incremental` reports whether the
  /// LP was delta-patched rather than rebuilt.
  bounds::BoundDetail step(const workload::Event& event, bool* incremental) {
    // The window decision is captured on the pre-event view, like the
    // daemon's; the post-event re-check below is the satellite regression
    // that the predicates are event-invariant.
    const bool pre_supported = mcperf::delta_supported(instance, spec, event);
    instance.apply_delta(event, tlat_ms);
    EXPECT_EQ(pre_supported, mcperf::delta_supported(instance, spec, event))
        << "delta_supported flipped across the event it was deciding about";
    const bool inc =
        service::advance_model(instance, spec, event, state, pre_supported);
    if (incremental != nullptr) *incremental = inc;
    bounds::BoundOptions options = harness_options();
    if (!state.basis.empty()) options.warm.basis = &state.basis;
    auto detail = bounds::compute_bound_built(instance, spec,
                                              std::move(state.built), options);
    state.built = std::move(detail.built);
    state.valid = state.built.model.variable_count() > 0;
    if (!detail.solution.basis.empty())
      state.basis = detail.solution.basis;
    else if (!state.basis.compatible(state.built.model.variable_count(),
                                     state.built.model.row_count()))
      state.basis = {};
    return detail;
  }
};

/// Compare one incrementally maintained solve against a cold rebuild of
/// the same post-event instance.
void expect_matches_cold(const DeltaHarness& harness,
                         const bounds::BoundDetail& warm,
                         const std::string& label) {
  const auto cold = bounds::compute_bound_detail(harness.instance,
                                                 harness.spec,
                                                 harness_options());
  ASSERT_EQ(warm.bound.achievable, cold.bound.achievable) << label;
  if (!warm.bound.achievable) return;
  ASSERT_EQ(warm.bound.status, cold.bound.status) << label;
  if (warm.bound.status != lp::SolveStatus::Optimal) return;
  EXPECT_NEAR(warm.bound.lower_bound, cold.bound.lower_bound,
              1e-7 * (1 + std::abs(cold.bound.lower_bound)))
      << label;
}

workload::Event random_demand_event(Rng& rng,
                                    const mcperf::Instance& instance) {
  workload::DemandDeltaEvent event;
  // Only live nodes issue demand: deltas targeting a departed node are
  // rejected by apply_delta (their demand was drained on leave).
  std::vector<graph::NodeId> live;
  for (std::size_t n = 0; n < instance.node_count(); ++n)
    if (instance.dist(n, n) != 0) live.push_back(static_cast<graph::NodeId>(n));
  event.node = live[rng.uniform_index(live.size())];
  event.interval = rng.uniform_index(instance.interval_count());
  event.object = static_cast<workload::ObjectId>(
      rng.uniform_index(instance.object_count()));
  const double reads = instance.demand.read(
      static_cast<std::size_t>(event.node), event.interval,
      static_cast<std::size_t>(event.object));
  // Mostly growth; shrinks stay within the current count so the event is
  // valid by construction.
  event.read_delta = rng.bernoulli(0.7) ? rng.uniform(0.5, 4.0)
                                        : -rng.uniform(0.0, reads);
  if (rng.bernoulli(0.3)) event.write_delta = rng.uniform(0.0, 1.5);
  return event;
}

workload::Event random_event(Rng& rng, const mcperf::Instance& instance) {
  const double roll = rng.uniform();
  if (roll < 0.15) {
    workload::NodeJoinEvent event;
    // A 160ms default is beyond the 150ms Tlat, so some joiners arrive
    // isolated except for their overrides.
    event.default_latency_ms = rng.bernoulli(0.5) ? 100.0 : 160.0;
    if (rng.bernoulli(0.6)) event.latency_overrides.push_back({0, 90.0});
    return event;
  }
  if (roll < 0.25) {
    std::vector<graph::NodeId> live;
    for (std::size_t n = 0; n < instance.node_count(); ++n)
      if (instance.dist(n, n) != 0 && !instance.is_origin(n))
        live.push_back(static_cast<graph::NodeId>(n));
    if (live.size() > 1)
      return workload::NodeLeaveEvent{live[rng.uniform_index(live.size())]};
  } else if (roll < 0.4) {
    std::vector<graph::NodeId> live;
    for (std::size_t n = 0; n < instance.node_count(); ++n)
      if (instance.dist(n, n) != 0)
        live.push_back(static_cast<graph::NodeId>(n));
    if (live.size() >= 2) {
      const auto a = live[rng.uniform_index(live.size())];
      auto b = live[rng.uniform_index(live.size())];
      while (b == a) b = live[rng.uniform_index(live.size())];
      const double choices[] = {60, 110, 140, 200};
      return workload::LatencyUpdateEvent{a, b,
                                          choices[rng.uniform_index(4)]};
    }
  }
  return random_demand_event(rng, instance);
}

/// Tree-instance event mix: leaf leaves (membership shrinks from the leaves
/// inward), up-link re-measures (the only latency update a tree instance
/// accepts), and demand drift. Joins stay rejected on trees, so the mix
/// never generates one.
workload::Event random_tree_event(Rng& rng, const mcperf::Instance& instance) {
  const auto& links = *instance.links;
  const auto live = [&](std::size_t n) { return instance.dist(n, n) != 0; };
  const double roll = rng.uniform();
  if (roll < 0.2) {
    std::vector<graph::NodeId> leaves;
    for (std::size_t n = 0; n < instance.node_count(); ++n) {
      if (!live(n) || instance.is_origin(n) || links.parent[n] < 0) continue;
      bool live_child = false;
      for (std::size_t m = 0; m < instance.node_count(); ++m)
        if (links.parent[m] == static_cast<graph::NodeId>(n) && live(m))
          live_child = true;
      if (!live_child) leaves.push_back(static_cast<graph::NodeId>(n));
    }
    if (!leaves.empty())
      return workload::NodeLeaveEvent{leaves[rng.uniform_index(leaves.size())]};
  } else if (roll < 0.45) {
    // Re-measure a live up-link: any live node's parent is live (leaves
    // only happen once the whole subtree below is gone).
    std::vector<graph::NodeId> children;
    for (std::size_t n = 0; n < instance.node_count(); ++n)
      if (live(n) && links.parent[n] >= 0)
        children.push_back(static_cast<graph::NodeId>(n));
    if (!children.empty()) {
      const auto child = children[rng.uniform_index(children.size())];
      const double factors[] = {0.5, 0.8, 1.5, 2.5};
      const double fresh =
          links.up_latency_ms[static_cast<std::size_t>(child)] *
          factors[rng.uniform_index(4)];
      return workload::LatencyUpdateEvent{
          child, links.parent[static_cast<std::size_t>(child)], fresh};
    }
  }
  return random_demand_event(rng, instance);
}

// ---------------------------------------------------------------------------

TEST(DeltaDifferential, MixedSequencesMatchColdRebuilds) {
  const auto base = test::fuzz_base_seed();
  const auto count = test::fuzz_shard_count();
  for (std::size_t c = 0; c < count; ++c) {
    const auto seed = base + c;
    Rng rng(seed ^ 0xD17AULL);
    // Vary the formulation: scope, tqos, and occasionally a class with
    // creation restrictions so the rebuild path is exercised too.
    const mcperf::QosScope scopes[] = {
        mcperf::QosScope::PerUser, mcperf::QosScope::Overall,
        mcperf::QosScope::PerObject, mcperf::QosScope::PerUserPerObject};
    auto instance = test::random_instance(seed, 5 + rng.uniform_index(3), 3,
                                          4, rng.bernoulli(0.5) ? 0.9 : 0.75);
    std::get<mcperf::QosGoal>(instance.goal).scope =
        scopes[rng.uniform_index(4)];
    // Half the seeds price update propagation so events that move writes
    // (demand deltas, leaves) exercise the store-cost resync too.
    if (rng.bernoulli(0.5)) instance.costs.delta = 0.2;
    const auto spec = rng.bernoulli(0.25) ? mcperf::classes::caching()
                                          : mcperf::classes::general();
    DeltaHarness harness(std::move(instance), spec, 150);
    const std::size_t events = 3 + rng.uniform_index(6);
    for (std::size_t e = 0; e < events; ++e) {
      const auto event = random_event(rng, harness.instance);
      const auto detail = harness.step(event, nullptr);
      expect_matches_cold(harness, detail,
                          "seed " + std::to_string(seed) + " event " +
                              std::to_string(e) + " [" +
                              workload::event_kind(event) + "]");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(DeltaDifferential, PureDemandStaysWarmWithoutFallback) {
  auto& registry = obs::Registry::global();
  registry.enable(true);
  registry.reset();
  const auto base = test::fuzz_base_seed();
  const auto count = test::fuzz_shard_count();
  for (std::size_t c = 0; c < count; ++c) {
    const auto seed = base + 0x5151ULL + c;
    Rng rng(seed ^ 0xBEADULL);
    DeltaHarness harness(test::random_instance(seed),
                         mcperf::classes::general(), 150);
    if (!harness.state.valid || harness.state.basis.empty()) continue;
    const std::size_t events = 3 + rng.uniform_index(6);
    for (std::size_t e = 0; e < events; ++e) {
      const auto event = random_demand_event(rng, harness.instance);
      bool incremental = false;
      const auto detail = harness.step(event, &incremental);
      const auto label =
          "seed " + std::to_string(seed) + " event " + std::to_string(e);
      // Demand drift never leaves the incremental window and never costs
      // the solver its basis.
      EXPECT_TRUE(incremental) << label;
      EXPECT_FALSE(harness.state.basis.empty()) << label;
      expect_matches_cold(harness, detail, label);
      if (HasFatalFailure()) {
        registry.enable(false);
        return;
      }
    }
  }
  const auto snapshot = registry.snapshot();
  registry.enable(false);
  const auto fallbacks = snapshot.find("simplex.dual.fallbacks");
  EXPECT_TRUE(fallbacks == snapshot.end() || fallbacks->second.sum == 0)
      << "warm dual re-solves fell back to the cold primal";
  const auto rebuilds = snapshot.find("service.rebuilds");
  EXPECT_TRUE(rebuilds == snapshot.end() || rebuilds->second.sum == 0)
      << "pure demand deltas triggered full rebuilds";
}

// Certifies the regret auditor: `service::audit_incumbent` (provider-mask,
// interval-major sweep) must agree with `bounds::evaluate_placement` (the
// reader-major ground truth) on every field after every event of a fuzzed
// drift sequence. Placements are sampled at varying densities so both
// feasible and infeasible incumbents are covered, and the class pool spans
// every cost branch (storage/replica constraints, per-object variants,
// creation-restricted caching).
TEST(DeltaDifferential, RegretAuditMatchesColdEvaluation) {
  const auto base = test::fuzz_base_seed();
  const auto count = test::fuzz_shard_count();
  const mcperf::ClassSpec class_pool[] = {
      mcperf::classes::general(),
      mcperf::classes::caching(),
      mcperf::classes::cooperative_caching(),
      mcperf::classes::storage_constrained(),
      mcperf::classes::replica_constrained(),
      mcperf::classes::replica_constrained_per_object()};
  for (std::size_t c = 0; c < count; ++c) {
    const auto seed = base + 0xAD170000ULL + c;
    Rng rng(seed ^ 0xA0D1ULL);
    const mcperf::QosScope scopes[] = {
        mcperf::QosScope::PerUser, mcperf::QosScope::Overall,
        mcperf::QosScope::PerObject, mcperf::QosScope::PerUserPerObject};
    auto instance = test::random_instance(seed, 5 + rng.uniform_index(3), 3,
                                          4, rng.bernoulli(0.5) ? 0.9 : 0.75);
    std::get<mcperf::QosGoal>(instance.goal).scope =
        scopes[rng.uniform_index(4)];
    if (rng.bernoulli(0.5)) instance.costs.delta = 0.2;
    const auto& spec = class_pool[rng.uniform_index(std::size(class_pool))];
    const double tqos = std::get<mcperf::QosGoal>(instance.goal).tqos;

    // Incumbent: a random store schedule. Density varies so some seeds
    // audit a clearly feasible plan and others a starved/infeasible one.
    const double density = 0.15 + 0.25 * rng.uniform_index(3);
    bounds::Placement placement(instance.node_count(),
                                instance.interval_count(),
                                instance.object_count());
    for (std::size_t n = 0; n < instance.node_count(); ++n)
      for (std::size_t i = 0; i < instance.interval_count(); ++i)
        for (std::size_t k = 0; k < instance.object_count(); ++k)
          placement(n, i, k) = rng.bernoulli(density) ? 1 : 0;

    const auto check = [&](const std::string& label) {
      const auto audit = service::audit_incumbent(instance, spec, placement);
      const auto truth = bounds::evaluate_placement(instance, spec, placement);
      ASSERT_TRUE(audit.exists) << label;
      EXPECT_EQ(audit.create_valid, truth.create_valid) << label;
      EXPECT_NEAR(audit.min_qos, truth.min_qos, 1e-7) << label;
      // goal_met is a strict threshold test; only compare it away from the
      // knife edge where the two sweeps' summation order could disagree.
      if (std::abs(truth.min_qos - tqos) > 1e-7) {
        EXPECT_EQ(audit.goal_met, truth.goal_met) << label;
      }
      const auto near = [&](double a, double b, const char* what) {
        EXPECT_NEAR(a, b, 1e-7 * (1 + std::abs(b))) << label << " " << what;
      };
      near(audit.cost, truth.cost, "cost");
      near(audit.storage_cost, truth.storage_cost, "storage");
      near(audit.creation_cost, truth.creation_cost, "creation");
      near(audit.write_cost, truth.write_cost, "write");
      EXPECT_NEAR(audit.qos_slack, audit.min_qos - tqos, 1e-12) << label;
      // The per-group breakdown must be consistent with its own minimum.
      ASSERT_FALSE(audit.group_qos.empty()) << label;
      double worst = 1.0;
      for (const double q : audit.group_qos) worst = std::min(worst, q);
      EXPECT_NEAR(worst, audit.min_qos, 1e-12) << label;
    };

    check("seed " + std::to_string(seed) + " initial");
    if (HasFatalFailure()) return;
    const std::size_t events = 3 + rng.uniform_index(6);
    for (std::size_t e = 0; e < events; ++e) {
      const auto event = random_event(rng, instance);
      instance.apply_delta(event, 150);
      // Track the daemon: a joiner stores nothing until a publish says so.
      if (std::holds_alternative<workload::NodeJoinEvent>(event))
        placement.grow_x(instance.node_count());
      check("seed " + std::to_string(seed) + " event " + std::to_string(e) +
            " [" + workload::event_kind(event) + "]");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(DeltaDifferential, TreeFamilySequencesMatchColdRebuilds) {
  const auto base = test::fuzz_base_seed();
  const auto count = test::fuzz_shard_count();
  for (std::size_t c = 0; c < count; ++c) {
    const auto seed = base + 0x7EEE000ULL + c;
    Rng rng(seed ^ 0x79EEULL);
    auto fuzz = test::fuzz_tree_instance(seed);
    const double tlat = fuzz.instance.links->tlat_ms;
    // Demand-only drift on tree instances; the topology-event mix has its
    // own shard below. Capped closest instances leave the incremental
    // window and exercise the rebuild path differentially.
    DeltaHarness harness(std::move(fuzz.instance), fuzz.spec, tlat);
    const std::size_t events = 2 + rng.uniform_index(5);
    for (std::size_t e = 0; e < events; ++e) {
      const auto event = random_demand_event(rng, harness.instance);
      const auto detail = harness.step(event, nullptr);
      expect_matches_cold(harness, detail,
                          "seed " + std::to_string(seed) + " (" +
                              harness.spec.name + ") event " +
                              std::to_string(e));
      if (HasFatalFailure()) return;
    }
  }
}

// The widened window: gamma > 0 route blocks and SC/RC-provisioned joins
// must stay on the incremental path — every event of every sequence here is
// delta-patched, never rebuilt, and still matches a cold rebuild to 1e-7.
TEST(DeltaDifferential, WidenedWindowSequencesStayIncremental) {
  const auto base = test::fuzz_base_seed();
  const auto count = test::fuzz_shard_count();
  const mcperf::ClassSpec class_pool[] = {
      mcperf::classes::general(),
      mcperf::classes::caching(),
      mcperf::classes::cooperative_caching(),
      mcperf::classes::storage_constrained(),
      mcperf::classes::replica_constrained(),
      mcperf::classes::replica_constrained_per_object()};
  for (std::size_t c = 0; c < count; ++c) {
    const auto seed = base + 0x31DE0000ULL + c;
    Rng rng(seed ^ 0x91DEULL);
    const mcperf::QosScope scopes[] = {
        mcperf::QosScope::PerUser, mcperf::QosScope::Overall,
        mcperf::QosScope::PerObject, mcperf::QosScope::PerUserPerObject};
    auto instance = test::random_instance(seed, 5 + rng.uniform_index(3), 3,
                                          4, rng.bernoulli(0.5) ? 0.9 : 0.75);
    std::get<mcperf::QosGoal>(instance.goal).scope =
        scopes[rng.uniform_index(4)];
    if (rng.bernoulli(0.5)) instance.costs.delta = 0.2;
    // Most seeds price lateness so the model carries live route blocks;
    // the rest pair gamma = 0 with a provisioned class so the SC/RC join
    // path is exercised without routes too.
    const double gammas[] = {0.005, 0.02, 0.1};
    const bool routed = rng.bernoulli(0.75);
    if (routed) instance.costs.gamma = gammas[rng.uniform_index(3)];
    const auto spec =
        routed ? class_pool[rng.uniform_index(std::size(class_pool))]
               : class_pool[3 + rng.uniform_index(3)];
    DeltaHarness harness(std::move(instance), spec, 150);
    const std::size_t events = 3 + rng.uniform_index(6);
    for (std::size_t e = 0; e < events; ++e) {
      const auto event = random_event(rng, harness.instance);
      // The achievability gate skips the initial build on seeds whose class
      // cannot reach the goal; the first event then rebuilds by design.
      const bool had_model = harness.state.valid;
      bool incremental = false;
      const auto detail = harness.step(event, &incremental);
      const auto label = "seed " + std::to_string(seed) + " (" + spec.name +
                         ") event " + std::to_string(e) + " [" +
                         workload::event_kind(event) + "]";
      if (had_model) {
        EXPECT_TRUE(incremental) << label;
      }
      expect_matches_cold(harness, detail, label);
      if (HasFatalFailure()) return;
    }
  }
}

// Link-model instances without bandwidth caps are inside the widened
// window too: leaf leaves and up-link re-measures delta-patch and match a
// cold rebuild; capped instances run the same mix down the rebuild path.
TEST(DeltaDifferential, TreeTopologyEventSequencesMatchColdRebuilds) {
  const auto base = test::fuzz_base_seed();
  const auto count = test::fuzz_shard_count();
  for (std::size_t c = 0; c < count; ++c) {
    const auto seed = base + 0x7E0E000ULL + c;
    Rng rng(seed ^ 0x70E0ULL);
    auto fuzz = test::fuzz_tree_instance(seed);
    const double tlat = fuzz.instance.links->tlat_ms;
    // Half the uncapped seeds price lateness so route blocks (and closest-
    // assignment rows) ride the tree topology events.
    if (!fuzz.capped && rng.bernoulli(0.5))
      fuzz.instance.costs.gamma = 0.02;
    DeltaHarness harness(std::move(fuzz.instance), fuzz.spec, tlat);
    const std::size_t events = 2 + rng.uniform_index(5);
    for (std::size_t e = 0; e < events; ++e) {
      const auto event = random_tree_event(rng, harness.instance);
      const bool had_model = harness.state.valid;
      bool incremental = false;
      const auto detail = harness.step(event, &incremental);
      const auto label = "seed " + std::to_string(seed) + " (" +
                         harness.spec.name + (fuzz.capped ? ", capped" : "") +
                         ") event " + std::to_string(e) + " [" +
                         workload::event_kind(event) + "]";
      if (!fuzz.capped && had_model) {
        EXPECT_TRUE(incremental) << label;
      }
      expect_matches_cold(harness, detail, label);
      if (HasFatalFailure()) return;
    }
  }
}

// Batching equivalence: folding a burst into one on_batch call must land on
// exactly the state the per-event path reaches — identical instance
// (demand, liveness, latencies) and the same certified bound to 1e-7 —
// while consuming one solve per burst.
TEST(DeltaDifferential, BatchedSequencesMatchSequential) {
  const auto base = test::fuzz_base_seed();
  const auto count = test::fuzz_shard_count();
  for (std::size_t c = 0; c < count; ++c) {
    const auto seed = base + 0xBA7C0000ULL + c;
    Rng rng(seed ^ 0xBA7CULL);
    auto instance = test::random_instance(seed, 5 + rng.uniform_index(3), 3,
                                          4, rng.bernoulli(0.5) ? 0.9 : 0.75);
    if (rng.bernoulli(0.5)) instance.costs.gamma = 0.02;
    service::DaemonOptions options;
    options.spec = rng.bernoulli(0.3) ? mcperf::classes::storage_constrained()
                                      : mcperf::classes::general();
    options.tlat_ms = 150;
    service::PlacementDaemon seq(instance, options);
    service::PlacementDaemon bat(std::move(instance), options);
    seq.start();
    bat.start();
    const std::size_t batches = 1 + rng.uniform_index(3);
    for (std::size_t bi = 0; bi < batches; ++bi) {
      // The burst is generated against the sequential daemon's rolling
      // state, so every event is valid at its position in the batch.
      workload::EventBatch batch;
      service::EventOutcome last;
      const std::size_t burst = 1 + rng.uniform_index(4);
      for (std::size_t e = 0; e < burst; ++e) {
        const auto event = random_event(rng, seq.instance());
        last = seq.on_event(event);
        batch.push_back(event);
      }
      const auto out = bat.on_batch(batch);
      const auto label =
          "seed " + std::to_string(seed) + " batch " + std::to_string(bi);
      ASSERT_FALSE(last.rejected) << label << " " << last.error;
      ASSERT_FALSE(out.rejected) << label << " " << out.error;
      ASSERT_EQ(out.achievable, last.achievable) << label;
      if (out.achievable && out.status == lp::SolveStatus::Optimal &&
          last.status == lp::SolveStatus::Optimal) {
        EXPECT_NEAR(out.lower_bound, last.lower_bound,
                    1e-7 * (1 + std::abs(last.lower_bound)))
            << label;
      }
      const auto& a = seq.instance();
      const auto& b = bat.instance();
      ASSERT_EQ(a.node_count(), b.node_count()) << label;
      for (std::size_t n = 0; n < a.node_count(); ++n) {
        for (std::size_t m = 0; m < a.node_count(); ++m) {
          EXPECT_EQ(a.dist(n, m), b.dist(n, m)) << label;
          EXPECT_EQ(a.latencies(n, m), b.latencies(n, m)) << label;
        }
        for (std::size_t i = 0; i < a.interval_count(); ++i)
          for (std::size_t k = 0; k < a.object_count(); ++k) {
            EXPECT_EQ(a.demand.read(n, i, k), b.demand.read(n, i, k))
                << label;
            EXPECT_EQ(a.demand.write(n, i, k), b.demand.write(n, i, k))
                << label;
          }
      }
      if (HasFatalFailure() || HasNonfatalFailure()) return;
    }
    EXPECT_EQ(seq.events_seen(), bat.events_seen());
  }
}

}  // namespace
}  // namespace wanplace
