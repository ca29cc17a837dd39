#include "mcperf/builder.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "util/check.h"
#include "workload/history.h"

namespace wanplace::mcperf {

BoolMatrix compute_fetch(const Instance& instance, const ClassSpec& spec) {
  const std::size_t n_count = instance.node_count();
  if (spec.routing == Routing::Global) return graph::fetch_all(n_count);
  if (spec.routing == Routing::Closest) {
    // Closest allocation: a request climbs toward the root and is served by
    // the first replica on the way, so a node can only ever fetch from its
    // ancestor chain (itself included). The assignment rows added by
    // build_lp() sharpen "some ancestor" into "the first stored ancestor"
    // when routes are modeled.
    WANPLACE_REQUIRE(instance.links.has_value(),
                     "Routing::Closest requires tree links on the instance");
    WANPLACE_REQUIRE(instance.origin.has_value() &&
                         *instance.origin == instance.links->root(),
                     "Routing::Closest requires the origin at the tree root");
    BoolMatrix fetch(n_count, n_count, 0);
    for (std::size_t n = 0; n < n_count; ++n) {
      graph::NodeId walk = static_cast<graph::NodeId>(n);
      while (walk >= 0) {
        fetch(n, static_cast<std::size_t>(walk)) = 1;
        walk = instance.links->parent[static_cast<std::size_t>(walk)];
      }
    }
    return fetch;
  }
  WANPLACE_REQUIRE(instance.origin.has_value(),
                   "Routing::OriginOnly requires an origin node");
  return graph::fetch_origin_only(n_count, *instance.origin);
}

BoolCube compute_create_allowed(const Instance& instance,
                                const ClassSpec& spec) {
  const std::size_t n_count = instance.node_count();
  const std::size_t i_count = instance.interval_count();
  const std::size_t k_count = instance.object_count();
  BoolCube allowed(n_count, i_count, k_count, 1);
  if (!spec.restricts_creation()) return allowed;

  BoolMatrix know;
  switch (spec.knowledge) {
    case Knowledge::Global:
      know = workload::know_global(n_count);
      break;
    case Knowledge::Local:
      know = workload::know_local(n_count);
      break;
    case Knowledge::Neighborhood:
      know = instance.dist;  // activity of Tlat-reachable nodes (+ self)
      for (std::size_t n = 0; n < n_count; ++n) know(n, n) = 1;
      break;
  }
  const BoolCube hist =
      workload::history(instance.demand, spec.history_intervals);
  const BoolCube sphere = workload::knowledge_history(hist, know);

  for (std::size_t n = 0; n < n_count; ++n)
    for (std::size_t i = 0; i < i_count; ++i)
      for (std::size_t k = 0; k < k_count; ++k) {
        if (spec.reactive) {
          // (20a): only activity strictly before interval i counts.
          allowed(n, i, k) = i > 0 ? sphere(n, i - 1, k) : 0;
        } else {
          // (20): activity up to and including interval i.
          allowed(n, i, k) = sphere(n, i, k);
        }
      }
  return allowed;
}

BuiltModel build_lp(const Instance& instance, const ClassSpec& spec) {
  instance.validate();
  WANPLACE_REQUIRE(!(spec.storage && spec.replicas),
                   "a class cannot have both storage and replica constraints");

  const std::size_t n_count = instance.node_count();
  const std::size_t i_count = instance.interval_count();
  const std::size_t k_count = instance.object_count();
  const auto& demand = instance.demand;
  const CostModel& costs = instance.costs;
  const bool qos_metric = std::holds_alternative<QosGoal>(instance.goal);
  // Finite link capacities need the route block even under the QoS metric:
  // only explicit routes say which links a served request loads.
  const bool bandwidth_caps = instance.has_bandwidth_caps();
  const bool needs_routes =
      !qos_metric || costs.gamma > 0 || bandwidth_caps;
  WANPLACE_REQUIRE(!bandwidth_caps || !instance.latencies.empty(),
                   "bandwidth capacity rows need the latency matrix");

  BuiltModel built;
  built.fetch = compute_fetch(instance, spec);
  built.create_allowed = compute_create_allowed(instance, spec);
  built.store = DenseCube<std::int32_t>(n_count, i_count, k_count, -1);
  built.create = DenseCube<std::int32_t>(n_count, i_count, k_count, -1);
  built.covered = DenseCube<std::int32_t>(n_count, i_count, k_count, -1);
  built.coverage_rows = DenseCube<std::int32_t>(n_count, i_count, k_count, -1);
  built.route_rows = DenseCube<std::int32_t>(n_count, i_count, k_count, -1);

  lp::LpModel& model = built.model;

  // Reach sets: which stores can cover demand at n within Tlat.
  built.reach.resize(n_count);
  for (std::size_t n = 0; n < n_count; ++n)
    for (std::size_t m = 0; m < n_count; ++m)
      if (instance.dist(n, m) && built.fetch(n, m))
        built.reach[n].push_back(m);

  // Total writes per (i,k) for the update-cost term (12).
  std::vector<double> writes_ik;
  if (costs.delta > 0) {
    writes_ik.assign(i_count * k_count, 0.0);
    for (std::size_t n = 0; n < n_count; ++n)
      for (std::size_t i = 0; i < i_count; ++i)
        for (std::size_t k = 0; k < k_count; ++k)
          writes_ik[i * k_count + k] += demand.write(n, i, k);
  }

  // Storage cost per store variable: alpha (scaled by the node's
  // storage_scale entry) unless a provisioned-capacity constraint replaces
  // it, plus the update-message term.
  const bool provisioned = spec.storage || spec.replicas;
  WANPLACE_REQUIRE(instance.storage_scale.empty() || !provisioned,
                   "storage_scale is incompatible with provisioned SC/RC "
                   "classes (their capacity accounting is per cell)");

  // --- store / create variables -------------------------------------------
  for (std::size_t n = 0; n < n_count; ++n) {
    const bool origin = instance.is_origin(n);
    for (std::size_t i = 0; i < i_count; ++i) {
      for (std::size_t k = 0; k < k_count; ++k) {
        double store_cost = provisioned ? 0.0 : instance.storage_alpha(n);
        if (costs.delta > 0)
          store_cost += costs.delta * writes_ik[i * k_count + k];
        if (origin) {
          // The headquarters stores everything as pre-existing
          // infrastructure: fixed, free, never created.
          built.store(n, i, k) = static_cast<std::int32_t>(
              model.add_variable(1, 1, 0));
          built.create(n, i, k) = static_cast<std::int32_t>(
              model.add_variable(0, 0, 0));
        } else {
          built.store(n, i, k) = static_cast<std::int32_t>(model.add_variable(
              0, 1, store_cost));
          const double create_ub = built.create_allowed(n, i, k) ? 1.0 : 0.0;
          built.create(n, i, k) = static_cast<std::int32_t>(model.add_variable(
              0, create_ub, costs.beta));
        }
      }
    }
  }

  // --- creation-conservation rows (3): store_i - store_{i-1} <= create ----
  for (std::size_t n = 0; n < n_count; ++n) {
    if (instance.is_origin(n)) continue;
    for (std::size_t i = 0; i < i_count; ++i) {
      for (std::size_t k = 0; k < k_count; ++k) {
        std::vector<std::size_t> cols{
            static_cast<std::size_t>(built.store(n, i, k)),
            static_cast<std::size_t>(built.create(n, i, k))};
        std::vector<double> coeffs{1, -1};
        if (i > 0) {
          cols.push_back(static_cast<std::size_t>(built.store(n, i - 1, k)));
          coeffs.push_back(-1);
        }
        model.add_row(lp::RowType::Le, 0, cols, coeffs);
      }
    }
  }

  // --- QoS metric: covered variables, coverage rows, QoS rows per scope
  // group (constraint (2) and its three variations) ------------------------
  // With bandwidth caps the coverage rows reference route variables (built
  // below), so they are deferred: a capped link can keep a stored-and-
  // reachable replica from actually serving the demand.
  std::vector<std::array<std::size_t, 4>> deferred_coverage;  // cov, n, i, k
  if (qos_metric) {
    const auto& goal = std::get<QosGoal>(instance.goal);
    const QosGroups groups(instance, goal.scope);
    std::vector<std::vector<std::size_t>> qos_cols(groups.count());
    std::vector<std::vector<double>> qos_coeffs(groups.count());
    for (std::size_t n = 0; n < n_count; ++n) {
      for (std::size_t i = 0; i < i_count; ++i) {
        for (std::size_t k = 0; k < k_count; ++k) {
          const double reads = demand.read(n, i, k);
          if (reads <= 0) continue;
          const auto cov = static_cast<std::int32_t>(
              model.add_variable(0, 1, 0));
          built.covered(n, i, k) = cov;
          if (built.reach[n].empty()) {
            model.fix_variable(cov, 0);
          } else if (bandwidth_caps) {
            deferred_coverage.push_back(
                {static_cast<std::size_t>(cov), n, i, k});
          } else {
            // (5)/(18): covered <= sum of reachable stores.
            std::vector<std::size_t> cols{static_cast<std::size_t>(cov)};
            std::vector<double> coeffs{-1};
            for (std::size_t m : built.reach[n]) {
              cols.push_back(static_cast<std::size_t>(built.store(m, i, k)));
              coeffs.push_back(1);
            }
            built.coverage_rows(n, i, k) = static_cast<std::int32_t>(
                model.add_row(lp::RowType::Ge, 0, cols, coeffs));
          }
          const std::size_t group = groups.group_of(n, k);
          qos_cols[group].push_back(static_cast<std::size_t>(cov));
          // normalized by group volume for solver conditioning
          qos_coeffs[group].push_back(reads / groups.total_reads(group));
        }
      }
    }
    for (std::size_t group = 0; group < groups.count(); ++group) {
      if (groups.total_reads(group) <= 0) continue;
      // (2): fraction of the group's reads covered >= tqos.
      const std::size_t row =
          model.add_row(lp::RowType::Ge, goal.tqos, qos_cols[group],
                        qos_coeffs[group], "qos[" + std::to_string(group) + "]");
      built.qos_rows.push_back({row, group, groups.total_reads(group)});
    }
  }

  // --- route variables (avg-latency goal (7)-(10), penalty term (11),
  // bandwidth capacity rows) ------------------------------------------------
  // Tree-link machinery: node depths for path walks, per-(link, interval)
  // flow accumulators, and a route-variable lookup for the deferred
  // coverage rows.
  std::vector<std::size_t> node_depth;
  if (instance.links && needs_routes) {
    node_depth.assign(n_count, 0);
    for (std::size_t n = 0; n < n_count; ++n) {
      std::size_t hops = 0;
      graph::NodeId walk = instance.links->parent[n];
      while (walk >= 0) {
        ++hops;
        walk = instance.links->parent[static_cast<std::size_t>(walk)];
      }
      node_depth[n] = hops;
    }
  }
  std::vector<std::vector<std::size_t>> bw_cols;
  std::vector<std::vector<double>> bw_coeffs;
  std::vector<std::int32_t> route_lookup;
  if (bandwidth_caps) {
    bw_cols.resize(n_count * i_count);
    bw_coeffs.resize(n_count * i_count);
    if (qos_metric)
      route_lookup.assign(n_count * i_count * k_count * n_count, -1);
  }
  // Links (child-side endpoints) crossed by the tree path n -> m.
  const auto crossed_links = [&](std::size_t n, std::size_t m) {
    std::vector<std::size_t> links_crossed;
    auto a = static_cast<graph::NodeId>(n);
    auto b = static_cast<graph::NodeId>(m);
    const auto& parent = instance.links->parent;
    while (node_depth[a] > node_depth[b]) {
      links_crossed.push_back(static_cast<std::size_t>(a));
      a = parent[static_cast<std::size_t>(a)];
    }
    while (node_depth[b] > node_depth[a]) {
      links_crossed.push_back(static_cast<std::size_t>(b));
      b = parent[static_cast<std::size_t>(b)];
    }
    while (a != b) {
      links_crossed.push_back(static_cast<std::size_t>(a));
      links_crossed.push_back(static_cast<std::size_t>(b));
      a = parent[static_cast<std::size_t>(a)];
      b = parent[static_cast<std::size_t>(b)];
    }
    return links_crossed;
  };
  if (needs_routes) {
    WANPLACE_REQUIRE(instance.origin.has_value(),
                     "route-based models need an origin so every request "
                     "has a server");
    for (std::size_t n = 0; n < n_count; ++n) {
      const double total = demand.total_reads(n);
      std::vector<std::size_t> avg_cols;
      std::vector<double> avg_coeffs;
      for (std::size_t i = 0; i < i_count; ++i) {
        for (std::size_t k = 0; k < k_count; ++k) {
          const double reads = demand.read(n, i, k);
          if (reads <= 0) continue;
          std::vector<std::size_t> sum_cols;
          for (std::size_t m = 0; m < n_count; ++m) {
            if (!built.fetch(n, m)) continue;
            const double latency = instance.latencies(n, m);
            if (!std::isfinite(latency)) continue;
            double route_cost = 0;
            if (costs.gamma > 0) {
              // Linearized penalty: late service costs gamma per excess ms
              // per request; in-threshold routes cost nothing, so the model
              // routes within Tlat whenever a covered replica exists.
              const double excess = instance.dist(n, m) ? 0.0 : latency;
              route_cost = costs.gamma * reads * excess;
            }
            const auto var = static_cast<std::int32_t>(model.add_variable(
                0, 1, route_cost));
            built.routes.push_back(RouteVar{n, m, i, k, var});
            sum_cols.push_back(static_cast<std::size_t>(var));
            // (9): route <= store at the server.
            model.add_row(
                lp::RowType::Le, 0,
                {static_cast<std::size_t>(var),
                 static_cast<std::size_t>(built.store(m, i, k))},
                {1, -1});
            if (!route_lookup.empty())
              route_lookup[((n * i_count + i) * k_count + k) * n_count + m] =
                  var;
            if (bandwidth_caps && m != n) {
              // The served reads flow across every link on the tree path.
              for (const std::size_t u : crossed_links(n, m)) {
                if (!std::isfinite(instance.links->up_capacity[u])) continue;
                bw_cols[u * i_count + i].push_back(
                    static_cast<std::size_t>(var));
                bw_coeffs[u * i_count + i].push_back(reads);
              }
            }
            if (spec.routing == Routing::Closest && m != n) {
              // Closest-assignment rows: serving n from ancestor m is only
              // possible when no node strictly below m on the path stores
              // the object (the request would have stopped there).
              for (auto b = static_cast<graph::NodeId>(n);
                   static_cast<std::size_t>(b) != m;
                   b = instance.links->parent[static_cast<std::size_t>(b)]) {
                model.add_row(
                    lp::RowType::Le, 1,
                    {static_cast<std::size_t>(var),
                     static_cast<std::size_t>(
                         built.store(static_cast<std::size_t>(b), i, k))},
                    {1, 1});
              }
            }
            if (!qos_metric && total > 0) {
              avg_cols.push_back(static_cast<std::size_t>(var));
              avg_coeffs.push_back(reads * latency / total);
            }
          }
          // (8): demand is served by exactly one replica.
          WANPLACE_CHECK(!sum_cols.empty(), "no feasible route for demand");
          built.route_rows(n, i, k) = static_cast<std::int32_t>(
              model.add_row(lp::RowType::Eq, 1, sum_cols,
                            std::vector<double>(sum_cols.size(), 1.0)));
        }
      }
      if (!qos_metric && total > 0) {
        // (7): mean latency <= tavg.
        const double tavg = std::get<AvgLatencyGoal>(instance.goal).tavg_ms;
        model.add_row(lp::RowType::Le, tavg, avg_cols, avg_coeffs,
                      "avg[" + std::to_string(n) + "]");
      }
    }
  }

  // --- deferred route-based coverage rows (bandwidth instances) -----------
  // covered <= sum of in-threshold routes: a replica only covers demand it
  // can actually serve through the capped links.
  for (const auto& [cov, n, i, k] : deferred_coverage) {
    std::vector<std::size_t> cols{cov};
    std::vector<double> coeffs{-1};
    for (std::size_t m : built.reach[n]) {
      const std::int32_t var =
          route_lookup[((n * i_count + i) * k_count + k) * n_count + m];
      WANPLACE_CHECK(var >= 0, "missing route for a reachable replica");
      cols.push_back(static_cast<std::size_t>(var));
      coeffs.push_back(1);
    }
    model.add_row(lp::RowType::Ge, 0, cols, coeffs);
  }

  // --- per-(link, interval) bandwidth capacity rows ------------------------
  if (bandwidth_caps) {
    for (std::size_t u = 0; u < n_count; ++u) {
      const double cap = instance.links->up_capacity[u];
      if (instance.links->parent[u] < 0 || !std::isfinite(cap)) continue;
      for (std::size_t i = 0; i < i_count; ++i) {
        auto& cols = bw_cols[u * i_count + i];
        if (cols.empty()) continue;  // no flow can cross this link
        const std::size_t row = model.add_row(
            lp::RowType::Le, cap, cols, bw_coeffs[u * i_count + i],
            "bw[" + std::to_string(u) + "," + std::to_string(i) + "]");
        built.bandwidth_rows.push_back(
            {row, static_cast<graph::NodeId>(u), i, cap});
      }
    }
  }

  // --- provisioned storage constraint (16)/(16a) ---------------------------
  const std::size_t open_nodes =
      n_count - (instance.origin.has_value() ? 1 : 0);
  if (spec.storage) {
    const bool per_system = *spec.storage == StorageConstraint::PerSystem;
    const std::size_t cap_count = per_system ? 1 : n_count;
    for (std::size_t c = 0; c < cap_count; ++c) {
      const double weight =
          costs.alpha * static_cast<double>(i_count) *
          (per_system ? static_cast<double>(open_nodes) : 1.0);
      built.capacity.push_back(static_cast<std::int32_t>(model.add_variable(
          0, static_cast<double>(k_count), weight)));
    }
    for (std::size_t n = 0; n < n_count; ++n) {
      if (instance.is_origin(n)) continue;
      const std::int32_t cap = per_system ? built.capacity[0]
                                          : built.capacity[n];
      for (std::size_t i = 0; i < i_count; ++i) {
        std::vector<std::size_t> cols;
        std::vector<double> coeffs;
        for (std::size_t k = 0; k < k_count; ++k) {
          cols.push_back(static_cast<std::size_t>(built.store(n, i, k)));
          coeffs.push_back(1);
        }
        cols.push_back(static_cast<std::size_t>(cap));
        coeffs.push_back(-1);
        built.capacity_rows.push_back(
            {model.add_row(lp::RowType::Le, 0, cols, coeffs), n, i});
      }
    }
  }

  // --- provisioned replica constraint (17)/(17a) ---------------------------
  if (spec.replicas) {
    const bool per_system = *spec.replicas == ReplicaConstraint::PerSystem;
    const std::size_t rep_count = per_system ? 1 : k_count;
    for (std::size_t c = 0; c < rep_count; ++c) {
      const double weight =
          costs.alpha * static_cast<double>(i_count) *
          (per_system ? static_cast<double>(k_count) : 1.0);
      built.replication.push_back(static_cast<std::int32_t>(
          model.add_variable(0, static_cast<double>(open_nodes), weight)));
    }
    for (std::size_t k = 0; k < k_count; ++k) {
      const std::int32_t rep = per_system ? built.replication[0]
                                          : built.replication[k];
      for (std::size_t i = 0; i < i_count; ++i) {
        std::vector<std::size_t> cols;
        std::vector<double> coeffs;
        for (std::size_t n = 0; n < n_count; ++n) {
          if (instance.is_origin(n)) continue;
          cols.push_back(static_cast<std::size_t>(built.store(n, i, k)));
          coeffs.push_back(1);
        }
        cols.push_back(static_cast<std::size_t>(rep));
        coeffs.push_back(-1);
        built.replica_rows.push_back(
            {model.add_row(lp::RowType::Le, 0, cols, coeffs), k, i});
      }
    }
  }

  // --- node-opening cost (13)/(14) -----------------------------------------
  if (costs.zeta > 0) {
    built.open.assign(n_count, -1);
    for (std::size_t n = 0; n < n_count; ++n) {
      if (instance.is_origin(n)) continue;  // headquarters is already open
      built.open[n] = static_cast<std::int32_t>(model.add_variable(
          0, 1, costs.zeta));
      for (std::size_t i = 0; i < i_count; ++i)
        for (std::size_t k = 0; k < k_count; ++k)
          model.add_row(
              lp::RowType::Le, 0,
              {static_cast<std::size_t>(built.store(n, i, k)),
               static_cast<std::size_t>(built.open[n])},
              {1, -1});
    }
  }

  return built;
}

// --- incremental model deltas ------------------------------------------------

namespace {

/// Shape-repair a basis snapshot after apply_delta appended columns and/or
/// rows. Appended structurals slot in at the structural/slack seam with
/// status AtLower (every delta-added column has a finite lower bound), which
/// shifts every slack reference in the basis up by the number added;
/// appended rows start with their slack basic, keeping the basis matrix
/// nonsingular. Dual-sign violations on the appended columns are boxed and
/// handled by the dual simplex's bound-flip repair.
void extend_basis(lp::BasisSnapshot& basis, std::size_t old_vars,
                  std::size_t old_rows, std::size_t new_vars,
                  std::size_t new_rows) {
  const std::size_t added_vars = new_vars - old_vars;
  const std::size_t added_rows = new_rows - old_rows;
  basis.status.insert(
      basis.status.begin() + static_cast<std::ptrdiff_t>(old_vars), added_vars,
      lp::BasisSnapshot::AtLower);
  basis.status.insert(basis.status.end(), added_rows,
                      lp::BasisSnapshot::Basic);
  if (added_vars > 0)
    for (auto& col : basis.basis)
      if (col != lp::BasisSnapshot::kArtificialBasic && col >= old_vars)
        col += static_cast<std::uint32_t>(added_vars);
  for (std::size_t r = 0; r < added_rows; ++r)
    basis.basis.push_back(
        static_cast<std::uint32_t>(new_vars + old_rows + r));
  basis.variables = new_vars;
  basis.rows = new_rows;
}

/// In-place mutation of a BuiltModel to track a post-event instance.
/// Invariants maintained (matching build_lp's uncapped QoS window):
///   - covered(n,i,k) >= 0 exactly for cells that ever had reads > 0; its
///     bounds are [0,1] iff reads > 0 and reach[n] is non-empty, else
///     [0,0],
///   - coverage_rows(n,i,k) tracks the `-cov + sum reachable stores >= 0`
///     row (rewritten, never deleted; an unreachable cell's row degrades to
///     `-cov >= 0` which its fixed bounds already imply),
///   - qos_rows holds one row per scope group that ever had reads, with
///     coefficients renormalized to the group's current volume; a drained
///     group's row is rewritten vacuous (0 >= 0),
///   - route_rows(n,i,k) tracks each cell's `sum routes == 1` row when
///     routes are modeled (gamma > 0): a drained cell's block is
///     tombstoned (routes fixed at 0, row vacated), a re-activated or
///     freshly read-positive cell gets its block rebuilt/extended in place,
///     and route penalty coefficients follow the current reads/dist,
///   - capacity_rows / replica_rows track the provisioned SC/RC rows so a
///     join appends the fresh node's budget rows instead of rebuilding.
class DeltaPatcher {
 public:
  DeltaPatcher(const Instance& instance, const ClassSpec& spec,
               BuiltModel& built)
      : instance_(instance),
        spec_(spec),
        built_(built),
        model_(built.model) {
    routes_modeled_ = !std::holds_alternative<QosGoal>(instance.goal) ||
                      instance.costs.gamma > 0 ||
                      instance.has_bandwidth_caps();
    if (routes_modeled_) {
      cell_routes_.resize(instance.node_count() * instance.interval_count() *
                          instance.object_count());
      for (std::size_t r = 0; r < built_.routes.size(); ++r) {
        const RouteVar& rv = built_.routes[r];
        cell_routes_[cell_index(rv.n, rv.i, rv.k)].push_back(r);
      }
    }
  }

  void demand_delta(const workload::DemandDeltaEvent& event) {
    const auto n = static_cast<std::size_t>(event.node);
    const auto k = static_cast<std::size_t>(event.object);
    ensure_covered(n, event.interval, k);
    sync_cell_coverage(n, event.interval, k);
    if (event.read_delta != 0) sync_qos_rows();
    if (event.write_delta != 0 && instance_.costs.delta > 0)
      sync_store_costs(event.interval, k);
    sync_route_block(n, event.interval, k);
    sync_create_bounds();
  }

  void node_leave(const workload::NodeLeaveEvent& event) {
    const auto n = static_cast<std::size_t>(event.node);
    for (std::size_t i = 0; i < instance_.interval_count(); ++i)
      for (std::size_t k = 0; k < instance_.object_count(); ++k) {
        model_.fix_variable(
            static_cast<std::size_t>(built_.store(n, i, k)), 0);
        model_.fix_variable(
            static_cast<std::size_t>(built_.create(n, i, k)), 0);
      }
    if (!built_.open.empty() && built_.open[n] >= 0)
      model_.fix_variable(static_cast<std::size_t>(built_.open[n]), 0);
    for (std::size_t m = 0; m < instance_.node_count(); ++m)
      if (rebuild_reach(m)) sync_node_coverage(m);
    sync_qos_rows();
    // The departed node's writes are zeroed with it, so the write-propagation
    // component of every store cost shrinks.
    if (instance_.costs.delta > 0)
      for (std::size_t i = 0; i < instance_.interval_count(); ++i)
        for (std::size_t k = 0; k < instance_.object_count(); ++k)
          sync_store_costs(i, k);
    // The departed node's own cells drained (tombstone their blocks) and
    // its latencies went infinite (routes serving from it fix to 0).
    sync_all_route_blocks();
    sync_create_bounds();
  }

  void node_join() {
    const std::size_t n_count = instance_.node_count();  // post-join
    const std::size_t i_count = instance_.interval_count();
    const std::size_t k_count = instance_.object_count();
    const std::size_t fresh = n_count - 1;
    const CostModel& costs = instance_.costs;
    const bool provisioned = spec_.storage || spec_.replicas;
    built_.store.grow_x(n_count, -1);
    built_.create.grow_x(n_count, -1);
    built_.covered.grow_x(n_count, -1);
    built_.coverage_rows.grow_x(n_count, -1);
    built_.route_rows.grow_x(n_count, -1);
    // Unrestricted classes never run the sync below (the permission cube is
    // identically 1), so the fresh rows must be born allowed.
    built_.create_allowed.grow_x(n_count,
                                 spec_.restricts_creation() ? 0 : 1);
    built_.reach.resize(n_count);
    built_.fetch = compute_fetch(instance_, spec_);
    // Wider dist can unlock creation at existing nodes (Neighborhood
    // knowledge); refresh before the new node's create bounds are read.
    sync_create_bounds();
    for (std::size_t i = 0; i < i_count; ++i) {
      for (std::size_t k = 0; k < k_count; ++k) {
        double store_cost = provisioned ? 0.0 : instance_.storage_alpha(fresh);
        if (costs.delta > 0) {
          double writes_ik = 0;
          for (std::size_t m = 0; m < n_count; ++m)
            writes_ik += instance_.demand.write(m, i, k);
          store_cost += costs.delta * writes_ik;
        }
        built_.store(fresh, i, k) = static_cast<std::int32_t>(
            model_.add_variable(0, 1, store_cost));
        const double create_ub =
            built_.create_allowed(fresh, i, k) ? 1.0 : 0.0;
        built_.create(fresh, i, k) = static_cast<std::int32_t>(
            model_.add_variable(0, create_ub, costs.beta));
        std::vector<std::size_t> cols{
            static_cast<std::size_t>(built_.store(fresh, i, k)),
            static_cast<std::size_t>(built_.create(fresh, i, k))};
        std::vector<double> coeffs{1, -1};
        if (i > 0) {
          cols.push_back(
              static_cast<std::size_t>(built_.store(fresh, i - 1, k)));
          coeffs.push_back(-1);
        }
        model_.add_row(lp::RowType::Le, 0, cols, coeffs);
      }
    }
    if (costs.zeta > 0) {
      built_.open.resize(n_count, -1);
      built_.open[fresh] = static_cast<std::int32_t>(model_.add_variable(
          0, 1, costs.zeta));
      for (std::size_t i = 0; i < i_count; ++i)
        for (std::size_t k = 0; k < k_count; ++k)
          model_.add_row(
              lp::RowType::Le, 0,
              {static_cast<std::size_t>(built_.store(fresh, i, k)),
               static_cast<std::size_t>(built_.open[fresh])},
              {1, -1});
    }
    const std::size_t open_nodes =
        n_count - (instance_.origin.has_value() ? 1 : 0);
    if (spec_.storage) {
      const bool per_system = *spec_.storage == StorageConstraint::PerSystem;
      std::int32_t cap;
      if (per_system) {
        cap = built_.capacity[0];
        // (16): the shared budget is priced per candidate site, and the
        // join added one.
        model_.set_objective(static_cast<std::size_t>(cap),
                             costs.alpha * static_cast<double>(i_count) *
                                 static_cast<double>(open_nodes));
      } else {
        cap = static_cast<std::int32_t>(model_.add_variable(
            0, static_cast<double>(k_count),
            costs.alpha * static_cast<double>(i_count)));
        built_.capacity.push_back(cap);
      }
      for (std::size_t i = 0; i < i_count; ++i) {
        std::vector<std::size_t> cols;
        std::vector<double> coeffs;
        for (std::size_t k = 0; k < k_count; ++k) {
          cols.push_back(static_cast<std::size_t>(built_.store(fresh, i, k)));
          coeffs.push_back(1);
        }
        cols.push_back(static_cast<std::size_t>(cap));
        coeffs.push_back(-1);
        built_.capacity_rows.push_back(
            {model_.add_row(lp::RowType::Le, 0, cols, coeffs), fresh, i});
      }
    }
    if (spec_.replicas) {
      // (17): one more candidate site raises every replication budget's
      // ceiling, and each (object, interval) row gains the fresh node's
      // store column.
      for (const std::int32_t rep : built_.replication)
        model_.set_bounds(static_cast<std::size_t>(rep), 0,
                          static_cast<double>(open_nodes));
      const bool per_system = *spec_.replicas == ReplicaConstraint::PerSystem;
      for (const auto& info : built_.replica_rows) {
        const std::int32_t rep = per_system
                                     ? built_.replication[0]
                                     : built_.replication[info.object];
        std::vector<std::size_t> cols;
        std::vector<double> coeffs;
        for (std::size_t m = 0; m < n_count; ++m) {
          if (instance_.is_origin(m)) continue;
          cols.push_back(static_cast<std::size_t>(
              built_.store(m, info.interval, info.object)));
          coeffs.push_back(1);
        }
        cols.push_back(static_cast<std::size_t>(rep));
        coeffs.push_back(-1);
        model_.set_row(info.row, 0, cols, coeffs);
      }
    }
    for (std::size_t m = 0; m < n_count; ++m)
      if (rebuild_reach(m)) sync_node_coverage(m);
    // Under Global fetch every existing read-positive cell gains the fresh
    // node as a candidate server; the block sync appends those routes.
    sync_all_route_blocks();
  }

  void latency_update(const workload::LatencyUpdateEvent& event) {
    if (instance_.links) {
      // An up-link re-measure shifts the latency of every pair whose tree
      // path crosses the link, so every node's reach and route block is
      // suspect.
      for (std::size_t n = 0; n < instance_.node_count(); ++n)
        if (rebuild_reach(n)) sync_node_coverage(n);
      sync_all_route_blocks();
    } else {
      for (const auto node : {event.a, event.b}) {
        const auto n = static_cast<std::size_t>(node);
        if (rebuild_reach(n)) sync_node_coverage(n);
        for (std::size_t i = 0; i < instance_.interval_count(); ++i)
          for (std::size_t k = 0; k < instance_.object_count(); ++k)
            sync_route_block(n, i, k);
      }
    }
    sync_create_bounds();
  }

 private:
  /// Recompute reach[n] from the post-event dist/fetch; true if it changed.
  bool rebuild_reach(std::size_t n) {
    std::vector<std::size_t> reach;
    for (std::size_t m = 0; m < instance_.node_count(); ++m)
      if (instance_.dist(n, m) && built_.fetch(n, m)) reach.push_back(m);
    if (reach == built_.reach[n]) return false;
    built_.reach[n] = std::move(reach);
    return true;
  }

  /// Create the covered variable for a cell whose reads just turned
  /// positive; bounds are set by sync_cell_coverage.
  void ensure_covered(std::size_t n, std::size_t i, std::size_t k) {
    if (built_.covered(n, i, k) >= 0) return;
    if (instance_.demand.read(n, i, k) <= 0) return;
    built_.covered(n, i, k) = static_cast<std::int32_t>(
        model_.add_variable(0, 0, 0));
  }

  /// Re-derive one cell's covered bounds and coverage row from the current
  /// reads and reach set.
  void sync_cell_coverage(std::size_t n, std::size_t i, std::size_t k) {
    const std::int32_t cov = built_.covered(n, i, k);
    if (cov < 0) return;
    const bool reachable = !built_.reach[n].empty();
    const bool active = instance_.demand.read(n, i, k) > 0 && reachable;
    model_.set_bounds(static_cast<std::size_t>(cov), 0, active ? 1 : 0);
    std::vector<std::size_t> cols{static_cast<std::size_t>(cov)};
    std::vector<double> coeffs{-1};
    if (reachable)
      for (std::size_t m : built_.reach[n]) {
        cols.push_back(static_cast<std::size_t>(built_.store(m, i, k)));
        coeffs.push_back(1);
      }
    const std::int32_t row = built_.coverage_rows(n, i, k);
    if (row >= 0) {
      model_.set_row(static_cast<std::size_t>(row), 0, cols, coeffs);
    } else if (reachable) {
      built_.coverage_rows(n, i, k) = static_cast<std::int32_t>(
          model_.add_row(lp::RowType::Ge, 0, cols, coeffs));
    }
  }

  void sync_node_coverage(std::size_t n) {
    for (std::size_t i = 0; i < instance_.interval_count(); ++i)
      for (std::size_t k = 0; k < instance_.object_count(); ++k)
        sync_cell_coverage(n, i, k);
  }

  /// Rewrite every QoS accounting row from the post-event demand: group
  /// volumes renormalize all member coefficients, drained groups go
  /// vacuous, newly active groups get a fresh row.
  void sync_qos_rows() {
    const auto& goal = std::get<QosGoal>(instance_.goal);
    const QosGroups groups(instance_, goal.scope);
    std::vector<std::vector<std::size_t>> cols(groups.count());
    std::vector<std::vector<double>> coeffs(groups.count());
    for (std::size_t n = 0; n < instance_.node_count(); ++n)
      for (std::size_t i = 0; i < instance_.interval_count(); ++i)
        for (std::size_t k = 0; k < instance_.object_count(); ++k) {
          const double reads = instance_.demand.read(n, i, k);
          if (reads <= 0) continue;
          const std::int32_t cov = built_.covered(n, i, k);
          WANPLACE_CHECK(cov >= 0, "read-positive cell without covered var");
          const std::size_t group = groups.group_of(n, k);
          cols[group].push_back(static_cast<std::size_t>(cov));
          coeffs[group].push_back(reads / groups.total_reads(group));
        }
    std::vector<std::ptrdiff_t> row_of_group(groups.count(), -1);
    for (std::size_t q = 0; q < built_.qos_rows.size(); ++q)
      row_of_group[built_.qos_rows[q].group] =
          static_cast<std::ptrdiff_t>(q);
    for (std::size_t group = 0; group < groups.count(); ++group) {
      const double total = groups.total_reads(group);
      const std::ptrdiff_t q = row_of_group[group];
      if (q >= 0) {
        auto& info = built_.qos_rows[static_cast<std::size_t>(q)];
        if (total > 0)
          model_.set_row(info.row, goal.tqos, cols[group], coeffs[group]);
        else
          model_.set_row(info.row, 0, {}, {});
        info.total_reads = total;
      } else if (total > 0) {
        const std::size_t row =
            model_.add_row(lp::RowType::Ge, goal.tqos, cols[group],
                           coeffs[group], "qos[" + std::to_string(group) + "]");
        built_.qos_rows.push_back({row, group, total});
      }
    }
  }

  /// Refresh the update-message term of every store column of (i,k) after
  /// a write-count change.
  void sync_store_costs(std::size_t i, std::size_t k) {
    const bool provisioned = spec_.storage || spec_.replicas;
    double writes_ik = 0;
    for (std::size_t n = 0; n < instance_.node_count(); ++n)
      writes_ik += instance_.demand.write(n, i, k);
    for (std::size_t n = 0; n < instance_.node_count(); ++n) {
      if (instance_.is_origin(n) || built_.store(n, i, k) < 0) continue;
      const double store_cost =
          (provisioned ? 0.0 : instance_.storage_alpha(n)) +
          instance_.costs.delta * writes_ik;
      model_.set_objective(static_cast<std::size_t>(built_.store(n, i, k)),
                           store_cost);
    }
  }

  std::size_t cell_index(std::size_t n, std::size_t i, std::size_t k) const {
    return (n * instance_.interval_count() + i) * instance_.object_count() + k;
  }

  /// Bring one cell's route block — route variables, their route<=store
  /// rows (9), closest-assignment rows, and the sum-routes==1 row (8) —
  /// in line with the post-event instance. A drained cell's block is
  /// tombstoned (route vars fixed at 0, sum row vacated) so the LP matches
  /// a fresh build that would not create the block at all; when reads
  /// return, or drift gives the cell a server a fresh build would see
  /// (a joiner under Global fetch, a latency turning finite), the block is
  /// re-activated or extended in place. Penalty coefficients follow the
  /// current reads and dist thresholding.
  void sync_route_block(std::size_t n, std::size_t i, std::size_t k) {
    if (!routes_modeled_) return;
    const std::size_t n_count = instance_.node_count();
    auto& cell = cell_routes_[cell_index(n, i, k)];
    const double reads = instance_.demand.read(n, i, k);
    if (reads <= 0) {
      const std::int32_t row = built_.route_rows(n, i, k);
      if (row < 0) return;  // the cell never had a block
      for (const std::size_t r : cell) {
        model_.fix_variable(static_cast<std::size_t>(built_.routes[r].var),
                            0);
        // Zero the coefficient too: a fixed column still feeds c*x, and a
        // departed server's penalty would be gamma * reads * infinity.
        model_.set_objective(static_cast<std::size_t>(built_.routes[r].var),
                             0);
      }
      model_.set_row(static_cast<std::size_t>(row), 0, {}, {});
      return;
    }
    std::vector<char> have(n_count, 0);
    for (const std::size_t r : cell) have[built_.routes[r].m] = 1;
    for (std::size_t m = 0; m < n_count; ++m) {
      if (have[m] || !built_.fetch(n, m)) continue;
      if (!std::isfinite(instance_.latencies(n, m))) continue;
      const auto var =
          static_cast<std::int32_t>(model_.add_variable(0, 1, 0));
      cell.push_back(built_.routes.size());
      built_.routes.push_back(RouteVar{n, m, i, k, var});
      // (9): route <= store at the server.
      model_.add_row(lp::RowType::Le, 0,
                     {static_cast<std::size_t>(var),
                      static_cast<std::size_t>(built_.store(m, i, k))},
                     {1, -1});
      if (spec_.routing == Routing::Closest && m != n)
        for (auto b = static_cast<graph::NodeId>(n);
             static_cast<std::size_t>(b) != m;
             b = instance_.links->parent[static_cast<std::size_t>(b)])
          model_.add_row(lp::RowType::Le, 1,
                         {static_cast<std::size_t>(var),
                          static_cast<std::size_t>(built_.store(
                              static_cast<std::size_t>(b), i, k))},
                         {1, 1});
    }
    std::vector<std::size_t> sum_cols;
    for (const std::size_t r : cell) {
      const RouteVar& rv = built_.routes[r];
      const double latency = instance_.latencies(n, rv.m);
      if (!built_.fetch(n, rv.m) || !std::isfinite(latency)) {
        // A departed server: a fresh build has no such column.
        model_.fix_variable(static_cast<std::size_t>(rv.var), 0);
        model_.set_objective(static_cast<std::size_t>(rv.var), 0);
        continue;
      }
      model_.set_bounds(static_cast<std::size_t>(rv.var), 0, 1);
      double route_cost = 0;
      if (instance_.costs.gamma > 0) {
        const double excess = instance_.dist(n, rv.m) ? 0.0 : latency;
        route_cost = instance_.costs.gamma * reads * excess;
      }
      model_.set_objective(static_cast<std::size_t>(rv.var), route_cost);
      sum_cols.push_back(static_cast<std::size_t>(rv.var));
    }
    WANPLACE_CHECK(!sum_cols.empty(), "no feasible route for demand");
    const std::vector<double> ones(sum_cols.size(), 1.0);
    const std::int32_t row = built_.route_rows(n, i, k);
    if (row >= 0)
      model_.set_row(static_cast<std::size_t>(row), 1, sum_cols, ones);
    else
      built_.route_rows(n, i, k) = static_cast<std::int32_t>(
          model_.add_row(lp::RowType::Eq, 1, sum_cols, ones));
  }

  void sync_all_route_blocks() {
    if (!routes_modeled_) return;
    for (std::size_t n = 0; n < instance_.node_count(); ++n)
      for (std::size_t i = 0; i < instance_.interval_count(); ++i)
        for (std::size_t k = 0; k < instance_.object_count(); ++k)
          sync_route_block(n, i, k);
  }

  /// Re-derive the create-permission cube (demand activity and, for
  /// Neighborhood knowledge, reachability feed it) and retighten bounds
  /// where it changed.
  void sync_create_bounds() {
    if (!spec_.restricts_creation()) return;
    const BoolCube allowed = compute_create_allowed(instance_, spec_);
    for (std::size_t n = 0; n < instance_.node_count(); ++n) {
      if (instance_.is_origin(n)) continue;
      for (std::size_t i = 0; i < instance_.interval_count(); ++i)
        for (std::size_t k = 0; k < instance_.object_count(); ++k) {
          if (built_.create(n, i, k) < 0) continue;
          if (allowed(n, i, k) == built_.create_allowed(n, i, k)) continue;
          model_.set_bounds(static_cast<std::size_t>(built_.create(n, i, k)),
                            0, allowed(n, i, k) ? 1.0 : 0.0);
        }
    }
    built_.create_allowed = allowed;
  }

  const Instance& instance_;
  const ClassSpec& spec_;
  BuiltModel& built_;
  lp::LpModel& model_;
  bool routes_modeled_ = false;
  /// Indices into built_.routes per cell (n,i,k), mirroring the block each
  /// cell owns; appended routes are recorded here too.
  std::vector<std::vector<std::size_t>> cell_routes_;
};

}  // namespace

bool delta_supported(const Instance& instance, const ClassSpec& /*spec*/,
                     const workload::Event& event) {
  // The incremental window is every QoS-metric formulation without finite
  // link capacities: gamma > 0 route blocks, provisioned SC/RC classes, and
  // uncapped tree instances are all tracked per row family. Bandwidth caps
  // entangle every route with per-link flow rows the patcher does not
  // track, and the avg-latency metric would need its per-node mean rows
  // rewritten. Joins stay out on trees — a joiner carries no parent edge,
  // so Instance::apply_delta rejects the event before the model is asked.
  // Every predicate here reads state no event mutates (goal, costs, link
  // capacities, link presence), so pre- and post-event decisions agree.
  if (!std::holds_alternative<QosGoal>(instance.goal)) return false;
  if (instance.has_bandwidth_caps()) return false;
  if (std::holds_alternative<workload::NodeJoinEvent>(event))
    return !instance.links;
  return true;
}

bool apply_delta(const Instance& instance, const ClassSpec& spec,
                 const workload::Event& event, BuiltModel& built,
                 lp::BasisSnapshot& basis) {
  if (!delta_supported(instance, spec, event)) return false;
  lp::LpModel& model = built.model;
  const std::size_t old_vars = model.variable_count();
  const std::size_t old_rows = model.row_count();
  const bool repair_basis =
      !basis.empty() && basis.compatible(old_vars, old_rows);

  DeltaPatcher patcher(instance, spec, built);
  if (const auto* d = std::get_if<workload::DemandDeltaEvent>(&event))
    patcher.demand_delta(*d);
  else if (std::holds_alternative<workload::NodeJoinEvent>(event))
    patcher.node_join();
  else if (const auto* l = std::get_if<workload::NodeLeaveEvent>(&event))
    patcher.node_leave(*l);
  else
    patcher.latency_update(std::get<workload::LatencyUpdateEvent>(event));

  if (repair_basis)
    extend_basis(basis, old_vars, old_rows, model.variable_count(),
                 model.row_count());
  else
    basis = {};
  return true;
}

}  // namespace wanplace::mcperf
