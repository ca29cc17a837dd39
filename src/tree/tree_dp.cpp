#include "tree/tree_dp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "mcperf/builder.h"
#include "util/check.h"

namespace wanplace::tree {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using mcperf::Instance;

/// Static per-object view of the tree problem shared by both policy DPs.
struct ObjectView {
  const mcperf::LinkModel* links = nullptr;
  graph::NodeId root = 0;
  double tlat = 0;
  bool self_ok = false;  // local (LAN) latency <= Tlat
  std::vector<std::vector<graph::NodeId>> children;
  std::vector<char> cand;    // non-origin and creation permitted
  std::vector<char> demand;  // reads > 0 in the (single) interval
  std::vector<double> reads;
  std::vector<double> weight;  // full cost of one replica at v

  double lambda(graph::NodeId v) const { return links->up_latency_ms[v]; }
};

// ---------------------------------------------------------------------------
// Global routing: envelope DP.
//
// A_v(x): cheapest facility set inside T_v covering all of T_v's demand,
// given one usable external facility at path latency x above v (x = +inf
// means none). AB_v(x, t): same, but additionally some facility INSIDE T_v
// must sit within path latency t of v (so an ancestor can borrow it);
// AB_v(+inf, t) is the fully self-covered envelope. Both are monotone in
// their parameters.
//
// The single-nearest-provider enumeration is exact because for any node u
// OUTSIDE a subtree T_p, the distance to a facility g inside T_p is
// path(u, p's parent) + lambda_p + path(p, g) — so the facility minimizing
// path(p, g) dominates every other facility of T_p for the entire outside
// world at once. The same bound shows that when the designated provider is
// closer to v than the external (delta <= x), the external cannot cover
// anything inside T_p that the provider does not, so the provider child may
// be charged the self-covered envelope AB_p(+inf, b); when delta > x the
// external may genuinely help inside T_p and the provider child is charged
// AB_p(x + lambda_p, b) instead.
// ---------------------------------------------------------------------------
class GlobalDp {
 public:
  explicit GlobalDp(const ObjectView& view) : view_(view) {
    const std::size_t n = view.children.size();
    memo_a_.resize(n);
    memo_ab_.resize(n);
    fac_dist_.resize(n);
    build_fac_dist(view.root);
  }

  bool solve(std::vector<char>& selected, double& cost) {
    double total = 0;
    graph::NodeId upgrade = -1;
    // The root is the origin: it always stores, for free.
    for (graph::NodeId j : view_.children[view_.root])
      total += a(j, view_.lambda(j)).cost;
    if (view_.demand[view_.root] && !view_.self_ok) {
      // Root demand not serviceable locally: some facility within Tlat of
      // the root must exist — upgrade the cheapest child subtree. The
      // upgraded subtree still leans on the root's own replica (external
      // at lambda_p), hence AB and not a self-covered envelope.
      double best_up = kInf;
      for (graph::NodeId p : view_.children[view_.root]) {
        const double t = view_.tlat - view_.lambda(p);
        if (t < 0) continue;
        const double base = a(p, view_.lambda(p)).cost;
        if (base == kInf) continue;
        const double up = ab(p, view_.lambda(p), t).cost - base;
        if (up < best_up) {
          best_up = up;
          upgrade = p;
        }
      }
      if (upgrade < 0 || best_up == kInf) return false;
      total += best_up;
    }
    if (total == kInf) return false;
    for (graph::NodeId j : view_.children[view_.root]) {
      if (j == upgrade)
        recon_ab(j, view_.lambda(j), view_.tlat - view_.lambda(j), selected);
      else
        recon_a(j, view_.lambda(j), selected);
    }
    cost = total;
    return true;
  }

  std::size_t states() const {
    std::size_t total = 0;
    for (const auto& m : memo_a_) total += m.size();
    for (const auto& m : memo_ab_) total += m.size();
    return total;
  }

 private:
  struct Dec {
    enum Kind { Sel, Ext, Prov } kind = Ext;
    graph::NodeId provider = -1;  // Prov: child hosting the nearest facility
    double provider_b = 0;        // Prov: AB budget for that child
    graph::NodeId upgrade = -1;   // Sel corner: child upgraded to AB
  };
  struct Entry {
    double cost = kInf;
    Dec dec;
  };

  // Distinct candidate-facility path latencies from v into T_v, ascending.
  void build_fac_dist(graph::NodeId v) {
    std::vector<double>& out = fac_dist_[v];
    if (view_.cand[v]) out.push_back(0.0);
    for (graph::NodeId j : view_.children[v]) {
      build_fac_dist(j);
      for (double d : fac_dist_[j]) out.push_back(d + view_.lambda(j));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }

  // The select-v branch shared by A and AB. When v has demand it cannot
  // serve locally and no external within Tlat exists, exactly one child is
  // upgraded to host a facility within Tlat of v; that child's subtree may
  // still use v's replica (external at lambda_p).
  Entry sel_entry(graph::NodeId v, bool external_covers_corner) {
    Entry e;
    if (!view_.cand[v]) return e;
    double base = view_.weight[v];
    for (graph::NodeId j : view_.children[v])
      base += a(j, view_.lambda(j)).cost;
    if (base == kInf) return e;
    Dec dec;
    dec.kind = Dec::Sel;
    if (view_.demand[v] && !view_.self_ok && !external_covers_corner) {
      double best_up = kInf;
      for (graph::NodeId p : view_.children[v]) {
        const double t = view_.tlat - view_.lambda(p);
        if (t < 0) continue;
        const double sub = a(p, view_.lambda(p)).cost;
        if (sub == kInf) continue;
        const double up = ab(p, view_.lambda(p), t).cost - sub;
        if (up < best_up) {
          best_up = up;
          dec.upgrade = p;
        }
      }
      if (dec.upgrade < 0 || best_up == kInf) return e;
      base += best_up;
    }
    e.cost = base;
    e.dec = dec;
    return e;
  }

  // Provider enumeration shared by A (internal_limit = x, strict) and AB
  // (internal_limit = t, non-strict): try each child p and each achievable
  // facility distance b as the nearest-internal-facility designation.
  void prov_branches(graph::NodeId v, double x, double limit, bool strict,
                     Entry& best) {
    for (graph::NodeId p : view_.children[v]) {
      for (double bb : fac_dist_[p]) {
        const double delta = bb + view_.lambda(p);
        if (strict ? delta >= limit : delta > limit) break;
        if (view_.demand[v] && std::min(x, delta) > view_.tlat) break;
        const double provider_x =
            delta <= x ? kInf : x + view_.lambda(p);
        double c = ab(p, provider_x, bb).cost;
        if (c == kInf) continue;  // a larger b may still be feasible
        for (graph::NodeId i : view_.children[v]) {
          if (i == p) continue;
          c += a(i, std::min(x, delta) + view_.lambda(i)).cost;
          if (c == kInf) break;
        }
        if (c < best.cost) {
          best.cost = c;
          best.dec.kind = Dec::Prov;
          best.dec.provider = p;
          best.dec.provider_b = bb;
          best.dec.upgrade = -1;
        }
      }
    }
  }

  const Entry& a(graph::NodeId v, double x) {
    auto [it, fresh] = memo_a_[v].try_emplace(x);
    if (!fresh) return it->second;
    Entry best;
    // EXT: v unselected, the external serves v and propagates down.
    if (!view_.demand[v] || x <= view_.tlat) {
      double c = 0;
      for (graph::NodeId j : view_.children[v]) {
        c += a(j, x + view_.lambda(j)).cost;
        if (c == kInf) break;
      }
      if (c < best.cost) {
        best.cost = c;
        best.dec.kind = Dec::Ext;
      }
    }
    // SEL: v selected; its own facility dominates anything farther.
    {
      const Entry sel = sel_entry(v, x <= view_.tlat);
      if (sel.cost < best.cost) best = sel;
    }
    // PROV only pays off when the provider is strictly closer than the
    // external (delta >= x is dominated by EXT).
    prov_branches(v, x, /*limit=*/x, /*strict=*/true, best);
    it->second = best;
    return it->second;
  }

  const Entry& ab(graph::NodeId v, double x, double t) {
    auto [it, fresh] = memo_ab_[v].try_emplace(std::make_pair(x, t));
    if (!fresh) return it->second;
    Entry best;
    if (t >= 0) {
      const Entry sel = sel_entry(v, x <= view_.tlat);
      if (sel.cost < best.cost) best = sel;
    }
    // PROV: the within-t facility sits in child p; enumerate up to t.
    prov_branches(v, x, /*limit=*/t, /*strict=*/false, best);
    it->second = best;
    return it->second;
  }

  void recon_a(graph::NodeId v, double x, std::vector<char>& selected) {
    const Entry& e = memo_a_[v].at(x);
    WANPLACE_CHECK(e.cost != kInf, "reconstructing an infeasible A state");
    apply(v, e, x, selected);
  }

  void recon_ab(graph::NodeId v, double x, double t,
                std::vector<char>& selected) {
    const Entry& e = memo_ab_[v].at(std::make_pair(x, t));
    WANPLACE_CHECK(e.cost != kInf, "reconstructing an infeasible AB state");
    apply(v, e, x, selected);
  }

  // Shared branch replay; recomputes the same child parameters (in the same
  // order and arithmetic) the forward pass used, so memo lookups hit.
  void apply(graph::NodeId v, const Entry& e, double x,
             std::vector<char>& selected) {
    switch (e.dec.kind) {
      case Dec::Sel:
        selected[v] = 1;
        for (graph::NodeId j : view_.children[v]) {
          if (j == e.dec.upgrade)
            recon_ab(j, view_.lambda(j), view_.tlat - view_.lambda(j),
                     selected);
          else
            recon_a(j, view_.lambda(j), selected);
        }
        break;
      case Dec::Ext:
        for (graph::NodeId j : view_.children[v])
          recon_a(j, x + view_.lambda(j), selected);
        break;
      case Dec::Prov: {
        const graph::NodeId p = e.dec.provider;
        const double bb = e.dec.provider_b;
        const double delta = bb + view_.lambda(p);
        const double provider_x =
            delta <= x ? kInf : x + view_.lambda(p);
        recon_ab(p, provider_x, bb, selected);
        for (graph::NodeId i : view_.children[v]) {
          if (i == p) continue;
          recon_a(i, std::min(x, delta) + view_.lambda(i), selected);
        }
        break;
      }
    }
  }

  const ObjectView& view_;
  std::vector<std::map<double, Entry>> memo_a_;
  std::vector<std::map<std::pair<double, double>, Entry>> memo_ab_;
  std::vector<std::vector<double>> fac_dist_;
};

// ---------------------------------------------------------------------------
// Closest routing: Pareto-frontier DP.
//
// Under the closest policy a request climbs toward the root and the first
// replica on the way serves it, so the only cross-subtree state is what
// climbs OUT of a subtree: the read flow on the up-link (only tracked when
// some capacity is finite) and the tightest remaining latency budget among
// the climbing demands, measured at the subtree root. Frontier entries keep
// back-pointers for witness reconstruction.
// ---------------------------------------------------------------------------
class ClosestDp {
 public:
  ClosestDp(const ObjectView& view, bool track_flow)
      : view_(view), track_flow_(track_flow) {
    table_.resize(view.children.size());
  }

  bool solve(std::vector<char>& selected, double& cost) {
    if (view_.demand[view_.root] && !view_.self_ok) return false;
    double total = 0;
    std::vector<std::size_t> picked;
    for (graph::NodeId j : view_.children[view_.root]) {
      fill(j);
      const std::size_t best = cheapest_liftable(j);
      if (best == SIZE_MAX) return false;
      total += table_[j][best].cost;
      picked.push_back(best);
    }
    std::size_t at = 0;
    for (graph::NodeId j : view_.children[view_.root])
      recon(j, picked[at++], selected);
    cost = total;
    return true;
  }

  std::size_t states() const {
    std::size_t total = 0;
    for (const auto& f : table_) total += f.size();
    return total;
  }

 private:
  struct Ent {
    double flow = 0;   // reads climbing out of the subtree (0 untracked)
    double slack = 0;  // min remaining budget of climbing demands, at v
    double cost = 0;
    char sel = 0;
    std::vector<std::uint32_t> child_idx;  // aligned with children order
  };

  // Entry survives the climb over v's up-link: capacity respected and every
  // climbing demand still serviceable at the parent or above.
  bool liftable(graph::NodeId v, const Ent& e) const {
    if (track_flow_) {
      const double cap = view_.links->up_capacity[v];
      if (std::isfinite(cap) && e.flow > cap) return false;
    }
    return e.slack - view_.lambda(v) >= 0;
  }

  std::size_t cheapest_liftable(graph::NodeId v) const {
    std::size_t best = SIZE_MAX;
    for (std::size_t idx = 0; idx < table_[v].size(); ++idx) {
      const Ent& e = table_[v][idx];
      if (!liftable(v, e)) continue;
      if (best == SIZE_MAX || e.cost < table_[v][best].cost) best = idx;
    }
    return best;
  }

  void prune(std::vector<Ent>& frontier) const {
    std::vector<Ent> kept;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      bool dominated = false;
      for (std::size_t j = 0; j < frontier.size() && !dominated; ++j) {
        if (i == j) continue;
        const Ent& a = frontier[j];
        const Ent& b = frontier[i];
        const bool leq = a.flow <= b.flow && a.slack >= b.slack &&
                         a.cost <= b.cost;
        const bool strict = a.flow < b.flow || a.slack > b.slack ||
                            a.cost < b.cost;
        // Tie-break equal triples by index so exactly one copy survives.
        if (leq && (strict || j < i)) dominated = true;
      }
      if (!dominated) kept.push_back(std::move(frontier[i]));
    }
    frontier = std::move(kept);
  }

  void fill(graph::NodeId v) {
    const auto& kids = view_.children[v];
    for (graph::NodeId j : kids) fill(j);

    std::vector<Ent>& out = table_[v];

    // Not-selected: climbing sets of the children (lifted over their
    // up-links) merge, plus v's own demand entering the climb with a full
    // Tlat budget.
    {
      std::vector<Ent> acc(1);
      acc[0].slack = kInf;
      for (std::size_t c = 0; c < kids.size() && !acc.empty(); ++c) {
        const graph::NodeId j = kids[c];
        std::vector<Ent> next;
        for (const Ent& base : acc) {
          for (std::size_t idx = 0; idx < table_[j].size(); ++idx) {
            const Ent& e = table_[j][idx];
            if (!liftable(j, e)) continue;
            Ent merged = base;
            merged.flow += e.flow;
            merged.slack =
                std::min(merged.slack, e.slack - view_.lambda(j));
            merged.cost += e.cost;
            merged.child_idx.push_back(static_cast<std::uint32_t>(idx));
            next.push_back(std::move(merged));
          }
        }
        acc = std::move(next);
        prune(acc);
      }
      for (Ent& e : acc) {
        if (view_.demand[v]) {
          if (track_flow_) e.flow += view_.reads[v];
          e.slack = std::min(e.slack, view_.tlat);
        }
        out.push_back(std::move(e));
      }
    }

    // Selected: every climbing demand of every child is absorbed here (all
    // liftable entries qualify), and v serves itself — so a demanding node
    // whose local latency exceeds Tlat must NOT store under the closest
    // policy (the first replica found would be too far).
    if (view_.cand[v] && (!view_.demand[v] || view_.self_ok)) {
      Ent sel;
      sel.slack = kInf;
      sel.cost = view_.weight[v];
      sel.sel = 1;
      bool ok = true;
      for (graph::NodeId j : kids) {
        const std::size_t best = cheapest_liftable(j);
        if (best == SIZE_MAX) {
          ok = false;
          break;
        }
        sel.cost += table_[j][best].cost;
        sel.child_idx.push_back(static_cast<std::uint32_t>(best));
      }
      if (ok) out.push_back(std::move(sel));
    }

    prune(out);
  }

  void recon(graph::NodeId v, std::size_t idx, std::vector<char>& selected) {
    const Ent& e = table_[v][idx];
    if (e.sel) selected[v] = 1;
    WANPLACE_CHECK(e.child_idx.size() == view_.children[v].size(),
                   "closest DP back-pointer arity mismatch");
    std::size_t at = 0;
    for (graph::NodeId j : view_.children[v]) recon(j, e.child_idx[at++], selected);
  }

  const ObjectView& view_;
  const bool track_flow_;
  std::vector<std::vector<Ent>> table_;
};

// ---------------------------------------------------------------------------
// Applicability + shared setup.
// ---------------------------------------------------------------------------

// Path latency n -> m through the tree, summed in path order (mirrors the
// Dijkstra accumulation order so integer-latency instances match exactly).
double path_latency(const mcperf::LinkModel& links,
                    const std::vector<std::size_t>& depth, graph::NodeId n,
                    graph::NodeId m) {
  if (n == m) return links.local_latency_ms;
  std::vector<graph::NodeId> down;
  graph::NodeId a = n, b = m;
  while (depth[b] > depth[a]) {
    down.push_back(b);
    b = links.parent[b];
  }
  double sum = 0;
  while (depth[a] > depth[b]) {
    sum += links.up_latency_ms[a];
    a = links.parent[a];
  }
  while (a != b) {
    sum += links.up_latency_ms[a];
    down.push_back(b);
    a = links.parent[a];
    b = links.parent[b];
  }
  for (auto it = down.rbegin(); it != down.rend(); ++it)
    sum += links.up_latency_ms[*it];
  return sum;
}

void check_applicable(const Instance& instance,
                      const mcperf::ClassSpec& spec) {
  WANPLACE_REQUIRE(instance.links.has_value(),
                   "tree DP needs Instance::links");
  WANPLACE_REQUIRE(instance.interval_count() == 1,
                   "tree DP covers single-interval instances");
  const auto* qos = std::get_if<mcperf::QosGoal>(&instance.goal);
  WANPLACE_REQUIRE(qos != nullptr, "tree DP needs the QoS metric");
  const bool full_coverage =
      qos->scope == mcperf::QosScope::PerUserPerObject
          ? qos->tqos > 1e-6
          : qos->tqos >= 1.0 - 1e-12;
  WANPLACE_REQUIRE(full_coverage,
                   "tree DP needs full-coverage QoS semantics");
  WANPLACE_REQUIRE(!spec.storage && !spec.replicas,
                   "tree DP does not model provisioned capacity");
  WANPLACE_REQUIRE(instance.costs.gamma == 0 && instance.costs.zeta == 0,
                   "tree DP needs gamma = zeta = 0");
  WANPLACE_REQUIRE(spec.routing == mcperf::Routing::Global ||
                       spec.routing == mcperf::Routing::Closest,
                   "tree DP supports Global and Closest routing");
  WANPLACE_REQUIRE(instance.origin.has_value() &&
                       *instance.origin == instance.links->root(),
                   "tree DP needs the origin at the tree root");
  if (instance.has_bandwidth_caps())
    WANPLACE_REQUIRE(spec.routing == mcperf::Routing::Closest &&
                         instance.object_count() == 1,
                     "finite link capacities need Closest routing and a "
                     "single object");
  WANPLACE_REQUIRE(instance.links->tlat_ms > 0,
                   "tree DP needs a positive Tlat");
}

std::vector<std::size_t> node_depths(const mcperf::LinkModel& links) {
  std::vector<std::size_t> depth(links.parent.size(), 0);
  for (std::size_t v = 0; v < links.parent.size(); ++v) {
    graph::NodeId walk = static_cast<graph::NodeId>(v);
    while (links.parent[walk] >= 0) {
      walk = links.parent[walk];
      ++depth[v];
    }
  }
  return depth;
}

}  // namespace

TreeDpResult solve_tree_dp(const Instance& instance,
                           const mcperf::ClassSpec& spec) {
  instance.validate();
  check_applicable(instance, spec);
  const mcperf::LinkModel& links = *instance.links;
  const std::size_t n_count = instance.node_count();
  const std::size_t k_count = instance.object_count();
  const double tlat = links.tlat_ms;
  const std::vector<std::size_t> depth = node_depths(links);

  for (std::size_t n = 0; n < n_count; ++n)
    for (std::size_t m = 0; m < n_count; ++m) {
      const bool within =
          path_latency(links, depth, static_cast<graph::NodeId>(n),
                       static_cast<graph::NodeId>(m)) <= tlat;
      WANPLACE_REQUIRE(within == (instance.dist(n, m) != 0),
                       "instance.dist disagrees with the link-model path "
                       "latencies");
    }

  ObjectView view;
  view.links = &links;
  view.root = links.root();
  view.tlat = tlat;
  view.self_ok = links.local_latency_ms <= tlat;
  view.children.assign(n_count, {});
  for (std::size_t v = 0; v < n_count; ++v)
    if (links.parent[v] >= 0)
      view.children[static_cast<std::size_t>(links.parent[v])].push_back(
          static_cast<graph::NodeId>(v));

  const BoolCube allowed = mcperf::compute_create_allowed(instance, spec);
  const bool track_flow = instance.has_bandwidth_caps();

  TreeDpResult result;
  result.placement = BoolCube(n_count, 1, k_count, 0);
  result.feasible = true;
  for (std::size_t k = 0; k < k_count; ++k) {
    view.cand.assign(n_count, 0);
    view.demand.assign(n_count, 0);
    view.reads.assign(n_count, 0.0);
    view.weight.assign(n_count, 0.0);
    double writes_k = 0;
    for (std::size_t n = 0; n < n_count; ++n)
      writes_k += instance.demand.write(n, 0, k);
    for (std::size_t n = 0; n < n_count; ++n) {
      view.cand[n] = !instance.is_origin(n) && allowed(n, 0, k) ? 1 : 0;
      view.reads[n] = instance.demand.read(n, 0, k);
      view.demand[n] = view.reads[n] > 0 ? 1 : 0;
      view.weight[n] = instance.storage_alpha(n) + instance.costs.beta +
                       instance.costs.delta * writes_k;
    }

    std::vector<char> selected(n_count, 0);
    double cost = 0;
    bool feasible = false;
    if (spec.routing == mcperf::Routing::Global) {
      GlobalDp dp(view);
      feasible = dp.solve(selected, cost);
      result.states += dp.states();
    } else {
      ClosestDp dp(view, track_flow);
      feasible = dp.solve(selected, cost);
      result.states += dp.states();
    }
    if (!feasible) {
      result.feasible = false;
      result.optimum = 0;
      result.placement.fill(0);
      return result;
    }
    result.optimum += cost;
    for (std::size_t n = 0; n < n_count; ++n)
      if (selected[n]) result.placement(n, 0, k) = 1;
  }
  return result;
}

ClosestLoads closest_loads(const Instance& instance,
                           const BoolCube& placement) {
  WANPLACE_REQUIRE(instance.links.has_value(),
                   "closest_loads needs Instance::links");
  const mcperf::LinkModel& links = *instance.links;
  const std::size_t n_count = instance.node_count();
  const std::size_t i_count = instance.interval_count();
  const std::size_t k_count = instance.object_count();
  WANPLACE_REQUIRE(placement.dim_x() == n_count &&
                       placement.dim_y() == i_count &&
                       placement.dim_z() == k_count,
                   "placement dimensions mismatch");
  const double tlat = links.tlat_ms;
  ClosestLoads loads;
  loads.load.assign(n_count * i_count, 0.0);
  loads.covered = true;
  const auto stored = [&](graph::NodeId m, std::size_t i, std::size_t k) {
    return instance.is_origin(m) || placement(m, i, k) != 0;
  };
  for (std::size_t n = 0; n < n_count; ++n) {
    for (std::size_t i = 0; i < i_count; ++i) {
      for (std::size_t k = 0; k < k_count; ++k) {
        const double reads = instance.demand.read(n, i, k);
        if (reads <= 0) continue;
        graph::NodeId serve = static_cast<graph::NodeId>(n);
        double latency = links.local_latency_ms;
        double walked = 0;
        while (!stored(serve, i, k) && links.parent[serve] >= 0) {
          walked += links.up_latency_ms[serve];
          serve = links.parent[serve];
          latency = walked;
        }
        if (!stored(serve, i, k) || latency > tlat) {
          loads.covered = false;
          continue;  // unserved demand generates no flow
        }
        for (graph::NodeId walk = static_cast<graph::NodeId>(n);
             walk != serve; walk = links.parent[walk])
          loads.load[static_cast<std::size_t>(walk) * i_count + i] += reads;
      }
    }
  }
  loads.within_caps = true;
  for (std::size_t u = 0; u < n_count; ++u) {
    if (links.parent[u] < 0) continue;
    const double cap = links.up_capacity[u];
    if (!std::isfinite(cap)) continue;
    for (std::size_t i = 0; i < i_count; ++i)
      if (loads.load[u * i_count + i] > cap) loads.within_caps = false;
  }
  return loads;
}

}  // namespace wanplace::tree
