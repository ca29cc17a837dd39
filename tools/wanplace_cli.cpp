// wanplace_cli — run the paper's methodology on files from your system.
//
//   wanplace_cli gen-example --out DIR
//       Write a sample topology + trace pair to experiment with.
//       --gen as-like (default) takes --nodes (>= 2); --gen tree builds a
//       hierarchical topology from --depth/--fanout (>= 1) and
//       --level-latency (> 0) [--level-bandwidth CAP >= 0 to cap every
//       link, 0 = uncapped; --jitter F in [0, 1) for latency jitter].
//       --objects (>= 1) and --requests (>= --objects) shape the trace.
//       Tree topologies loaded by the commands below
//       automatically carry the link model that enables --class closest
//       and per-link bandwidth capacity rows.
//
//   wanplace_cli select --topology T --trace R [options]
//       Section 6.1: class lower bounds + heuristic recommendation.
//
//   wanplace_cli plan --topology T --trace R [--zeta 10000] [options]
//       (--zeta >= 0 is the cost of opening one site)
//       Section 6.2: pick deployment sites, then the heuristic.
//
//   wanplace_cli bound --class NAME --topology T --trace R [options]
//       Lower bound for one heuristic class.
//
//   wanplace_cli serve --topology T --trace R --events E [options]
//       Continuous re-placement replay: run the placement daemon over a
//       drift-event stream (demand deltas, node join/leave, latency
//       updates; gen-example writes a sample events.txt). The LP is
//       delta-patched and warm-started per event; a new plan is published
//       only when it beats the incumbent by --margin (default 0.01, must
//       be >= 0) or the incumbent turned infeasible. --class NAME (default general),
//       --max-events N to truncate the stream. --batch N folds every N
//       consecutive events into one atomic mutation + model patch + warm
//       re-solve (a batch with any invalid event is rejected whole;
//       applied + rejected still counts per event).
//       --metrics-out FILE [--metrics-format prom|jsonl] exports service
//       metrics after every event: `prom` rewrites FILE with the current
//       Prometheus text exposition (scrape-style), `jsonl` appends one
//       {"type":"point",...} line per event (regret, bound, pivots, stage
//       seconds) and the final metric snapshot (validated by
//       tools/validate_metrics.py). The end-of-replay status line reports
//       the daemon health snapshot (incumbent cost, regret vs the bound,
//       staleness, rebuild/basis-drop totals).
//
// Common options:
//   --tqos 0.99        QoS target in (0, 1]: fraction of reads within --tlat
//   --tlat 150         latency threshold in ms (must be > 0)
//   --intervals 24     evaluation intervals over the trace horizon (>= 1)
//   --origin 0         origin/headquarters node id, below the node count
//   --scope per-user | overall | per-object | per-user-object
//   --solver auto | simplex | dual | pdhg    the LP solver. auto (default)
//                      runs the exact simplex on every LP under a fixed
//                      work budget (pivots x LP size, ~1.2 s of pivoting)
//                      and re-solves with PDHG when the budget runs out;
//                      the report names the solver ("simplex->pdhg" after
//                      a fallback, "(iteration cap)" when PDHG stopped
//                      early). simplex, dual and pdhg force one solver
//                      (dual = dual simplex; falls back to primal when no
//                      dual-feasible start exists); the simplex then has
//                      no budget. Every PDHG solve runs at most a fixed
//                      work budget of iterations x LP size, so the same
//                      inputs always print the same report
//
// Telemetry (select, plan, bound and serve):
//   --trace-out FILE   write solver telemetry as JSONL (spans, samples,
//                      metrics; schema in src/obs/trace.h — note --trace is
//                      the *workload* trace input, not this)
//   --trace-summary    print the aggregated span tree to stdout
//
// Sensitivity (select and bound):
//   --report           print per-solve sensitivity reports with QoS-row
//                      shadow prices ("class SC pays 0.42/unit of Tqos
//                      slack")
//
// Every command rejects a flag it does not take ("error: select: unknown
// flag --tqso"), so a typo never runs silently with the default.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/planner.h"
#include "core/selector.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/reachability.h"
#include "graph/shortest_paths.h"
#include "mcperf/builder.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/solve_report.h"
#include "obs/trace.h"
#include "service/daemon.h"
#include "tree/family.h"
#include "util/check.h"
#include "util/line_reader.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace {

using namespace wanplace;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  // Numeric flags parse the whole token: a typo such as "0.5x" or "abc"
  // is an error naming the flag, never a silent prefix.
  double get_double(const std::string& key, double fallback) const {
    if (!has(key)) return fallback;
    if (const auto value = parse_number(get(key, ""))) return *value;
    reject(key, "a number");
  }
  std::size_t get_size(const std::string& key, std::size_t fallback) const {
    if (!has(key)) return fallback;
    if (const auto value = parse_integer<std::size_t>(get(key, "")))
      return *value;
    reject(key, "a non-negative integer");
  }
  [[noreturn]] void reject(const std::string& key,
                           const std::string& expected) const {
    throw Error("--" + key + ": expected " + expected + ", got '" +
                get(key, "") + "'");
  }
  bool has(const std::string& key) const { return options.count(key) > 0; }
};

/// Reject any flag the command does not take. Every command but
/// gen-example loads an instance, so it takes the load and telemetry flags
/// on top of its own.
void check_flags(const Args& args) {
  static const std::set<std::string> kLoad = {
      "topology", "trace", "tqos", "tlat", "intervals", "origin", "scope",
      "solver"};
  static const std::set<std::string> kTelemetry = {"trace-out",
                                                   "trace-summary"};
  static const std::map<std::string, std::set<std::string>> kOwn = {
      {"gen-example",
       {"out", "seed", "gen", "nodes", "depth", "fanout", "level-latency",
        "jitter", "level-bandwidth", "objects", "requests"}},
      {"select", {"report"}},
      {"plan", {"zeta"}},
      {"bound", {"class", "report"}},
      {"serve",
       {"events", "max-events", "batch", "class", "margin", "metrics-out",
        "metrics-format"}}};
  const auto own = kOwn.find(args.command);
  if (own == kOwn.end()) return;  // unknown command: main prints usage
  const bool loads = args.command != "gen-example";
  for (const auto& option : args.options) {
    const std::string& flag = option.first;
    if (own->second.count(flag) ||
        (loads && (kLoad.count(flag) || kTelemetry.count(flag))))
      continue;
    throw Error(args.command + ": unknown flag --" + flag);
  }
}

Args parse(int argc, char** argv) {
  // Flags that take no value.
  static const std::set<std::string> kSwitches = {"report", "trace-summary"};
  Args args;
  if (argc < 2) return args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0)
      throw Error("expected --flag, got '" + flag + "'");
    flag.erase(0, 2);
    if (kSwitches.count(flag)) {
      args.options[flag] = "1";
      continue;
    }
    if (i + 1 >= argc) throw Error("missing value for --" + flag);
    args.options[flag] = argv[++i];
  }
  check_flags(args);
  return args;
}

mcperf::QosScope parse_scope(const std::string& name) {
  if (name == "per-user") return mcperf::QosScope::PerUser;
  if (name == "overall") return mcperf::QosScope::Overall;
  if (name == "per-object") return mcperf::QosScope::PerObject;
  if (name == "per-user-object") return mcperf::QosScope::PerUserPerObject;
  throw Error("unknown scope '" + name + "'");
}

mcperf::ClassSpec parse_class(const std::string& name) {
  for (const auto& spec :
       {mcperf::classes::general(), mcperf::classes::storage_constrained(),
        mcperf::classes::replica_constrained(),
        mcperf::classes::replica_constrained_per_object(),
        mcperf::classes::decentralized_local_routing(),
        mcperf::classes::caching(), mcperf::classes::cooperative_caching(),
        mcperf::classes::neighborhood_caching(),
        mcperf::classes::caching_with_prefetching(),
        mcperf::classes::cooperative_caching_with_prefetching(),
        mcperf::classes::reactive(), mcperf::classes::closest()}) {
    if (spec.name == name) return spec;
  }
  throw Error("unknown class '" + name + "' (try: general, "
              "storage-constrained, replica-constrained, caching, "
              "coop-caching, closest, ...)");
}

struct Loaded {
  graph::Topology topology;
  graph::LatencyMatrix latencies;
  mcperf::Instance instance;
};

Loaded load(const Args& args) {
  const std::string topology_path = args.get("topology", "");
  const std::string trace_path = args.get("trace", "");
  WANPLACE_REQUIRE(!topology_path.empty() && !trace_path.empty(),
                   "--topology and --trace are required");
  Loaded loaded{graph::load_topology_file(topology_path), {}, {}};
  loaded.latencies = graph::all_pairs_latencies(loaded.topology);

  const auto trace = workload::Trace::load_file(trace_path);
  const std::size_t nodes = loaded.topology.node_count();
  if (trace.node_count() != nodes)
    throw Error("trace and topology node counts differ: " + trace_path +
                " vs " + topology_path);

  // Range checks name the flag before an Instance precondition can fire.
  const double tlat = args.get_double("tlat", 150);
  if (tlat <= 0) args.reject("tlat", "a positive number");
  const double tqos = args.get_double("tqos", 0.99);
  if (!(tqos > 0 && tqos <= 1)) args.reject("tqos", "a number in (0, 1]");
  const auto intervals = args.get_size("intervals", 24);
  if (intervals < 1) args.reject("intervals", "a positive integer");
  const auto origin = parse_integer<graph::NodeId>(args.get("origin", "0"));
  if (!origin || *origin < 0 || static_cast<std::size_t>(*origin) >= nodes)
    args.reject("origin", "a node id below " + std::to_string(nodes));
  loaded.instance.demand = workload::aggregate(trace, intervals);
  loaded.instance.dist = graph::within_threshold(loaded.latencies, tlat);
  loaded.instance.latencies = loaded.latencies;
  loaded.instance.goal =
      mcperf::QosGoal{tqos, parse_scope(args.get("scope", "per-user"))};
  loaded.instance.origin = *origin;
  // Tree topologies get the hierarchical link model (parents, up-link
  // latencies and bandwidth caps) rooted at the origin — required by the
  // closest class and by the per-link capacity rows on capped topologies.
  if (tree::is_tree(loaded.topology))
    loaded.instance.links =
        tree::extract_links(loaded.topology, *loaded.instance.origin, tlat);
  return loaded;
}

bounds::BoundOptions bound_options(const Args& args) {
  bounds::BoundOptions options;
  const std::string solver = args.get("solver", "auto");
  if (solver == "simplex") {
    options.solver = bounds::BoundOptions::Solver::Simplex;
  } else if (solver == "dual") {
    // Dual simplex for every solve (falls back to the cold primal when no
    // dual-feasible start exists; see SimplexOptions::Method).
    options.solver = bounds::BoundOptions::Solver::Simplex;
    options.simplex.method = lp::SimplexOptions::Method::Dual;
  } else if (solver == "pdhg") {
    options.solver = bounds::BoundOptions::Solver::Pdhg;
  } else if (solver != "auto") {
    throw Error("unknown solver '" + solver + "' (auto|simplex|dual|pdhg)");
  }
  return options;
}

/// Turn on the telemetry layer when any telemetry flag asks for output.
void telemetry_begin(const Args& args) {
  if (args.get("trace-out", "").empty() && !args.has("trace-summary") &&
      !args.has("report") && args.get("metrics-out", "").empty())
    return;
  obs::Registry::global().enable(true);
  obs::Tracer::global().enable(true);
}

/// Flush telemetry outputs after the command body ran.
void telemetry_end(const Args& args) {
  const std::string path = args.get("trace-out", "");
  if (!path.empty()) {
    std::ofstream out(path);
    WANPLACE_REQUIRE(out.good(), "cannot open --trace-out file");
    obs::Tracer::global().write_jsonl(out);
    std::cout << "telemetry trace written to " << path << "\n";
  }
  if (args.has("trace-summary"))
    std::cout << "\n" << obs::Tracer::global().summary();
}

int cmd_gen_example(const Args& args) {
  const std::string out = args.get("out", "wanplace-example");

  Rng rng(args.get_size("seed", 42));
  graph::Topology topology;
  const std::string gen = args.get("gen", "as-like");
  if (gen == "tree") {
    // Hierarchical CDN-style topology: --depth/--fanout shape, one link
    // latency per level via --level-latency (last repeats), optional
    // per-level bandwidth caps via --level-bandwidth (0 = uncapped).
    graph::TreeParams params;
    params.depth = args.get_size("depth", 3);
    if (params.depth < 1) args.reject("depth", "a positive integer");
    params.fanout = args.get_size("fanout", 2);
    if (params.fanout < 1) args.reject("fanout", "a positive integer");
    params.level_latency_ms = {args.get_double("level-latency", 100)};
    if (params.level_latency_ms.front() <= 0)
      args.reject("level-latency", "a positive number");
    params.latency_jitter = args.get_double("jitter", 0);
    if (!(params.latency_jitter >= 0 && params.latency_jitter < 1))
      args.reject("jitter", "a number in [0, 1)");
    const double bandwidth = args.get_double("level-bandwidth", 0);
    if (bandwidth < 0) args.reject("level-bandwidth", "a non-negative number");
    if (bandwidth > 0) params.level_bandwidth = {bandwidth};
    topology = graph::tree(params, rng);
  } else if (gen == "as-like") {
    graph::AsLikeParams params;
    params.node_count = args.get_size("nodes", 12);
    if (params.node_count < 2) args.reject("nodes", "an integer >= 2");
    topology = graph::as_like(params, rng);
  } else {
    throw Error("unknown generator '" + gen + "' (as-like|tree)");
  }

  workload::WebParams web;
  web.shape.node_count = topology.node_count();
  web.shape.object_count = args.get_size("objects", 60);
  if (web.shape.object_count < 1) args.reject("objects", "a positive integer");
  web.shape.request_count = args.get_size("requests", 20'000);
  if (web.shape.request_count < web.shape.object_count)
    args.reject("requests", "at least one request per object (>= " +
                                std::to_string(web.shape.object_count) + ")");
  web.shape.interval_weights = workload::diurnal_interval_weights(24);
  const auto trace = workload::generate_web(web, rng);
  std::filesystem::create_directories(out);
  graph::save_topology_file(topology, out + "/topology.txt");
  trace.save_file(out + "/trace.txt");

  // Drift-event stream for `serve`: seeded demand perturbations, plus a
  // join / latency-update / leave episode on general topologies. Tree
  // topologies carry a link model whose node set is fixed, so they get
  // demand drift only. Intervals are drawn below 6 so the stream replays
  // under any --intervals >= 6.
  std::vector<workload::Event> events;
  const auto demand_event = [&] {
    workload::DemandDeltaEvent event;
    event.node = static_cast<graph::NodeId>(
        rng.uniform_index(topology.node_count()));
    event.interval = rng.uniform_index(6);
    event.object = static_cast<workload::ObjectId>(
        rng.uniform_index(web.shape.object_count));
    event.read_delta = rng.uniform(0.5, 4.0);
    event.write_delta = rng.bernoulli(0.3) ? rng.uniform(0.0, 1.0) : 0.0;
    events.push_back(event);
  };
  for (int i = 0; i < 6; ++i) demand_event();
  if (gen != "tree") {
    const auto fresh = static_cast<graph::NodeId>(topology.node_count());
    events.push_back(workload::NodeJoinEvent{120.0, {{0, 80.0}}});
    demand_event();
    demand_event();
    events.push_back(workload::LatencyUpdateEvent{fresh, 1, 90.0});
    events.push_back(workload::NodeLeaveEvent{fresh});
  }
  // One deliberately malformed event (unknown node): the daemon rejects it
  // atomically but still consumes its event index, so replays exercise the
  // rejection path and the applied/rejected counter split.
  {
    workload::DemandDeltaEvent bad;
    bad.node = static_cast<graph::NodeId>(topology.node_count() + 7);
    bad.interval = 0;
    bad.object = 0;
    bad.read_delta = 1.0;
    events.push_back(bad);
  }
  demand_event();
  demand_event();
  workload::save_events_file(events, out + "/events.txt");

  std::cout << "wrote " << out << "/topology.txt ("
            << topology.summary() << ")\n"
            << "wrote " << out << "/trace.txt (" << trace.read_count()
            << " reads over " << web.shape.object_count << " objects)\n"
            << "wrote " << out << "/events.txt (" << events.size()
            << " drift events)\n"
            << "try: wanplace_cli select --topology " << out
            << "/topology.txt --trace " << out << "/trace.txt\n";
  return 0;
}

int cmd_serve(const Args& args) {
  telemetry_begin(args);
  const auto loaded = load(args);
  const std::string events_path = args.get("events", "");
  WANPLACE_REQUIRE(!events_path.empty(), "--events is required");
  auto events = workload::load_events_file(events_path);
  const std::size_t max_events = args.get_size("max-events", events.size());
  if (events.size() > max_events) events.resize(max_events);
  // --batch N folds every N consecutive events into one atomic instance
  // mutation + model patch + warm re-solve (one publish decision per
  // burst); 1 replays event by event.
  const std::size_t batch_size = args.get_size("batch", 1);
  if (batch_size < 1) args.reject("batch", "a positive integer");

  service::DaemonOptions options;
  options.spec = parse_class(args.get("class", "general"));
  options.bounds = bound_options(args);
  options.policy.min_relative_gain = args.get_double("margin", 0.01);
  if (options.policy.min_relative_gain < 0)
    args.reject("margin", "a non-negative number");
  options.tlat_ms = args.get_double("tlat", 150);
  service::PlacementDaemon daemon(loaded.instance, options);

  // Metric export, flushed after every event. Prometheus rewrites the file
  // with the current exposition (what a scraper would see); JSONL is an
  // append-only stream of per-event points closed with a metric snapshot.
  const std::string metrics_path = args.get("metrics-out", "");
  const auto format_name = args.get("metrics-format", "prom");
  const auto metrics_format = obs::parse_metrics_format(format_name);
  WANPLACE_REQUIRE(metrics_format.has_value(),
                   "unknown --metrics-format (prom|jsonl)");
  std::ofstream metrics_stream;
  if (!metrics_path.empty() &&
      *metrics_format == obs::MetricsFormat::Jsonl) {
    metrics_stream.open(metrics_path);
    WANPLACE_REQUIRE(metrics_stream.good(),
                     "cannot open --metrics-out file");
    obs::write_jsonl_header(metrics_stream);
  }
  const auto flush_metrics = [&] {
    if (metrics_path.empty()) return;
    if (*metrics_format == obs::MetricsFormat::Prometheus) {
      std::ofstream out(metrics_path);
      WANPLACE_REQUIRE(out.good(), "cannot open --metrics-out file");
      obs::write_prometheus(out, obs::Registry::global().snapshot(),
                            &daemon.series());
      return;
    }
    const auto points = daemon.series().points();
    if (!points.empty())
      obs::write_point_jsonl(metrics_stream, points.back());
    metrics_stream.flush();
  };

  std::size_t pivots = 0;
  const auto report = [&](const service::EventOutcome& outcome) {
    std::cout << "event " << outcome.index << " [" << outcome.kind << "] ";
    if (outcome.rejected) {
      std::cout << "rejected: " << outcome.error << "\n";
      flush_metrics();
      return;
    }
    pivots += outcome.pivots;
    std::cout << (outcome.incremental ? "incremental" : "rebuild")
              << (outcome.warm ? "+warm" : "") << " bound "
              << format_number(outcome.lower_bound, 1) << " ("
              << bounds::to_string(outcome.solver) << ") pivots "
              << outcome.pivots << " -> "
              << (outcome.published ? "publish" : "hold") << " ("
              << outcome.reason << ")";
    if (outcome.audit.exists && outcome.audit.bound_certified)
      std::cout << " regret "
                << format_number(outcome.audit.relative_regret * 100, 1)
                << "%";
    std::cout << "\n";
    flush_metrics();
  };

  report(daemon.start());
  if (batch_size <= 1) {
    for (const auto& event : events) report(daemon.on_event(event));
  } else {
    for (std::size_t start = 0; start < events.size(); start += batch_size) {
      const auto last = std::min(events.size(), start + batch_size);
      report(daemon.on_batch(workload::EventBatch(
          events.begin() + static_cast<std::ptrdiff_t>(start),
          events.begin() + static_cast<std::ptrdiff_t>(last))));
    }
  }

  // Event-level accounting from the status counters (a rejected batch
  // counts each of its events; the start() build is not a drift rebuild).
  const service::DaemonStatus counts = daemon.status();
  std::cout << "served " << counts.events << " events: "
            << counts.incremental << " incremental, "
            << counts.rebuilds - 1 << " rebuilds, "
            << counts.rejected << " rejected, " << daemon.publishes()
            << " publishes, " << pivots << " total pivots\n";
  if (daemon.has_plan())
    std::cout << "live plan cost "
              << format_number(daemon.published_cost(), 1) << "\n";
  const service::DaemonStatus status = daemon.status();
  std::cout << "status: plan=" << (status.has_plan ? "yes" : "no")
            << " incumbent " << format_number(status.incumbent_cost, 1)
            << " bound " << format_number(status.lower_bound, 1)
            << " regret " << format_number(status.relative_regret * 100, 1)
            << "% stale " << status.events_since_publish << " (last: "
            << (status.last_reason.empty() ? "none" : status.last_reason)
            << ", rebuilds " << status.rebuilds << ", basis drops "
            << status.basis_drops << ")\n";
  if (!metrics_path.empty() &&
      *metrics_format == obs::MetricsFormat::Jsonl) {
    obs::write_snapshot_jsonl(metrics_stream,
                              obs::Registry::global().snapshot());
    metrics_stream.flush();
  }
  if (!metrics_path.empty())
    std::cout << "metrics written to " << metrics_path << " ("
              << obs::to_string(*metrics_format) << ")\n";
  telemetry_end(args);
  std::cout << "replay complete\n";
  return 0;
}

int cmd_select(const Args& args) {
  telemetry_begin(args);
  const auto loaded = load(args);
  core::SelectorOptions options;
  options.bounds = bound_options(args);
  options.keep_details = args.has("report");
  const auto report =
      core::HeuristicSelector(options).select(loaded.instance);
  std::cout << report.to_table().to_ascii() << "\n";
  if (report.has_recommendation()) {
    std::cout << "recommended class: "
              << report.recommended_bound().class_name << "\n"
              << "suggested heuristic: " << report.suggestion << "\n"
              << "bound vs general floor: "
              << format_number(report.optimality_ratio, 3) << "x\n";
  } else {
    std::cout << "no candidate class can meet this goal.\n";
  }
  if (args.has("report")) {
    std::cout << "\nsensitivity report (duals on the QoS rows; shadow price "
                 "= d(cost)/d(tqos)):\n";
    for (const auto& detail : report.details)
      std::cout << obs::to_string(obs::make_solve_report(detail));
  }
  telemetry_end(args);
  return 0;
}

int cmd_plan(const Args& args) {
  telemetry_begin(args);
  const auto loaded = load(args);
  core::PlannerOptions options;
  options.zeta = args.get_double("zeta", 10'000);
  if (options.zeta < 0) args.reject("zeta", "a non-negative number");
  options.bounds = bound_options(args);
  const auto plan = core::DeploymentPlanner(options).plan(loaded.instance);
  std::cout << "deploy " << plan.open_nodes.size() << " nodes:";
  for (const auto node : plan.open_nodes) std::cout << ' ' << node;
  std::cout << "\nassignment:";
  for (std::size_t n = 0; n < plan.assignment.size(); ++n)
    std::cout << ' ' << n << "->" << plan.assignment[n];
  std::cout << "\nphase-1 bound " << format_number(plan.phase1_lower_bound, 1)
            << " (" << bounds::to_string(plan.phase1_solver)
            << "), phase-2 bound " << format_number(plan.phase2_lower_bound, 1)
            << " (" << bounds::to_string(plan.phase2_solver) << ")";
  std::cout << "\n\n" << plan.selection.to_table().to_ascii() << "\n";
  if (plan.selection.has_recommendation())
    std::cout << "suggested heuristic: " << plan.selection.suggestion
              << "\n";
  telemetry_end(args);
  return 0;
}

int cmd_bound(const Args& args) {
  telemetry_begin(args);
  const auto loaded = load(args);
  const auto spec = parse_class(args.get("class", "general"));
  const auto detail =
      bounds::compute_bound_detail(loaded.instance, spec, bound_options(args));
  const auto& bound = detail.bound;
  std::cout << "class " << spec.name << ": ";
  if (!bound.achievable) {
    std::cout << "cannot meet the goal (max achievable QoS "
              << format_number(bound.max_achievable_qos * 100, 4) << "%)\n";
    telemetry_end(args);
    return 0;
  }
  std::cout << "lower bound " << format_number(bound.lower_bound, 1);
  if (bound.rounded_feasible)
    std::cout << ", feasible placement at "
              << format_number(bound.rounded_cost, 1) << " (gap "
              << format_number(bound.gap * 100, 1) << "%)";
  std::cout << " [" << bound.lp_rows << " rows, "
            << bounds::to_string(bound.solver) << ", "
            << format_number(bound.solve_seconds, 1) << "s]\n";
  if (args.has("report")) {
    std::cout << "\nsensitivity report (duals on the QoS rows; shadow price "
                 "= d(cost)/d(tqos)):\n"
              << obs::to_string(obs::make_solve_report(detail));
  }
  telemetry_end(args);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.command == "gen-example") return cmd_gen_example(args);
    if (args.command == "select") return cmd_select(args);
    if (args.command == "plan") return cmd_plan(args);
    if (args.command == "bound") return cmd_bound(args);
    if (args.command == "serve") return cmd_serve(args);
    std::cerr << "usage: wanplace_cli <gen-example|select|plan|bound|serve> "
                 "[--flag value ...]\n(see the header of tools/"
                 "wanplace_cli.cpp for details)\n";
    return args.command.empty() ? 1 : 2;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
