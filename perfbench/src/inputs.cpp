#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "core/case_study.h"
#include "graph/io.h"
#include "graph/reachability.h"
#include "graph/shortest_paths.h"
#include "util/rng.h"
#include "workload/demand.h"

namespace perfbench {

namespace wp = wanplace;

const WorkloadSpec* find_workload(const std::string& name) {
  static const std::vector<WorkloadSpec> specs{
      {"select-q99", false, false, 0.99},
      {"serve-demand", true, false, 0.9},
      {"serve-churn", true, true, 0.9},
  };
  for (const auto& spec : specs)
    if (spec.name == name) return &spec;
  return nullptr;
}

namespace {

// The ROADMAP's measured point (bench/lp_solvers mcperf_instance).
wp::core::CaseStudyConfig measured_point() {
  wp::core::CaseStudyConfig config;
  config.node_count = 8;
  config.interval_count = kIntervals;
  config.object_count = 60;
  config.web_requests = 16'000;
  config.web_head_count = 6;
  config.group_requests = 1'000;  // unused; keeps generation cheap
  return config;
}

// Multiplicative read-count spread of select-q99's seeded resampling: every
// cell's count is scaled by exp(U(-kSpread, kSpread)) and rounded, at least 1.
constexpr double kSpread = 0.1;
// Drift-event script lengths: long enough that no run exhausts them at
// today's speed or at the ROADMAP's per-event targets.
constexpr std::size_t kScriptEvents = 20'000;
// serve-churn: one membership change, the same for every seed — node
// kLeaver leaves at event kLeaveAt and no event names it afterwards. Joins
// are left out, and the origin is never flapped: both push the daemon onto
// re-solves whose cost is heavy-tailed (README.md, "Known defects").
constexpr wanplace::graph::NodeId kLeaver = 7;
constexpr std::size_t kLeaveAt = 3;
// Every other perturbation is transient, so the standing state does not
// drift with the run's length or differ between seeds: 40% of the events are
// latency flaps (a pair re-measured across Tlat), the rest demand spikes (a
// cell's reads raised by U(20, 150) or cut by up to its reads); each is
// reverted kHold events later, with at most kMaxFlaps flaps and kMaxSpikes
// spikes open at once.
constexpr double kFlapShare = 0.4;
constexpr std::size_t kHold = 10;
constexpr std::size_t kMaxFlaps = 3;
constexpr std::size_t kMaxSpikes = 6;

struct Cell {
  std::size_t n, i, k;
};

wp::mcperf::Instance make_instance(const wp::graph::Topology& topology,
                                   wp::workload::Demand demand, double tqos) {
  wp::mcperf::Instance instance;
  instance.demand = std::move(demand);
  instance.latencies = wp::graph::all_pairs_latencies(topology);
  instance.dist = wp::graph::within_threshold(instance.latencies, kTlatMs);
  instance.goal = wp::mcperf::QosGoal{tqos};
  instance.origin = 0;
  instance.costs.alpha = 1;
  instance.costs.beta = 1;
  return instance;
}

// A demand delta on a cell of the starting support, so the model's row set
// stays the measured point's: growth by U(20, 150) reads with probability
// `growth`, else a cut by up to the cell's reads; 30% of events also add
// U(0, 5) writes. growth 0.7 is the drift distribution of the lp_solvers
// event replay.
wp::workload::DemandDeltaEvent demand_delta(const wp::mcperf::Instance& live,
                                            const std::vector<Cell>& support,
                                            double growth, wp::Rng& rng) {
  const Cell cell = support[rng.uniform_index(support.size())];
  wp::workload::DemandDeltaEvent event;
  event.node = static_cast<wp::graph::NodeId>(cell.n);
  event.interval = cell.i;
  event.object = static_cast<wp::workload::ObjectId>(cell.k);
  const double reads = live.demand.read(cell.n, cell.i, cell.k);
  event.read_delta = rng.bernoulli(growth) ? rng.uniform(20.0, 150.0)
                                        : -rng.uniform(0.0, reads);
  if (rng.bernoulli(0.3)) event.write_delta = rng.uniform(0.0, 5.0);
  return event;
}

std::vector<wp::workload::Event> demand_script(wp::mcperf::Instance live,
                                               const std::vector<Cell>& support,
                                               wp::Rng& rng) {
  std::vector<wp::workload::Event> events;
  events.reserve(kScriptEvents);
  for (std::size_t e = 0; e < kScriptEvents; ++e) {
    events.emplace_back(demand_delta(live, support, 0.7, rng));
    live.apply_delta(events.back(), kTlatMs);
  }
  return events;
}

/// Perturbations of the churn script that are waiting to be reverted,
/// oldest first.
struct Open {
  wp::workload::Event revert;
  std::size_t due;
};

std::vector<wp::workload::Event> churn_script(wp::mcperf::Instance live,
                                              const std::vector<Cell>& support,
                                              wp::Rng& rng) {
  std::vector<std::size_t> flap_nodes;  // never the origin nor the leaver
  for (std::size_t n = 0; n < live.node_count(); ++n)
    if (!live.is_origin(n) && n != static_cast<std::size_t>(kLeaver))
      flap_nodes.push_back(n);
  std::vector<Cell> spike_cells;
  for (const auto& cell : support)
    if (cell.n != static_cast<std::size_t>(kLeaver)) spike_cells.push_back(cell);
  std::vector<Open> flaps, spikes;
  // Pop the oldest perturbation when it is due or when too many are open.
  const auto due = [](std::vector<Open>& open, std::size_t e, std::size_t cap) {
    return !open.empty() && (open.front().due <= e || open.size() >= cap);
  };
  const auto pop = [](std::vector<Open>& open) {
    auto revert = std::move(open.front().revert);
    open.erase(open.begin());
    return revert;
  };
  const auto touched = [](const std::vector<Open>& open, const auto& same) {
    return std::any_of(open.begin(), open.end(), [&](const Open& o) {
      return same(o.revert);
    });
  };
  std::vector<wp::workload::Event> events;
  events.reserve(kScriptEvents);
  for (std::size_t e = 0; e < kScriptEvents; ++e) {
    if (e == kLeaveAt) {
      events.emplace_back(wp::workload::NodeLeaveEvent{kLeaver});
    } else if (rng.bernoulli(kFlapShare)) {
      if (due(flaps, e, kMaxFlaps)) {
        events.push_back(pop(flaps));
      } else {
        std::size_t a = 0, b = 0;
        const auto same_pair = [&](const wp::workload::Event& ev) {
          const auto& u = std::get<wp::workload::LatencyUpdateEvent>(ev);
          const auto ua = static_cast<std::size_t>(u.a);
          const auto ub = static_cast<std::size_t>(u.b);
          return (ua == a && ub == b) || (ua == b && ub == a);
        };
        do {
          a = flap_nodes[rng.uniform_index(flap_nodes.size())];
          b = flap_nodes[rng.uniform_index(flap_nodes.size())];
        } while (a == b || touched(flaps, same_pair));
        const double base_ms = live.latencies(a, b);
        const double flap_ms = base_ms <= kTlatMs
                                   ? rng.uniform(kTlatMs + 10, kTlatMs + 90)
                                   : rng.uniform(kTlatMs - 90, kTlatMs - 10);
        const auto na = static_cast<wp::graph::NodeId>(a);
        const auto nb = static_cast<wp::graph::NodeId>(b);
        flaps.push_back({wp::workload::LatencyUpdateEvent{na, nb, base_ms},
                         e + kHold});
        events.emplace_back(wp::workload::LatencyUpdateEvent{na, nb, flap_ms});
      }
    } else if (due(spikes, e, kMaxSpikes)) {
      events.push_back(pop(spikes));
    } else {
      wp::workload::DemandDeltaEvent spike;
      const auto same_cell = [&](const wp::workload::Event& ev) {
        const auto& d = std::get<wp::workload::DemandDeltaEvent>(ev);
        return d.node == spike.node && d.interval == spike.interval &&
               d.object == spike.object;
      };
      do {
        spike = demand_delta(live, spike_cells, 0.5, rng);
      } while (touched(spikes, same_cell));
      auto revert = spike;
      revert.read_delta = -spike.read_delta;
      revert.write_delta = -spike.write_delta;
      spikes.push_back({revert, e + kHold});
      events.emplace_back(spike);
    }
    live.apply_delta(events.back(), kTlatMs);
  }
  return events;
}

}  // namespace

InputFiles write_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                        const std::string& dir) {
  std::filesystem::create_directories(dir);
  const auto study = wp::core::make_case_study(measured_point());
  const auto base = wp::workload::aggregate(study.web_trace, kIntervals);

  // select-q99 resamples the counts on the measured point's support; the
  // serve workloads start from the measured point itself and take their
  // seeded variation from the event script.
  wp::Rng trace_rng(0x7ACE000000000000ULL ^ seed);
  const double duration = study.web_trace.duration_s();
  const double width = duration / static_cast<double>(kIntervals);
  std::vector<wp::workload::Request> requests;
  std::vector<Cell> support;
  for (std::size_t n = 0; n < base.node_count(); ++n)
    for (std::size_t i = 0; i < base.interval_count(); ++i)
      for (std::size_t k = 0; k < base.object_count(); ++k) {
        const double reads = base.read(n, i, k);
        if (reads <= 0) continue;
        support.push_back({n, i, k});
        const double scaled =
            spec.serve ? reads
                       : reads * std::exp(trace_rng.uniform(-kSpread, kSpread));
        const auto count = std::max<long long>(1, std::llround(scaled));
        for (long long r = 0; r < count; ++r)
          requests.push_back(
              {(static_cast<double>(i) + trace_rng.uniform(0.02, 0.98)) * width,
               static_cast<wp::graph::NodeId>(n),
               static_cast<wp::workload::ObjectId>(k), false});
      }
  const wp::workload::Trace trace(std::move(requests), duration,
                                  base.node_count(), base.object_count());

  InputFiles files;
  files.topology = dir + "/topology.txt";
  files.trace = dir + "/trace.txt";
  wp::graph::save_topology_file(study.topology, files.topology);
  trace.save_file(files.trace);
  if (!spec.serve) return files;

  wp::Rng event_rng(0xE7E7000000000000ULL ^ seed);
  auto live = make_instance(study.topology,
                            wp::workload::aggregate(trace, kIntervals),
                            spec.tqos);
  const auto events = spec.batched
                          ? churn_script(std::move(live), support, event_rng)
                          : demand_script(std::move(live), support, event_rng);
  files.events = dir + "/events.txt";
  files.event_count = events.size();
  wp::workload::save_events_file(events, files.events);
  return files;
}

Loaded load_inputs(const InputFiles& files, double tqos, LoadTimes& times) {
  Timer topology_timer;
  const auto topology = wp::graph::load_topology_file(files.topology);
  times.topology_ms = topology_timer.ms();

  Timer trace_timer;
  const auto trace = wp::workload::Trace::load_file(files.trace);
  times.trace_ms = trace_timer.ms();

  Loaded loaded;
  Timer events_timer;
  if (!files.events.empty())
    loaded.events = wp::workload::load_events_file(files.events);
  times.events_ms = events_timer.ms();
  if (loaded.events.size() != files.event_count)
    throw std::runtime_error("events file read back " +
                             std::to_string(loaded.events.size()) +
                             " events, wrote " +
                             std::to_string(files.event_count));

  Timer aggregate_timer;
  auto demand = wp::workload::aggregate(trace, kIntervals);
  times.aggregate_ms = aggregate_timer.ms();

  loaded.instance = make_instance(topology, std::move(demand), tqos);
  return loaded;
}

}  // namespace perfbench
