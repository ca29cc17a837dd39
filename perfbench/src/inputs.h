// Seeded input generation and the measured set-up path.
//
// Every workload runs on the WEB case-study instance at the ROADMAP's
// measured point: 8 nodes x 8 intervals x 60 objects, Tlat 150 ms, origin
// node 0. For select-q99 the seed resamples the read count of every demand
// cell of that instance (same support, so the LP shapes and with them the
// solver routing stay those of the measured point); for the serve workloads
// it draws the drift-event script. The inputs are written as topology,
// trace and events files, and set-up reads them back through the library's
// loaders, so the loaders are measured.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "mcperf/instance.h"
#include "workload/trace.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  bool serve = false;    // false: HeuristicSelector::select
  bool batched = false;  // serve through on_batch in bursts of kBurst
  double tqos = 0.9;
};

/// The workloads this benchmark knows; nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

inline constexpr double kTlatMs = 150;
inline constexpr std::size_t kIntervals = 8;
inline constexpr std::size_t kBurst = 5;

struct InputFiles {
  std::string topology;
  std::string trace;
  std::string events;  // empty for workloads without an event stream
  std::size_t event_count = 0;
};

/// Generate the seeded inputs of `spec` into `dir` (created if missing).
InputFiles write_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                        const std::string& dir);

/// Per-step wall time of one set-up, in milliseconds.
struct LoadTimes {
  double topology_ms = 0;
  double trace_ms = 0;
  double events_ms = 0;
  double aggregate_ms = 0;
};

struct Loaded {
  wanplace::mcperf::Instance instance;
  std::vector<wanplace::workload::Event> events;
};

/// The measured set-up path: load the files, aggregate the trace into
/// per-interval demand and build the MC-PERF instance at `tqos`.
Loaded load_inputs(const InputFiles& files, double tqos, LoadTimes& times);

}  // namespace perfbench
