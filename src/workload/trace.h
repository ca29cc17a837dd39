// Access traces: the raw workload consumed by the simulator and aggregated
// into per-interval demand for the MC-PERF model.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "graph/topology.h"

namespace wanplace::workload {

using ObjectId = std::int32_t;

/// One data access: `node` requests `object` at `time_s` seconds from the
/// start of the trace.
struct Request {
  double time_s = 0;
  graph::NodeId node = 0;
  ObjectId object = 0;
  bool is_write = false;
};

/// A time-ordered sequence of requests over a fixed horizon.
class Trace {
 public:
  Trace() = default;

  /// Takes ownership of requests; sorts them by time. All requests must lie
  /// in [0, duration_s) and reference valid node/object ids.
  Trace(std::vector<Request> requests, double duration_s,
        std::size_t node_count, std::size_t object_count);

  const std::vector<Request>& requests() const { return requests_; }
  double duration_s() const { return duration_s_; }
  std::size_t node_count() const { return node_count_; }
  std::size_t object_count() const { return object_count_; }

  std::size_t read_count() const { return read_count_; }
  std::size_t write_count() const { return requests_.size() - read_count_; }

  /// Number of reads of the most / least read object (0 if unread).
  std::size_t max_object_reads() const;
  std::size_t min_object_reads() const;

  /// Re-home every request according to `node_mapping` (old node id -> new
  /// node id) into a trace over `new_node_count` nodes. Used by the
  /// deployment scenario where users of closed sites are served by their
  /// assigned open node.
  Trace remap_nodes(const std::vector<graph::NodeId>& node_mapping,
                    std::size_t new_node_count) const;

  /// Plain text serialization: one "time node object r|w" line per request,
  /// preceded by a header line "wanplace-trace v1 <duration> <N> <K>".
  /// A request's node and object lie below N and K, its time in
  /// [0, duration). The grammar is the one graph/io.h states.
  void save(std::ostream& out) const;
  static Trace load(std::istream& in, const std::string& source = "trace");
  void save_file(const std::string& path) const;
  static Trace load_file(const std::string& path);

 private:
  std::vector<Request> requests_;
  double duration_s_ = 0;
  std::size_t node_count_ = 0;
  std::size_t object_count_ = 0;
  std::size_t read_count_ = 0;
};

// ---------------------------------------------------------------------------
// Drift events: the input stream of the continuous re-placement service.
//
// Each event describes one change to a live MC-PERF instance between two
// re-optimization points. Demand deltas perturb one (node, interval, object)
// cell; topology events join, tombstone or re-measure nodes. Events are
// applied by `mcperf::Instance::apply_delta` (which validates them against
// the current instance) and mirrored into an existing LP by
// `mcperf::apply_delta` so the solver can warm-start instead of rebuilding.

/// Additive change to the read/write counts of one demand cell. The
/// resulting counts must stay non-negative.
struct DemandDeltaEvent {
  graph::NodeId node = 0;
  std::size_t interval = 0;
  ObjectId object = 0;
  double read_delta = 0;
  double write_delta = 0;
};

/// A new node joins with no demand and no stored replicas. Its latency to
/// every existing node defaults to `default_latency_ms`, selectively
/// overridden per neighbor; reachability is re-thresholded against Tlat.
struct NodeJoinEvent {
  double default_latency_ms = 100;
  /// (existing node, symmetric latency in ms) overrides.
  std::vector<std::pair<graph::NodeId, double>> latency_overrides;
};

/// A node leaves: its demand is dropped and it can neither serve nor be
/// served within Tlat (dist row and column zeroed). The id is tombstoned,
/// not recycled, so later events keep stable indices.
struct NodeLeaveEvent {
  graph::NodeId node = 0;
};

/// A re-measured symmetric latency between two existing nodes;
/// reachability between them is re-thresholded against Tlat.
struct LatencyUpdateEvent {
  graph::NodeId a = 0;
  graph::NodeId b = 0;
  double latency_ms = 100;
};

using Event =
    std::variant<DemandDeltaEvent, NodeJoinEvent, NodeLeaveEvent,
                 LatencyUpdateEvent>;

/// A burst of drift events folded into one re-optimization point: the
/// daemon applies a batch as one instance mutation + one model patch + one
/// warm re-solve. Validation is atomic — any invalid event rejects the
/// whole batch before the instance, model, or plan is touched.
using EventBatch = std::vector<Event>;

/// Short lower-case tag for logs and replay output ("demand", "join",
/// "leave", "latency").
const char* event_kind(const Event& event);

/// Plain text serialization, one event per line after a
/// "wanplace-events v1" header:
///   demand <node> <interval> <object> <read_delta> <write_delta>
///   join <default_latency_ms> [<node>:<latency_ms> ...]
///   leave <node>
///   latency <a> <b> <latency_ms>
/// in the grammar graph/io.h states: '#' comments, whole tokens, ids in
/// their type's range (NodeId, ObjectId, std::size_t), finite numbers and
/// errors "<source>:<line>: <message> '<token>'".
void save_events(const std::vector<Event>& events, std::ostream& out);
std::vector<Event> load_events(std::istream& in,
                               const std::string& source = "events");
void save_events_file(const std::vector<Event>& events,
                      const std::string& path);
std::vector<Event> load_events_file(const std::string& path);

}  // namespace wanplace::workload
