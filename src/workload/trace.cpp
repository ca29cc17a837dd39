#include "workload/trace.h"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "util/check.h"
#include "util/line_reader.h"

namespace wanplace::workload {

Trace::Trace(std::vector<Request> requests, double duration_s,
             std::size_t node_count, std::size_t object_count)
    : requests_(std::move(requests)),
      duration_s_(duration_s),
      node_count_(node_count),
      object_count_(object_count) {
  WANPLACE_REQUIRE(duration_s > 0, "trace duration must be positive");
  WANPLACE_REQUIRE(node_count > 0 && object_count > 0,
                   "trace needs nodes and objects");
  for (const auto& req : requests_) {
    WANPLACE_REQUIRE(req.time_s >= 0 && req.time_s < duration_s_,
                     "request time outside trace horizon");
    WANPLACE_REQUIRE(
        req.node >= 0 && static_cast<std::size_t>(req.node) < node_count_,
        "request node out of range");
    WANPLACE_REQUIRE(req.object >= 0 &&
                         static_cast<std::size_t>(req.object) < object_count_,
                     "request object out of range");
    if (!req.is_write) ++read_count_;
  }
  std::stable_sort(
      requests_.begin(), requests_.end(),
      [](const Request& a, const Request& b) { return a.time_s < b.time_s; });
}

std::size_t Trace::max_object_reads() const {
  std::vector<std::size_t> counts(object_count_, 0);
  for (const auto& req : requests_)
    if (!req.is_write) ++counts[req.object];
  return counts.empty() ? 0 : *std::max_element(counts.begin(), counts.end());
}

std::size_t Trace::min_object_reads() const {
  std::vector<std::size_t> counts(object_count_, 0);
  for (const auto& req : requests_)
    if (!req.is_write) ++counts[req.object];
  return counts.empty() ? 0 : *std::min_element(counts.begin(), counts.end());
}

Trace Trace::remap_nodes(const std::vector<graph::NodeId>& node_mapping,
                         std::size_t new_node_count) const {
  WANPLACE_REQUIRE(node_mapping.size() == node_count_,
                   "mapping arity mismatch");
  std::vector<Request> remapped(requests_);
  for (auto& req : remapped) {
    req.node = node_mapping[static_cast<std::size_t>(req.node)];
    WANPLACE_REQUIRE(req.node >= 0 &&
                         static_cast<std::size_t>(req.node) < new_node_count,
                     "mapping target out of range");
  }
  return Trace(std::move(remapped), duration_s_, new_node_count,
               object_count_);
}

void Trace::save(std::ostream& out) const {
  out.precision(17);  // round-trippable doubles
  out << "wanplace-trace v1 " << duration_s_ << ' ' << node_count_ << ' '
      << object_count_ << '\n';
  for (const auto& req : requests_)
    out << req.time_s << ' ' << req.node << ' ' << req.object << ' '
        << (req.is_write ? 'w' : 'r') << '\n';
}

Trace Trace::load(std::istream& in, const std::string& source) {
  LineReader reader(in, source);
  reader.header("wanplace-trace", "wanplace trace stream");
  const double duration = reader.number("duration");
  reader.check(duration > 0, "duration must be positive, got");
  const auto nodes = reader.integer<graph::NodeId>("node count", 1);
  const auto objects = reader.integer<ObjectId>("object count", 1);
  reader.end();
  std::vector<Request> requests;
  while (reader.next()) {
    Request req{reader.number("time")};
    reader.check(req.time_s >= 0 && req.time_s < duration,
                 "time is outside the trace horizon, got");
    req.node = reader.integer<graph::NodeId>("node", 0, nodes - 1);
    req.object = reader.integer<ObjectId>("object", 0, objects - 1);
    const auto kind = reader.word("kind");
    reader.check(kind == "r" || kind == "w", "bad request kind");
    req.is_write = kind == "w";
    reader.end();
    requests.push_back(req);
  }
  return Trace(std::move(requests), duration, nodes, objects);
}

void Trace::save_file(const std::string& path) const {
  std::ofstream file(path);
  if (!file) throw Error("cannot open " + path + " for writing");
  save(file);
  if (!file) throw Error("failed writing " + path);
}

Trace Trace::load_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw Error("cannot open " + path);
  return load(file, path);
}

const char* event_kind(const Event& event) {
  struct Kind {
    const char* operator()(const DemandDeltaEvent&) const { return "demand"; }
    const char* operator()(const NodeJoinEvent&) const { return "join"; }
    const char* operator()(const NodeLeaveEvent&) const { return "leave"; }
    const char* operator()(const LatencyUpdateEvent&) const {
      return "latency";
    }
  };
  return std::visit(Kind{}, event);
}

void save_events(const std::vector<Event>& events, std::ostream& out) {
  out.precision(17);  // round-trippable doubles
  out << "wanplace-events v1\n";
  for (const auto& event : events) {
    if (const auto* d = std::get_if<DemandDeltaEvent>(&event)) {
      out << "demand " << d->node << ' ' << d->interval << ' ' << d->object
          << ' ' << d->read_delta << ' ' << d->write_delta << '\n';
    } else if (const auto* j = std::get_if<NodeJoinEvent>(&event)) {
      out << "join " << j->default_latency_ms;
      for (const auto& [node, latency] : j->latency_overrides)
        out << ' ' << node << ':' << latency;
      out << '\n';
    } else if (const auto* l = std::get_if<NodeLeaveEvent>(&event)) {
      out << "leave " << l->node << '\n';
    } else {
      const auto& u = std::get<LatencyUpdateEvent>(event);
      out << "latency " << u.a << ' ' << u.b << ' ' << u.latency_ms << '\n';
    }
  }
}

std::vector<Event> load_events(std::istream& in, const std::string& source) {
  LineReader reader(in, source);
  reader.header("wanplace-events", "wanplace event stream");
  reader.end();
  std::vector<Event> events;
  while (reader.next()) {
    const auto kind = reader.word("kind");
    // Braced initializers evaluate left to right, so fields read in order.
    if (kind == "demand") {
      events.push_back(DemandDeltaEvent{
          reader.integer<graph::NodeId>("node"),
          reader.integer<std::size_t>("interval"),
          reader.integer<ObjectId>("object"), reader.number("read_delta"),
          reader.number("write_delta")});
    } else if (kind == "join") {
      NodeJoinEvent j{reader.number("default latency"), {}};
      while (reader.more()) {
        const auto spec = reader.word("override");
        const auto colon = spec.find(':');
        reader.check(colon != std::string_view::npos,
                     "join override wants node:latency, got");
        j.latency_overrides.push_back(
            {reader.to_integer<graph::NodeId>(spec.substr(0, colon),
                                              "join override node"),
             reader.to_number(spec.substr(colon + 1),
                              "join override latency")});
      }
      events.push_back(std::move(j));
    } else if (kind == "leave") {
      events.push_back(NodeLeaveEvent{reader.integer<graph::NodeId>("node")});
    } else if (kind == "latency") {
      events.push_back(LatencyUpdateEvent{
          reader.integer<graph::NodeId>("node a"),
          reader.integer<graph::NodeId>("node b"), reader.number("latency")});
    } else {
      reader.fail("unknown event kind", kind);
    }
    reader.end();
  }
  return events;
}

void save_events_file(const std::vector<Event>& events,
                      const std::string& path) {
  std::ofstream file(path);
  if (!file) throw Error("cannot open " + path + " for writing");
  save_events(events, file);
  if (!file) throw Error("failed writing " + path);
}

std::vector<Event> load_events_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw Error("cannot open " + path);
  return load_events(file, path);
}

}  // namespace wanplace::workload
