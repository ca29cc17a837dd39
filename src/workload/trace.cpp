#include "workload/trace.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/check.h"

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

Trace Trace::load(std::istream& in) {
  std::string magic, version;
  double duration = 0;
  std::size_t nodes = 0, objects = 0;
  in >> magic >> version >> duration >> nodes >> objects;
  if (!in || magic != "wanplace-trace" || version != "v1")
    throw Error("not a wanplace trace stream");
  std::vector<Request> requests;
  Request req;
  char kind = 'r';
  // One request per line after the header, so the record being read sits
  // on line requests.size() + 2. A failed extraction leaves the offending
  // token in the stream; anything but a clean end of stream is an error,
  // never a silently shortened trace.
  const auto fail = [&](const std::string& why) {
    throw Error("trace line " + std::to_string(requests.size() + 2) + ": " +
                why);
  };
  const auto offending_token = [&] {
    in.clear();
    std::string token;
    in >> token;
    return "bad token '" + token + "'";
  };
  while (in >> req.time_s) {
    if (!(in >> req.node >> req.object >> kind))
      fail(in.eof() ? "truncated request" : offending_token());
    if (kind != 'r' && kind != 'w')
      fail(std::string("bad request kind '") + kind + "'");
    req.is_write = kind == 'w';
    requests.push_back(req);
  }
  if (!in.eof()) fail(offending_token());
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
  try {
    return load(file);
  } catch (const Error& error) {
    throw Error(path + ": " + error.what());
  }
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

namespace {

[[noreturn]] void bad_token(const std::string& source, std::size_t line_no,
                            const std::string& message,
                            const std::string& token) {
  throw Error(source + ":" + std::to_string(line_no) + ": " + message + " '" +
              token + "'");
}

/// Parse a whole token as an integer; partial consumption ("3x", "1.5")
/// and overflow are rejected with the token in the message.
long event_int(const std::string& source, std::size_t line_no,
               const std::string& token, const char* what) {
  std::size_t consumed = 0;
  long value = 0;
  try {
    value = std::stol(token, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (token.empty() || consumed != token.size())
    bad_token(source, line_no, std::string(what) + " is not an integer:",
              token);
  return value;
}

/// Parse a whole token as a finite double; "nan"/"inf" parse fine through
/// std::stod but poison every downstream demand/latency computation, so
/// they are rejected here at the file boundary.
double event_num(const std::string& source, std::size_t line_no,
                 const std::string& token, const char* what) {
  std::size_t consumed = 0;
  double value = 0;
  try {
    value = std::stod(token, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (token.empty() || consumed != token.size())
    bad_token(source, line_no, std::string(what) + " is not a number:",
              token);
  if (!std::isfinite(value))
    bad_token(source, line_no, std::string(what) + " must be finite, got",
              token);
  return value;
}

}  // namespace

std::vector<Event> load_events(std::istream& in, const std::string& source) {
  std::string header;
  if (!std::getline(in, header) ||
      header.rfind("wanplace-events v1", 0) != 0)
    throw Error(source + ":1: not a wanplace event stream (expected a "
                "\"wanplace-events v1\" header)");
  std::vector<Event> events;
  std::string line;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream fields(line);
    std::string kind;
    if (!(fields >> kind) || kind[0] == '#') continue;
    const auto next = [&](const char* what) {
      std::string token;
      if (!(fields >> token))
        throw Error(source + ":" + std::to_string(line_no) + ": " + kind +
                    " event is missing its " + what + " field: '" + line +
                    "'");
      return token;
    };
    const auto reject_extras = [&] {
      std::string extra;
      if (fields >> extra)
        bad_token(source, line_no,
                  "unexpected trailing token on a " + kind + " event:",
                  extra);
    };
    if (kind == "demand") {
      DemandDeltaEvent d;
      d.node = static_cast<graph::NodeId>(
          event_int(source, line_no, next("node"), "node"));
      const long interval =
          event_int(source, line_no, next("interval"), "interval");
      if (interval < 0)
        bad_token(source, line_no, "interval must be >= 0, got",
                  std::to_string(interval));
      d.interval = static_cast<std::size_t>(interval);
      d.object = static_cast<ObjectId>(
          event_int(source, line_no, next("object"), "object"));
      d.read_delta =
          event_num(source, line_no, next("read_delta"), "read_delta");
      d.write_delta =
          event_num(source, line_no, next("write_delta"), "write_delta");
      reject_extras();
      events.push_back(d);
    } else if (kind == "join") {
      NodeJoinEvent j;
      j.default_latency_ms =
          event_num(source, line_no, next("default_latency_ms"),
                    "default latency");
      std::string override_spec;
      while (fields >> override_spec) {
        const auto colon = override_spec.find(':');
        if (colon == std::string::npos)
          bad_token(source, line_no, "join override wants node:latency, got",
                    override_spec);
        const long node =
            event_int(source, line_no, override_spec.substr(0, colon),
                      "join override node");
        const double latency =
            event_num(source, line_no, override_spec.substr(colon + 1),
                      "join override latency");
        j.latency_overrides.emplace_back(static_cast<graph::NodeId>(node),
                                         latency);
      }
      events.push_back(std::move(j));
    } else if (kind == "leave") {
      NodeLeaveEvent l;
      l.node = static_cast<graph::NodeId>(
          event_int(source, line_no, next("node"), "node"));
      reject_extras();
      events.push_back(l);
    } else if (kind == "latency") {
      LatencyUpdateEvent u;
      u.a = static_cast<graph::NodeId>(
          event_int(source, line_no, next("a"), "node a"));
      u.b = static_cast<graph::NodeId>(
          event_int(source, line_no, next("b"), "node b"));
      u.latency_ms =
          event_num(source, line_no, next("latency_ms"), "latency");
      reject_extras();
      events.push_back(u);
    } else {
      bad_token(source, line_no, "unknown event kind", kind);
    }
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
