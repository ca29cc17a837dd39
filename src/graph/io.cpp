#include "graph/io.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>

#include "util/check.h"

namespace wanplace::graph {

Topology load_topology(std::istream& in) {
  std::optional<Topology> topology;
  double local_latency = 10.0;
  std::vector<Edge> pending;  // edges seen before the nodes directive

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::string directive;
    if (!(fields >> directive)) continue;  // blank / comment-only line

    auto fail = [&](const std::string& why) {
      throw Error("topology line " + std::to_string(line_no) + ": " + why);
    };

    if (directive == "nodes") {
      std::size_t count = 0;
      if (!(fields >> count) || count == 0) fail("bad node count");
      if (topology) fail("duplicate nodes directive");
      topology.emplace(count, local_latency);
      for (const auto& edge : pending)
        topology->add_edge(edge.from, edge.to, edge.latency_ms,
                           edge.bandwidth);
      pending.clear();
    } else if (directive == "local_latency") {
      if (!(fields >> local_latency) || local_latency < 0)
        fail("bad local latency");
      if (topology) fail("local_latency must precede nodes");
    } else if (directive == "edge") {
      Edge edge;
      if (!(fields >> edge.from >> edge.to >> edge.latency_ms))
        fail("bad edge");
      // Optional fourth field, and nothing after it: a finite bandwidth cap
      // (requests/interval).
      std::string token, extra;
      if (fields >> token) {
        char* end = nullptr;
        const double bandwidth = std::strtod(token.c_str(), &end);
        if (*end != '\0' || !(bandwidth > 0) || !std::isfinite(bandwidth) ||
            fields >> extra)
          fail("bad edge bandwidth");
        edge.bandwidth = bandwidth;
      }
      if (topology)
        topology->add_edge(edge.from, edge.to, edge.latency_ms,
                           edge.bandwidth);
      else
        pending.push_back(edge);
    } else {
      fail("unknown directive '" + directive + "'");
    }
  }
  if (!topology) throw Error("topology stream missing 'nodes' directive");
  return *topology;
}

Topology load_topology_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw Error("cannot open " + path);
  try {
    return load_topology(file);
  } catch (const Error& error) {
    throw Error(path + ": " + error.what());
  }
}

void save_topology(const Topology& topology, std::ostream& out) {
  out.precision(17);  // round-trippable doubles
  out << "# wanplace topology\n";
  out << "local_latency " << topology.local_latency_ms() << '\n';
  out << "nodes " << topology.node_count() << '\n';
  for (std::size_t n = 0; n < topology.node_count(); ++n)
    for (const auto& nb : topology.neighbors(static_cast<NodeId>(n)))
      if (static_cast<std::size_t>(nb.node) > n) {  // undirected: emit once
        out << "edge " << n << ' ' << nb.node << ' ' << nb.latency_ms;
        if (std::isfinite(nb.bandwidth)) out << ' ' << nb.bandwidth;
        out << '\n';
      }
}

void save_topology_file(const Topology& topology, const std::string& path) {
  std::ofstream file(path);
  if (!file) throw Error("cannot open " + path + " for writing");
  save_topology(topology, file);
  if (!file) throw Error("failed writing " + path);
}

}  // namespace wanplace::graph
