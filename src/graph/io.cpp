#include "graph/io.h"

#include <cmath>
#include <fstream>
#include <optional>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/line_reader.h"

namespace wanplace::graph {

Topology load_topology(std::istream& in, const std::string& source) {
  LineReader reader(in, source);
  std::optional<NodeId> nodes;
  std::optional<double> local_latency;
  std::vector<std::pair<Edge, std::size_t>> edges;  // with their lines
  while (reader.next()) {
    const auto directive = reader.word("directive");
    if (directive == "nodes") {
      reader.check(!nodes, "duplicate directive");
      nodes = reader.integer<NodeId>("node count", 1);
    } else if (directive == "local_latency") {
      reader.check(!local_latency, "duplicate directive");
      local_latency = reader.number("local latency");
      reader.check(*local_latency >= 0, "local latency must be >= 0, got");
    } else if (directive == "edge") {
      Edge edge{reader.integer<NodeId>("edge endpoint"),
                reader.integer<NodeId>("edge endpoint")};
      reader.check(edge.from != edge.to, "edge endpoints must differ, got");
      edge.latency_ms = reader.number("edge latency");
      reader.check(edge.latency_ms > 0, "edge latency must be positive, got");
      if (reader.more()) {
        edge.bandwidth = reader.number("edge bandwidth");
        reader.check(edge.bandwidth > 0,
                     "edge bandwidth must be positive, got");
      }
      edges.emplace_back(edge, reader.line());
    } else {
      reader.fail("unknown directive", directive);
    }
    reader.end();
  }
  // Directives come in any order, so the endpoints are range-checked once
  // the node count is known.
  if (!nodes) reader.fail("missing directive", "nodes");
  Topology topology(*nodes, local_latency.value_or(10.0));
  for (const auto& [edge, line] : edges) {
    for (const NodeId end : {edge.from, edge.to})
      if (end < 0 || end >= *nodes)
        reader.fail("edge endpoint is not an integer in [0, " +
                        std::to_string(*nodes - 1) + "]:",
                    std::to_string(end), line);
    topology.add_edge(edge.from, edge.to, edge.latency_ms, edge.bandwidth);
  }
  return topology;
}

Topology load_topology_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw Error("cannot open " + path);
  return load_topology(file, path);
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
