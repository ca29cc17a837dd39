// Topology file I/O.
//
// Plain-text format, one directive per line, in any order; `nodes` is
// required, `local_latency` defaults to 10, and each appears at most once:
//
//   nodes 20
//   local_latency 10
//   edge 0 1 120.5        # endpoints and one-way latency in ms
//   edge 1 2 98 500       # optional bandwidth cap (requests/interval)
//
// The format is intentionally trivial so real deployments can export their
// measured inter-site latencies into it. Its grammar, shared with the trace
// and events files: '#' comments; whitespace-separated tokens, each parsed
// whole; ids checked against their type's range; finite numbers; errors
// "<source>:<line>: <message> '<token>'" (the *_file loaders pass the path
// as `source`).
#pragma once

#include <iosfwd>
#include <string>

#include "graph/topology.h"

namespace wanplace::graph {

Topology load_topology(std::istream& in,
                       const std::string& source = "topology");
Topology load_topology_file(const std::string& path);

void save_topology(const Topology& topology, std::ostream& out);
void save_topology_file(const Topology& topology, const std::string& path);

}  // namespace wanplace::graph
