// Extending the library with your own placement heuristic.
//
// Implements a "top-K popularity" heuristic — every node caches the K
// globally most popular objects seen so far — as an IntervalHeuristic,
// simulates it against the WEB workload, and compares its cost with the
// storage-constrained class bound. The bound applies to *every* heuristic
// in the class, so any correct implementation must land above it.
#include <algorithm>
#include <iostream>
#include <numeric>

#include "bounds/engine.h"
#include "core/case_study.h"
#include "sim/simulator.h"
#include "util/table.h"

namespace {

using namespace wanplace;

/// Everyone caches the K most popular objects observed in past intervals.
/// Storage-constrained (fixed capacity), global knowledge, reactive.
class TopKPopularity : public heuristics::IntervalHeuristic {
 public:
  explicit TopKPopularity(std::size_t capacity, graph::NodeId origin)
      : capacity_(capacity), origin_(origin) {}

  std::string name() const override { return "top-k-popularity"; }

  void place_interval(std::size_t interval, const workload::Demand& demand,
                      bounds::Placement& placement) override {
    const std::size_t k_count = demand.object_count();
    std::vector<double> popularity(k_count, 0);
    for (std::size_t n = 0; n < demand.node_count(); ++n)
      for (std::size_t j = 0; j < interval; ++j)
        for (std::size_t k = 0; k < k_count; ++k)
          popularity[k] += demand.read(n, j, k);

    std::vector<std::size_t> order(k_count);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return popularity[a] > popularity[b];
                     });
    for (std::size_t rank = 0; rank < std::min(capacity_, k_count); ++rank) {
      if (popularity[order[rank]] <= 0) break;  // reactive: seen objects only
      for (std::size_t n = 0; n < demand.node_count(); ++n) {
        if (origin_ >= 0 && static_cast<std::size_t>(origin_) == n) continue;
        placement(n, interval, order[rank]) = 1;
      }
    }
  }

 private:
  std::size_t capacity_;
  graph::NodeId origin_;
};

}  // namespace

int main() {
  using namespace wanplace;
  const auto study = core::make_case_study(core::CaseStudyConfig::small());
  const double tqos = 0.95;
  std::cout << "system: " << study.topology.summary() << "\n";

  // The class this heuristic belongs to: storage-constrained + reactive.
  auto spec = mcperf::classes::storage_constrained();
  spec.reactive = true;
  const auto bound = bounds::compute_bound(study.web_instance(tqos), spec);
  if (!bound.achievable) {
    std::cout << "the class cannot meet " << format_number(tqos * 100, 2)
              << "% on this system (max "
              << format_number(bound.max_achievable_qos * 100, 2) << "%)\n";
    return 0;
  }
  std::cout << "storage-constrained (reactive) class bound: "
            << format_number(bound.lower_bound, 1) << "\n";

  sim::IntervalSimConfig config;
  config.origin = study.origin;
  config.tlat_ms = study.config.tlat_ms;
  config.interval_count = study.config.interval_count;
  config.accounting = sim::IntervalSimConfig::StorageAccounting::Capacity;

  std::cout << "\ncapacity  min-qos%   cost      vs-bound\n";
  for (std::size_t capacity : {4u, 8u, 16u, 32u}) {
    config.provisioned = capacity;
    TopKPopularity heuristic(capacity, study.origin);
    const auto sim = sim::simulate_interval_heuristic(
        study.web_trace, study.latencies, config, heuristic);
    std::cout << capacity << "\t  "
              << format_number(sim.result.min_qos * 100, 2) << "\t     "
              << format_number(sim.result.total_cost, 0) << "\t   "
              << format_number(sim.result.total_cost / bound.lower_bound, 2)
              << "x" << (sim.result.meets(tqos) ? "  (meets goal)" : "")
              << "\n";
  }
  std::cout << "\nA naive member of the class stays well above the class "
               "bound; the greedy-global heuristic gets closer (see "
               "examples/remote_office).\n";
  return 0;
}
