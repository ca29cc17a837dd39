#include "core/selector.h"

#include <algorithm>
#include <atomic>
#include <future>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace wanplace::core {

const bounds::ClassBound& SelectionReport::recommended_bound() const {
  WANPLACE_REQUIRE(has_recommendation(), "no class met the goal");
  return classes[recommended];
}

Table SelectionReport::to_table() const {
  Table table({"class", "max-qos", "achievable", "lower-bound",
               "rounded-cost", "gap", "solver"});
  auto add = [&](const bounds::ClassBound& bound) {
    table.cell(bound.class_name)
        .cell(bound.max_achievable_qos, 6)
        .cell(bound.achievable ? "yes" : "no");
    if (bound.achievable) {
      table.cell(bound.lower_bound, 1)
          .cell(bound.rounded_feasible ? format_number(bound.rounded_cost, 1)
                                       : std::string("-"))
          .cell(bound.rounded_feasible ? format_number(bound.gap, 3)
                                       : std::string("-"))
          .cell(bounds::to_string(bound.solver));
    } else {
      table.cell("-").cell("-").cell("-").cell("-");
    }
    table.finish_row();
  };
  add(general);
  for (const auto& bound : classes) add(bound);
  return table;
}

HeuristicSelector::HeuristicSelector(SelectorOptions options)
    : options_(std::move(options)) {
  if (options_.classes.empty()) options_.classes = default_classes();
}

std::vector<mcperf::ClassSpec> HeuristicSelector::default_classes() {
  return {mcperf::classes::storage_constrained(),
          mcperf::classes::replica_constrained(),
          mcperf::classes::decentralized_local_routing(),
          mcperf::classes::caching(),
          mcperf::classes::cooperative_caching()};
}

std::string HeuristicSelector::suggested_heuristic(
    const std::string& class_name) {
  if (class_name == "storage-constrained")
    return "greedy-global placement (Kangasharju et al.)";
  if (class_name == "replica-constrained" ||
      class_name == "replica-constrained-per-object")
    return "greedy replica placement (Qiu et al.)";
  if (class_name == "decentral-local-routing")
    return "decentralized per-node greedy with origin routing";
  if (class_name == "caching") return "LRU caching";
  if (class_name == "coop-caching") return "cooperative LRU caching";
  if (class_name == "caching-prefetch") return "LRU caching with prefetching";
  if (class_name == "coop-caching-prefetch")
    return "cooperative caching with prefetching";
  if (class_name == "closest")
    return "closest-allocation on the hierarchy (Benoit/Rehn/Robert)";
  return "custom heuristic from class " + class_name;
}

SelectionReport HeuristicSelector::select(
    const mcperf::Instance& instance) const {
  obs::Span span("selector");
  SelectionReport report;
  const std::size_t parallelism =
      options_.parallelism == 0 ? util::ThreadPool::default_parallelism()
                                : options_.parallelism;
  // Slot 0 is the general bound, slot 1 + i matches classes[i]. Every slot
  // is an independent solve over its own freshly built LpModel, so the
  // report does not depend on the order the slots finish in. Computed in
  // full here regardless of keep_details (compute_bound is a wrapper over
  // compute_bound_detail anyway) and retained only on request.
  const mcperf::ClassSpec general = mcperf::classes::general();
  const auto spec = [&](std::size_t slot) -> const mcperf::ClassSpec& {
    return slot == 0 ? general : options_.classes[slot - 1];
  };
  const std::size_t slots = 1 + options_.classes.size();
  std::vector<bounds::BoundDetail> details(slots);
  // The calling thread takes slots too, next to `helpers` pool workers; at
  // parallelism 1 it solves every slot in order on its own. Solving on the
  // caller also reuses its allocator arena: a workers-only fan-out measured
  // ~2 MB more peak RSS on the case study at tqos 0.99. Every solve runs
  // on the thread that drains its slot, so the knob caps total concurrency.
  const std::size_t helpers = std::min(parallelism, slots) - 1;
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    // A pool worker has no span of its own open: its slots' spans nest
    // under this selector span, as the calling thread's do.
    const obs::ParentScope fan_out(span.id());
    for (std::size_t slot = next++; slot < slots; slot = next++)
      details[slot] =
          bounds::compute_bound_detail(instance, spec(slot), options_.bounds);
  };
  if (helpers == 0) {
    drain();
  } else {
    util::ThreadPool pool(helpers);
    std::vector<std::future<void>> pending;
    pending.reserve(helpers);
    for (std::size_t t = 0; t < helpers; ++t)
      pending.push_back(pool.submit(drain));
    drain();
    for (auto& task : pending) task.get();
  }
#ifdef __GLIBC__
  // The slots' LP models and factors were freed on every thread, and glibc
  // keeps a worker's freed heap in that thread's arena: without the trim
  // each call's peak RSS creeps upward on a long-lived process.
  malloc_trim(0);
#endif
  report.general = details[0].bound;
  report.classes.reserve(options_.classes.size());
  for (std::size_t idx = 0; idx < options_.classes.size(); ++idx)
    report.classes.push_back(details[1 + idx].bound);

  double best = lp::kInfinity;
  for (std::size_t idx = 0; idx < report.classes.size(); ++idx) {
    const auto& bound = report.classes[idx];
    if (!bound.achievable) continue;
    if (bound.lower_bound < best) {
      best = bound.lower_bound;
      report.recommended = idx;
    }
  }
  if (report.has_recommendation()) {
    const auto& chosen = report.classes[report.recommended];
    report.suggestion = suggested_heuristic(chosen.class_name);
    report.optimality_ratio =
        report.general.lower_bound > 0
            ? chosen.lower_bound / report.general.lower_bound
            : 1.0;
  }
  if (options_.keep_details) report.details = std::move(details);
  if (span.active()) {
    span.attr("classes", static_cast<double>(report.classes.size()));
    span.attr("recommended", report.has_recommendation()
                                 ? static_cast<double>(report.recommended)
                                 : -1.0);
  }
  if (obs::metrics_enabled()) obs::counter_add("selector.runs");
  return report;
}

}  // namespace wanplace::core
