// select-q99: the paper's Section 6.1 method at the measured point.
//
// Closed loop, one client: HeuristicSelector::select on the q99 instance,
// the next call issued when the previous one returns. The selector fans the
// five default classes out two-wide (parallelism 2) with every per-class
// solve serial. Every report is checked against exact forced-simplex
// references computed before the timed phase.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>

#include "bounds/engine.h"
#include "bounds/feasible.h"
#include "core/selector.h"
#include "mcperf/achievability.h"
#include "mcperf/builder.h"
#include "workloads.h"

namespace perfbench {

namespace wp = wanplace;

namespace {

// Set-ups are timed before the timed phase and again after it, so that one
// slow spell of a shared host cannot set the median alone.
constexpr int kSetupWarmups = 1;
constexpr int kSetupReps = 8;

wp::bounds::BoundOptions serial_bounds() {
  wp::bounds::BoundOptions options;
  options.parallelism = 1;
  return options;
}

wp::core::SelectorOptions selector_options() {
  wp::core::SelectorOptions options;
  options.parallelism = 2;
  options.bounds = serial_bounds();
  options.keep_details = true;  // the checks audit the rounded placements
  return options;
}

/// general() followed by the selector's default classes: the slot order of
/// SelectionReport::details.
std::vector<wp::mcperf::ClassSpec> all_specs() {
  std::vector<wp::mcperf::ClassSpec> specs{wp::mcperf::classes::general()};
  for (auto& spec : wp::core::HeuristicSelector::default_classes())
    specs.push_back(std::move(spec));
  return specs;
}

struct Reference {
  bool achievable = false;
  double bound = 0;
};

/// Exact bounds: every class forced onto the simplex, serial.
std::vector<Reference> exact_references(
    const wp::mcperf::Instance& instance,
    const std::vector<wp::mcperf::ClassSpec>& specs) {
  auto options = serial_bounds();
  options.solver = wp::bounds::BoundOptions::Solver::Simplex;
  std::vector<Reference> refs;
  for (const auto& spec : specs) {
    const auto bound = wp::bounds::compute_bound(instance, spec, options);
    refs.push_back({bound.achievable, bound.lower_bound});
  }
  return refs;
}

struct Quality {
  bool ok = true;
  double bound_ratio = 1;    // min over achievable slots of bound / exact
  double rounding_gap = 0;   // mean ClassBound::gap over rounded classes
  double regret_rel = 0;     // best rounded plan vs the general bound
  std::string digest;
};

Quality check_report(const wp::mcperf::Instance& instance,
                     const std::vector<wp::mcperf::ClassSpec>& specs,
                     const std::vector<Reference>& refs,
                     const wp::core::SelectionReport& report,
                     const std::string& label, Sheet& sheet) {
  Quality q;
  const auto fail = [&](const std::string& what) {
    q.ok = false;
    sheet.fail_check(label + ": " + what);
  };
  if (report.details.size() != specs.size()) {
    fail("report has no per-class details");
    return q;
  }
  std::vector<double> gaps;
  double best_rounded = wp::lp::kInfinity;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const auto& bound = s == 0 ? report.general : report.classes[s - 1];
    const auto& detail = report.details[s];
    const auto& name = specs[s].name;
    q.digest += name + "=" + number(bound.lower_bound) + "/" +
                number(bound.rounded_cost) + " ";
    if (bound.achievable != refs[s].achievable) {
      fail(name + " achievability differs from the exact reference");
      continue;
    }
    if (!bound.achievable) continue;
    const double ref = refs[s].bound;
    const double tol = bound_tolerance(ref);
    if (bound.lower_bound > ref + tol)
      fail(name + " bound " + number(bound.lower_bound) +
           " above the exact optimum " + number(ref));
    const bool simplex_routed = !detail.solution.basis.empty();
    if (simplex_routed && std::abs(bound.lower_bound - ref) > tol)
      fail(name + " simplex bound " + number(bound.lower_bound) +
           " differs from the exact optimum " + number(ref));
    if (ref > 0) q.bound_ratio = std::min(q.bound_ratio, bound.lower_bound / ref);
    if (bound.rounded_feasible) {
      const auto eval = wp::bounds::evaluate_placement(
          instance, specs[s], detail.rounding.placement);
      if (!eval.feasible())
        fail(name + " rounded placement fails evaluate_placement");
      if (std::abs(eval.cost - bound.rounded_cost) > bound_tolerance(eval.cost))
        fail(name + " rounded cost " + number(bound.rounded_cost) +
             " differs from its evaluation " + number(eval.cost));
      if (s > 0) {
        gaps.push_back(bound.gap);
        best_rounded = std::min(best_rounded, bound.rounded_cost);
      }
    }
  }
  // The recommendation is the lowest achievable class bound.
  std::size_t best = SIZE_MAX;
  for (std::size_t c = 0; c < report.classes.size(); ++c)
    if (report.classes[c].achievable &&
        (best == SIZE_MAX ||
         report.classes[c].lower_bound < report.classes[best].lower_bound))
      best = c;
  if (report.recommended != best) fail("recommendation is not the lowest bound");
  q.digest += "recommended=" + std::to_string(report.recommended);
  q.rounding_gap = mean(gaps);
  if (best_rounded < wp::lp::kInfinity)
    q.regret_rel = (best_rounded - report.general.lower_bound) /
                   std::max(report.general.lower_bound, 1.0);
  else
    fail("no class produced a feasible rounded plan");
  return q;
}

/// One checked select call; returns its wall time in ms (NaN on a throw).
double checked_select(const wp::core::HeuristicSelector& selector,
                      const wp::mcperf::Instance& instance,
                      const std::vector<wp::mcperf::ClassSpec>& specs,
                      const std::vector<Reference>& refs, Sheet& sheet,
                      Quality& quality, wp::core::SelectionReport* keep) {
  try {
    Timer timer;
    auto report = selector.select(instance);
    const double ms = timer.ms();
    quality = check_report(instance, specs, refs, report,
                           "select #" + std::to_string(sheet.attempted() + 1),
                           sheet);
    sheet.attempt(quality.ok);
    if (keep != nullptr) *keep = std::move(report);
    return ms;
  } catch (const std::exception& err) {
    std::printf("# select threw: %s\n", err.what());
    quality.ok = false;
    sheet.attempt(false);
    return std::nan("");
  }
}

void set_quality(const Quality& q, Sheet& sheet) {
  sheet.deterministic("bounds", q.digest);
  sheet.deterministic("bound_ratio", number(q.bound_ratio));
  sheet.deterministic("rounding_gap", number(q.rounding_gap));
  sheet.deterministic("regret_rel", number(q.regret_rel));
}

}  // namespace

void run_select(const Args& args, const WorkloadSpec& spec,
                const InputFiles& files, Sheet& sheet) {
  std::vector<double> setup_s;
  std::vector<LoadTimes> load_times;
  const auto measured_setup = [&](int warmups) {
    Loaded loaded;
    for (int rep = 0; rep < warmups + kSetupReps; ++rep) {
      LoadTimes times;
      Timer timer;
      loaded = load_inputs(files, spec.tqos, times);
      if (rep < warmups) continue;
      setup_s.push_back(timer.seconds());
      load_times.push_back(times);
    }
    return loaded;
  };
  const auto instance = measured_setup(kSetupWarmups).instance;
  const auto specs = all_specs();
  const auto refs = exact_references(instance, specs);
  const wp::core::HeuristicSelector selector(selector_options());

  if (!args.trace) {
    std::vector<double> latency_ms;
    Quality first;
    const double cpu0 = process_cpu_seconds();
    Timer phase;
    do {
      Quality q;
      latency_ms.push_back(
          checked_select(selector, instance, specs, refs, sheet, q, nullptr));
      if (latency_ms.size() == 1) first = q;
    } while (phase.seconds() < args.seconds);
    const double phase_s = phase.seconds();
    const double cpu_s = process_cpu_seconds() - cpu0;
    const double ops = static_cast<double>(latency_ms.size());
    measured_setup(0);
    sheet.set("setup_s", median(setup_s), "s");
    sheet.set("op_p50_ms", median(latency_ms), "ms");
    sheet.set("op_p90_ms", quantile(latency_ms, 0.9), "ms");
    sheet.set("ops_per_s", ops / phase_s, "1/s");
    sheet.set("cpu_s_per_op", cpu_s / ops, "s");
    sheet.set("peak_rss_mb", peak_rss_mb(), "MiB");
    sheet.set("ok_frac",
              1.0 - static_cast<double>(sheet.failed()) / ops, "fraction");
    sheet.set("bound_ratio", first.bound_ratio, "ratio");
    sheet.set("rounded_ratio", 1.0 + first.rounding_gap, "ratio");
    sheet.set("regret_ratio", 1.0 + first.regret_rel, "ratio");
    set_quality(first, sheet);
    return;
  }

  // Traced run: one untraced call, one call with the registry on, then the
  // layer mirror — each class's bound pipeline timed step by step from the
  // outside on the same instance.
  auto& registry = wp::obs::Registry::global();
  Quality q;
  const double untraced_ms =
      checked_select(selector, instance, specs, refs, sheet, q, nullptr);
  registry.enable(true);
  const auto before = registry.snapshot();
  wp::core::SelectionReport report;
  const double traced_ms =
      checked_select(selector, instance, specs, refs, sheet, q, &report);
  const auto after = registry.snapshot();
  set_quality(q, sheet);
  const double export_ms = time_export_ms(5);

  const auto count = [&](const char* name) { return delta(before, after, name); };
  const double simplex_s = count("simplex.solve_seconds");
  const double pdhg_s = count("pdhg.solve_seconds");
  const double pivots = count("simplex.iterations");
  const double warm_attempts = count("simplex.warm.attempts");
  sheet.set("lp.simplex.solve_ms", 1e3 * simplex_s, "ms/op");
  sheet.set("lp.simplex.pivots", pivots, "count/op");
  sheet.set("lp.simplex.us_per_pivot", pivots > 0 ? 1e6 * simplex_s / pivots : 0,
            "us");
  sheet.set("lp.simplex.refactorizations", count("simplex.refactorizations"),
            "count/op");
  sheet.set("lp.simplex.warm_accept_frac",
            warm_attempts > 0 ? count("simplex.warm.accepted") / warm_attempts
                              : 0,
            "fraction");
  sheet.set("lp.pdhg.solve_ms", 1e3 * pdhg_s, "ms/op");
  sheet.set("lp.pdhg.iterations", count("pdhg.iterations"), "count/op");
  sheet.set("lp.pdhg.restarts", count("pdhg.restarts"), "count/op");
  sheet.set("lp.pdhg_share",
            simplex_s + pdhg_s > 0 ? pdhg_s / (simplex_s + pdhg_s) : 0,
            "fraction");
  sheet.set("lp.lu.factorizations", count("lu.factorizations"), "count/op");
  double cap_hits = 0;
  for (const auto& detail : report.details)
    if (detail.bound.achievable && detail.solution.basis.empty() &&
        detail.solution.status == wp::lp::SolveStatus::IterationLimit)
      ++cap_hits;
  sheet.set("lp.pdhg.cap_hits", cap_hits, "count/op");
  sheet.deterministic("counts",
                      "simplex.iterations=" + number(pivots) +
                          " pdhg.iterations=" + number(count("pdhg.iterations")) +
                          " pdhg.restarts=" + number(count("pdhg.restarts")) +
                          " pdhg.solves=" + number(count("pdhg.solves")) +
                          " simplex.solves=" + number(count("simplex.solves")));

  // The mirror: every slot's pipeline steps, registry still on so solver
  // routing is read from the solve counters.
  const auto rounding_options = serial_bounds().rounding;
  double class_sum_ms = 0, general_ms = 0;
  std::vector<double> rounding_ms;
  std::string rows_digest;
  wp::bounds::BoundDetail general_detail;
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const auto& cls = specs[s];
    Timer achievability_timer;
    const auto reach = wp::mcperf::max_achievable_qos(instance, cls);
    const double achievability_ms = achievability_timer.ms();
    double build_ms = 0, rows = 0;
    if (reach.achievable(spec.tqos)) {
      Timer build_timer;
      const auto built = wp::mcperf::build_lp(instance, cls);
      build_ms = build_timer.ms();
      rows = static_cast<double>(built.model.row_count());
    }
    const auto solves_before = registry.snapshot();
    Timer compute_timer;
    auto detail = wp::bounds::compute_bound_detail(instance, cls, serial_bounds());
    const double compute_ms = compute_timer.ms();
    const auto solves_after = registry.snapshot();
    const bool pdhg_routed = delta(solves_before, solves_after, "pdhg.solves") > 0;
    if (detail.bound.achievable &&
        pdhg_routed != report.details[s].solution.basis.empty())
      sheet.fail_check(cls.name + ": mirror and select routed to different solvers");
    if (detail.bound.achievable && !detail.solution.x.empty()) {
      Timer rounding_timer;
      wp::bounds::round_solution(instance, cls, detail.built, detail.solution.x,
                                 rounding_options);
      rounding_ms.push_back(rounding_timer.ms());
    }
    sheet.set("mcperf.achievability_ms." + cls.name, achievability_ms, "ms");
    sheet.set("mcperf.build_lp_ms." + cls.name, build_ms, "ms");
    sheet.set("mcperf.lp_rows." + cls.name, rows, "count");
    sheet.set("bounds.compute_ms." + cls.name, compute_ms, "ms");
    rows_digest += cls.name + "=" + number(rows) +
                   (detail.bound.achievable ? (pdhg_routed ? "/pdhg " : "/simplex ")
                                            : "/gated ");
    if (s == 0) {
      general_ms = compute_ms;
      general_detail = std::move(detail);
    } else {
      class_sum_ms += compute_ms;
    }
  }
  registry.enable(false);
  sheet.deterministic("lp_rows", rows_digest);

  const auto lu = time_lu_kernels(general_detail.built.model,
                                  general_detail.solution.basis);
  if (!lu.ok) sheet.fail_check("general basis did not factorize");
  sheet.set("lp.lu.factorize_ms", lu.factorize_ms, "ms");
  sheet.set("lp.lu.ftran_us", lu.ftran_us, "us");
  sheet.set("lp.lu.btran_us", lu.btran_us, "us");

  const double fanout_ms = traced_ms - general_ms;
  sheet.set("core.select.general_ms", general_ms, "ms");
  sheet.set("core.select.fanout_ms", fanout_ms, "ms");
  sheet.set("core.select.class_sum_ms", class_sum_ms, "ms");
  sheet.set("core.select.parallel_eff",
            fanout_ms > 0 ? class_sum_ms / (2.0 * fanout_ms) : 0, "ratio");
  sheet.set("bounds.rounding_ms", median(rounding_ms), "ms");
  sheet.set("obs.trace_overhead", traced_ms / untraced_ms - 1.0, "ratio");
  sheet.set("obs.export_ms", export_ms, "ms");
  measured_setup(0);
  set_load_metrics(load_times, sheet);

  // Layers select does not drive: reported as zero so every run carries
  // the same metric set.
  for (const char* name :
       {"mcperf.validate_ms", "mcperf.patch_ms", "bounds.resolve_ms",
        "service.audit_ms", "service.policy_ms", "service.unattributed_ms"})
    sheet.set(name, 0, "ms");
  sheet.set("mcperf.rebuilds", 0, "count");
  sheet.set("service.pivots_per_event", 0, "count");
  sheet.set("service.publish_frac", 0, "fraction");
  sheet.set("service.basis_drops", 0, "count");
}

}  // namespace perfbench
