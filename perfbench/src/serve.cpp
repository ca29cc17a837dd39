// serve-demand and serve-churn: the continuous re-placement daemon.
//
// Closed loop, one client: a PlacementDaemon (general class, bound solves
// serial) at tqos 0.9 receives the seeded events script, one on_event call
// per event (serve-demand) or one on_batch call per burst of kBurst events
// (serve-churn), the next call issued when the previous one returns.
//
// Checks: no valid event is rejected; the incumbent's audited cost is never
// below the certified bound while it is feasible; and on seeded sampled
// calls the daemon's bound is compared against a cold, exact forced-simplex
// bound of a copy of the daemon's instance — equal within 1e-7 unless the
// default routing sends that instance to PDHG, never above it.
//
// The traced run feeds the same calls to two daemons, one with the metrics
// registry off and one with it on, and replays every call through a mirror
// that runs the daemon's stages from the outside with the library's public
// functions (Instance::apply_delta, service::advance_model,
// bounds::compute_bound_built, service::audit_incumbent, service::decide);
// the mirror's bound must equal the daemon's on every call.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>

#include "bounds/engine.h"
#include "bounds/rounding.h"
#include "mcperf/achievability.h"
#include "mcperf/builder.h"
#include "service/audit.h"
#include "service/daemon.h"
#include "service/delta.h"
#include "service/policy.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace wp = wanplace;

namespace {

// Set-ups are timed before the timed phase and again after it, so that one
// slow spell of a shared host cannot set the median alone.
constexpr int kSetupWarmups = 1;
constexpr int kSetupReps = 4;
// Calls whose results form the deterministic outputs (quality metrics,
// publish sequence, sampled reference checks, the whole traced run).
constexpr std::size_t kPrefixCalls = 40;
constexpr std::size_t kSampledChecks = 6;

wp::service::DaemonOptions daemon_options() {
  wp::service::DaemonOptions options;
  options.spec = wp::mcperf::classes::general();
  options.bounds.parallelism = 1;
  options.tlat_ms = kTlatMs;
  return options;
}

using Batch = wp::workload::EventBatch;

/// The daemon's per-event stages, run from the outside.
class Mirror {
 public:
  struct Stages {
    double validate_ms = 0, patch_ms = 0, resolve_ms = 0, audit_ms = 0,
           policy_ms = 0, rounding_ms = 0;
    std::size_t rebuilds = 0;
    double bound = 0;
    bool cap_hit = false;
  };

  Mirror(wp::mcperf::Instance instance, wp::service::DaemonOptions options)
      : instance_(std::move(instance)), options_(std::move(options)) {}

  /// The cold start solve; returns its detail's basis-carrying copy.
  Stages start() {
    Stages stages;
    Timer resolve;
    auto detail = wp::bounds::compute_bound_detail(instance_, options_.spec,
                                                   options_.bounds);
    stages.resolve_ms = resolve.ms();
    start_model_ = detail.built.model;
    start_basis_ = detail.solution.basis;
    finish(std::move(detail), stages);
    return stages;
  }

  /// One call: a single event (on_event) or a burst (on_batch).
  Stages step(const Batch& batch, bool batched) {
    Stages stages;
    const auto& spec = options_.spec;
    if (!batched) {
      const auto& event = batch.front();
      Timer validate;
      const bool pre = wp::mcperf::delta_supported(instance_, spec, event);
      instance_.apply_delta(event, options_.tlat_ms);
      stages.validate_ms = validate.ms();
      Timer patch;
      if (!wp::service::advance_model(instance_, spec, event, state_, pre))
        ++stages.rebuilds;
      stages.patch_ms = patch.ms();
    } else {
      Timer validate;
      auto scratch = instance_;
      for (const auto& event : batch) scratch.apply_delta(event, options_.tlat_ms);
      stages.validate_ms = validate.ms();
      Timer patch;
      for (const auto& event : batch) {
        const bool pre = wp::mcperf::delta_supported(instance_, spec, event);
        instance_.apply_delta(event, options_.tlat_ms);
        if (!wp::service::advance_model(instance_, spec, event, state_, pre))
          ++stages.rebuilds;
      }
      stages.patch_ms = patch.ms();
    }

    Timer resolve;
    auto solve = options_.bounds;
    if (!state_.basis.empty()) solve.warm.basis = &state_.basis;
    auto detail = wp::bounds::compute_bound_built(instance_, spec,
                                                  std::move(state_.built), solve);
    stages.resolve_ms = resolve.ms();
    finish(std::move(detail), stages);
    return stages;
  }

  std::size_t rows() const { return state_.built.model.row_count(); }
  const wp::lp::LpModel& start_model() const { return start_model_; }
  const wp::lp::BasisSnapshot& start_basis() const { return start_basis_; }

 private:
  void finish(wp::bounds::BoundDetail detail, Stages& stages) {
    const bool pdhg = detail.bound.achievable && detail.solution.basis.empty();
    stages.cap_hit =
        pdhg && detail.solution.status == wp::lp::SolveStatus::IterationLimit;
    stages.bound = detail.bound.lower_bound;
    state_.built = std::move(detail.built);
    state_.valid = state_.built.model.variable_count() > 0;
    if (!detail.solution.basis.empty())
      state_.basis = std::move(detail.solution.basis);
    else if (!state_.basis.compatible(state_.built.model.variable_count(),
                                      state_.built.model.row_count()))
      state_.basis = {};
    if (detail.bound.achievable && !detail.solution.x.empty()) {
      Timer rounding;
      wp::bounds::round_solution(instance_, options_.spec, state_.built,
                                 detail.solution.x, options_.bounds.rounding);
      stages.rounding_ms = rounding.ms();
    }

    wp::service::CandidatePlan candidate;
    candidate.feasible = detail.bound.rounded_feasible;
    candidate.cost = detail.bound.rounded_cost;
    wp::service::IncumbentPlan incumbent;
    Timer audit;
    if (incumbent_) {
      const auto report =
          wp::service::audit_incumbent(instance_, options_.spec, *incumbent_);
      incumbent.exists = true;
      incumbent.feasible = report.feasible();
      incumbent.cost = report.cost;
    }
    stages.audit_ms = audit.ms();
    Timer policy;
    const auto decision =
        wp::service::decide(options_.policy, incumbent, candidate);
    stages.policy_ms = policy.ms();
    if (decision.publish) incumbent_ = detail.rounding.placement;
  }

  wp::mcperf::Instance instance_;
  wp::service::DaemonOptions options_;
  wp::service::ModelState state_;
  std::optional<wp::bounds::Placement> incumbent_;
  wp::lp::LpModel start_model_;
  wp::lp::BasisSnapshot start_basis_;
};

/// The calls of a run: single events or bursts, in script order.
std::vector<Batch> make_calls(const std::vector<wp::workload::Event>& events,
                              bool batched) {
  std::vector<Batch> calls;
  const std::size_t step = batched ? kBurst : 1;
  for (std::size_t at = 0; at + step <= events.size(); at += step)
    calls.emplace_back(events.begin() + static_cast<std::ptrdiff_t>(at),
                       events.begin() + static_cast<std::ptrdiff_t>(at + step));
  return calls;
}

wp::service::EventOutcome call(wp::service::PlacementDaemon& daemon,
                               const Batch& batch, bool batched) {
  return batched ? daemon.on_batch(batch) : daemon.on_event(batch.front());
}

/// Deterministic per-call results over the prefix, plus the deferred
/// reference checks of the sampled calls.
class Tracker {
 public:
  Tracker(std::uint64_t seed, Sheet& sheet) : sheet_(sheet) {
    wp::Rng rng(0xC4EC000000000000ULL ^ seed);
    while (sampled_.size() < kSampledChecks) {
      const std::size_t at = rng.uniform_index(kPrefixCalls);
      if (std::find(sampled_.begin(), sampled_.end(), at) == sampled_.end())
        sampled_.push_back(at);
    }
  }

  /// Record call `index`; returns false when its immediate checks fail.
  bool record(std::size_t index, const wp::service::EventOutcome& out,
              const wp::service::PlacementDaemon& daemon) {
    const std::string label = "call #" + std::to_string(index + 1);
    bool ok = true;
    if (out.rejected) {
      sheet_.fail_check(label + " rejected a valid event: " + out.error);
      ok = false;
    } else if (!out.achievable) {
      sheet_.fail_check(label + " reports the goal unachievable");
      ok = false;
    } else if (out.audit.exists && out.audit.feasible() &&
               out.audit.cost < out.lower_bound - bound_tolerance(out.lower_bound)) {
      sheet_.fail_check(label + " incumbent cost " + number(out.audit.cost) +
                        " below the certified bound " + number(out.lower_bound));
      ok = false;
    }
    if (index >= kPrefixCalls) return ok;
    regrets_.push_back(daemon.status().relative_regret);
    if (out.candidate_feasible)
      gaps_.push_back((out.candidate_cost - out.lower_bound) /
                      std::max(out.lower_bound, 1.0));
    publishes_ += out.published ? '1' : '0';
    bounds_ += number(out.lower_bound) + " ";
    if (std::find(sampled_.begin(), sampled_.end(), index) != sampled_.end())
      samples_.push_back({index, daemon.instance(), out.lower_bound});
    return ok;
  }

  /// Cold exact references for the sampled calls (after the timed phase).
  /// Returns the indices of calls that failed.
  std::vector<std::size_t> check_samples() {
    auto exact = daemon_options().bounds;
    exact.solver = wp::bounds::BoundOptions::Solver::Simplex;
    const auto spec = wp::mcperf::classes::general();
    std::vector<std::size_t> failed;
    for (const auto& sample : samples_) {
      const double ref =
          wp::bounds::compute_bound(sample.instance, spec, exact).lower_bound;
      const double tol = bound_tolerance(ref);
      const std::string label = "call #" + std::to_string(sample.index + 1);
      bool ok = true;
      if (sample.bound > ref + tol) {
        sheet_.fail_check(label + " bound " + number(sample.bound) +
                          " above the exact optimum " + number(ref));
        ok = false;
      } else if (sample.bound < ref - tol) {
        // Below the optimum is only legitimate off the simplex path.
        const auto routed = wp::bounds::compute_bound_detail(
            sample.instance, spec, daemon_options().bounds);
        if (!routed.solution.basis.empty()) {
          sheet_.fail_check(label + " simplex-routed bound " +
                            number(sample.bound) + " differs from the exact " +
                            number(ref));
          ok = false;
        }
      }
      if (!ok) failed.push_back(sample.index);
      if (ref > 0) ratio_ = std::min(ratio_, sample.bound / ref);
    }
    return failed;
  }

  /// The quality metrics (untraced runs only) and the digest.
  void report(Sheet& sheet, bool metrics) const {
    if (metrics) {
      sheet.set("bound_ratio", ratio_, "ratio");
      sheet.set("rounded_ratio", 1.0 + mean(gaps_), "ratio");
      sheet.set("regret_ratio", 1.0 + mean(regrets_), "ratio");
    }
    sheet.deterministic("publishes", publishes_);
    sheet.deterministic("bounds", bounds_);
    sheet.deterministic("bound_ratio", number(ratio_));
    sheet.deterministic("rounding_gap", number(mean(gaps_)));
    sheet.deterministic("regret_rel", number(mean(regrets_)));
  }

 private:
  struct Sample {
    std::size_t index;
    wp::mcperf::Instance instance;
    double bound;
  };
  Sheet& sheet_;
  std::vector<std::size_t> sampled_;
  std::vector<Sample> samples_;
  std::vector<double> regrets_, gaps_;
  std::string publishes_, bounds_;
  double ratio_ = 1;
};

struct Setup {
  std::vector<double> seconds;
  std::vector<LoadTimes> load_times;
  std::unique_ptr<wp::service::PlacementDaemon> daemon;
  wp::mcperf::Instance instance;  // the start instance, for extra daemons
  std::vector<Batch> calls;
};

/// The measured set-up, repeated: load, build the instance, construct the
/// daemon and run its cold start(). Appends the timings of `reps` set-ups
/// (after `warmups` untimed ones) to `setup`; the last one's daemon serves.
void measured_setup(const WorkloadSpec& spec, const InputFiles& files,
                    int warmups, int reps, Setup& setup) {
  for (int rep = 0; rep < warmups + reps; ++rep) {
    setup.daemon.reset();
    LoadTimes times;
    Timer timer;
    auto loaded = load_inputs(files, spec.tqos, times);
    setup.daemon = std::make_unique<wp::service::PlacementDaemon>(
        loaded.instance, daemon_options());
    setup.daemon->start();
    const double seconds = timer.seconds();
    if (rep < warmups) continue;
    setup.seconds.push_back(seconds);
    setup.load_times.push_back(times);
    if (rep + 1 == warmups + reps) {
      setup.instance = std::move(loaded.instance);
      setup.calls = make_calls(loaded.events, spec.batched);
    }
  }
}

void finish_checks(Tracker& tracker, std::vector<bool>& ok, Sheet& sheet) {
  for (std::size_t index : tracker.check_samples()) ok[index] = false;
  for (bool call_ok : ok) sheet.attempt(call_ok);
}

void run_untraced(const Args& args, const WorkloadSpec& spec, Setup& setup,
                  Sheet& sheet) {
  auto& daemon = *setup.daemon;
  Tracker tracker(args.seed, sheet);
  std::vector<double> latency_ms;
  std::vector<bool> ok;
  const double cpu0 = process_cpu_seconds();
  Timer phase;
  for (std::size_t index = 0; index < setup.calls.size(); ++index) {
    if (index >= kPrefixCalls && phase.seconds() >= args.seconds) break;
    bool call_ok = false;
    try {
      Timer timer;
      const auto out = call(daemon, setup.calls[index], spec.batched);
      latency_ms.push_back(timer.ms());
      call_ok = tracker.record(index, out, daemon);
    } catch (const std::exception& err) {
      sheet.fail_check("call #" + std::to_string(index + 1) + " threw: " +
                       err.what());
    }
    ok.push_back(call_ok);
  }
  const double phase_s = phase.seconds();
  const double cpu_s = process_cpu_seconds() - cpu0;
  finish_checks(tracker, ok, sheet);

  const double calls = static_cast<double>(ok.size());
  sheet.set("op_p50_ms", median(latency_ms), "ms");
  sheet.set("op_p90_ms", quantile(latency_ms, 0.9), "ms");
  sheet.set("ops_per_s", calls / phase_s, "1/s");
  sheet.set("cpu_s_per_op", cpu_s / calls, "s");
  sheet.set("peak_rss_mb", peak_rss_mb(), "MiB");
  sheet.set("ok_frac", 1.0 - static_cast<double>(sheet.failed()) / calls,
            "fraction");
  tracker.report(sheet, true);
}

void run_traced(const Args& args, const WorkloadSpec& spec, Setup& setup,
                Sheet& sheet) {
  auto& registry = wp::obs::Registry::global();
  auto& plain = *setup.daemon;  // registry off
  wp::service::PlacementDaemon traced(setup.instance, daemon_options());
  traced.start();
  Mirror mirror(setup.instance, daemon_options());
  Timer achievability_timer;
  (void)wp::mcperf::max_achievable_qos(setup.instance, daemon_options().spec);
  const double achievability_ms = achievability_timer.ms();
  Timer build_timer;
  (void)wp::mcperf::build_lp(setup.instance, daemon_options().spec);
  const double build_ms = build_timer.ms();
  const auto start = mirror.start();

  Tracker tracker(args.seed, sheet);
  CounterTotals totals;
  std::vector<double> plain_ms, traced_ms, export_ms, validate_ms, patch_ms,
      resolve_ms, audit_ms, policy_ms, rounding_ms, unattributed_ms;
  std::vector<bool> ok;
  std::size_t rebuilds = 0, cap_hits = 0, pivots = 0, events = 0,
              publishes = 0;
  const std::size_t count = std::min(kPrefixCalls, setup.calls.size());
  for (std::size_t index = 0; index < count; ++index) {
    const auto& batch = setup.calls[index];
    bool call_ok = false;
    try {
      Timer plain_timer;
      const auto plain_out = call(plain, batch, spec.batched);
      plain_ms.push_back(plain_timer.ms());

      registry.enable(true);
      const auto before = registry.snapshot();
      Timer traced_timer;
      const auto out = call(traced, batch, spec.batched);
      traced_ms.push_back(traced_timer.ms());
      const auto after = registry.snapshot();
      export_ms.push_back(time_export_ms(1));
      registry.enable(false);
      totals.add(before, after);

      const auto stages = mirror.step(batch, spec.batched);
      validate_ms.push_back(stages.validate_ms);
      patch_ms.push_back(stages.patch_ms);
      resolve_ms.push_back(stages.resolve_ms);
      audit_ms.push_back(stages.audit_ms);
      policy_ms.push_back(stages.policy_ms);
      rounding_ms.push_back(stages.rounding_ms);
      unattributed_ms.push_back(plain_ms.back() - stages.validate_ms -
                                stages.patch_ms - stages.resolve_ms -
                                stages.audit_ms - stages.policy_ms);
      rebuilds += stages.rebuilds;
      cap_hits += stages.cap_hit ? 1 : 0;
      pivots += out.pivots;
      events += batch.size();
      publishes += out.published ? 1 : 0;

      call_ok = tracker.record(index, out, traced);
      if (stages.bound != out.lower_bound || plain_out.lower_bound != out.lower_bound) {
        sheet.fail_check("call #" + std::to_string(index + 1) +
                         ": mirror bound " + number(stages.bound) +
                         ", untraced daemon " + number(plain_out.lower_bound) +
                         ", traced daemon " + number(out.lower_bound));
        call_ok = false;
      }
    } catch (const std::exception& err) {
      registry.enable(false);
      sheet.fail_check("call #" + std::to_string(index + 1) + " threw: " +
                       err.what());
    }
    ok.push_back(call_ok);
  }
  finish_checks(tracker, ok, sheet);
  tracker.report(sheet, false);

  const double calls = static_cast<double>(std::max<std::size_t>(count, 1));
  const double simplex_s = totals["simplex.solve_seconds"];
  const double pdhg_s = totals["pdhg.solve_seconds"];
  const double simplex_pivots = totals["simplex.iterations"];
  const double warm_attempts = totals["simplex.warm.attempts"];
  sheet.set("lp.simplex.solve_ms", 1e3 * simplex_s / calls, "ms/op");
  sheet.set("lp.simplex.pivots", simplex_pivots / calls, "count/op");
  sheet.set("lp.simplex.us_per_pivot",
            simplex_pivots > 0 ? 1e6 * simplex_s / simplex_pivots : 0, "us");
  sheet.set("lp.simplex.refactorizations",
            totals["simplex.refactorizations"] / calls, "count/op");
  sheet.set("lp.simplex.warm_accept_frac",
            warm_attempts > 0 ? totals["simplex.warm.accepted"] / warm_attempts
                              : 0,
            "fraction");
  sheet.set("lp.pdhg.solve_ms", 1e3 * pdhg_s / calls, "ms/op");
  sheet.set("lp.pdhg.iterations", totals["pdhg.iterations"] / calls, "count/op");
  sheet.set("lp.pdhg.restarts", totals["pdhg.restarts"] / calls, "count/op");
  sheet.set("lp.pdhg.cap_hits", static_cast<double>(cap_hits) / calls,
            "count/op");
  sheet.set("lp.pdhg_share",
            simplex_s + pdhg_s > 0 ? pdhg_s / (simplex_s + pdhg_s) : 0,
            "fraction");
  sheet.set("lp.lu.factorizations", totals["lu.factorizations"] / calls,
            "count/op");
  sheet.deterministic(
      "counts", "simplex.iterations=" + number(simplex_pivots) +
                    " pdhg.iterations=" + number(totals["pdhg.iterations"]) +
                    " pdhg.restarts=" + number(totals["pdhg.restarts"]) +
                    " pdhg.solves=" + number(totals["pdhg.solves"]) +
                    " simplex.solves=" + number(totals["simplex.solves"]) +
                    " rebuilds=" + std::to_string(rebuilds));

  const auto lu = time_lu_kernels(mirror.start_model(), mirror.start_basis());
  if (!lu.ok) sheet.fail_check("start basis did not factorize");
  sheet.set("lp.lu.factorize_ms", lu.factorize_ms, "ms");
  sheet.set("lp.lu.ftran_us", lu.ftran_us, "us");
  sheet.set("lp.lu.btran_us", lu.btran_us, "us");

  sheet.set("mcperf.validate_ms", median(validate_ms), "ms");
  sheet.set("mcperf.patch_ms", median(patch_ms), "ms");
  sheet.set("mcperf.rebuilds", static_cast<double>(rebuilds), "count");
  sheet.set("bounds.resolve_ms", median(resolve_ms), "ms");
  sheet.set("bounds.rounding_ms", median(rounding_ms), "ms");
  sheet.set("service.audit_ms", median(audit_ms), "ms");
  sheet.set("service.policy_ms", median(policy_ms), "ms");
  sheet.set("service.unattributed_ms", median(unattributed_ms), "ms");
  sheet.set("service.pivots_per_event",
            events > 0 ? static_cast<double>(pivots) / static_cast<double>(events)
                       : 0,
            "count");
  sheet.set("service.publish_frac", static_cast<double>(publishes) / calls,
            "fraction");
  sheet.set("service.basis_drops",
            static_cast<double>(traced.status().basis_drops), "count");
  sheet.set("obs.trace_overhead", median(traced_ms) / median(plain_ms) - 1.0,
            "ratio");
  sheet.set("obs.export_ms", median(export_ms), "ms");

  // Per-class metrics: the daemon tracks the general class only.
  for (const auto& cls : class_names()) {
    const bool general = cls == daemon_options().spec.name;
    sheet.set("mcperf.achievability_ms." + cls, general ? achievability_ms : 0,
              "ms");
    sheet.set("mcperf.build_lp_ms." + cls, general ? build_ms : 0, "ms");
    sheet.set("mcperf.lp_rows." + cls,
              general ? static_cast<double>(mirror.rows()) : 0, "count");
    sheet.set("bounds.compute_ms." + cls, general ? start.resolve_ms : 0, "ms");
  }
  sheet.deterministic("lp_rows", number(static_cast<double>(mirror.rows())));
  for (const char* name : {"core.select.general_ms", "core.select.fanout_ms",
                           "core.select.class_sum_ms"})
    sheet.set(name, 0, "ms");
  sheet.set("core.select.parallel_eff", 0, "ratio");
}

}  // namespace

void run_serve(const Args& args, const WorkloadSpec& spec,
               const InputFiles& files, Sheet& sheet) {
  Setup setup;
  measured_setup(spec, files, kSetupWarmups, kSetupReps, setup);
  if (args.trace)
    run_traced(args, spec, setup, sheet);
  else
    run_untraced(args, spec, setup, sheet);
  measured_setup(spec, files, 0, kSetupReps, setup);
  if (args.trace)
    set_load_metrics(setup.load_times, sheet);
  else
    sheet.set("setup_s", median(setup.seconds), "s");
}

}  // namespace perfbench
