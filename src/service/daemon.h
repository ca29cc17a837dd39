// Continuous re-placement daemon: the paper's one-shot bound pipeline run
// as a long-lived service over a drifting instance.
//
// The daemon owns an Instance and mutates it in place as events arrive
// (per-interval demand deltas, node join/leave, latency updates). After
// every event it re-optimizes: the LP is delta-patched instead of rebuilt
// whenever the event is inside the incremental window (see
// mcperf::delta_supported), the dual simplex warm-starts from the basis of
// the previous solve (shape-repaired across add/drop), and the rounded
// plan is handed to the publish policy, which decides whether the live
// placement is worth swapping.
//
// Observability: every event is traced as a `service.event` span (attrs:
// monotonic event index, kind label) with nested per-stage spans
// (service.validate / patch / resolve / audit / policy), the regret
// auditor re-evaluates the incumbent against the drifted instance
// (service.regret.* metrics), and one SeriesPoint per event — rejected
// events included, at their consumed index — lands in a bounded ring
// (`series()`) that `wanplace_cli serve --metrics-out` exports after every
// event. `status()` is the health snapshot a probe would poll.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "bounds/engine.h"
#include "bounds/feasible.h"
#include "obs/timeseries.h"
#include "service/audit.h"
#include "service/delta.h"
#include "service/policy.h"

namespace wanplace::service {

struct DaemonOptions {
  /// The heuristic class the daemon tracks; defaults to the general bound.
  mcperf::ClassSpec spec;
  bounds::BoundOptions bounds;
  PublishPolicy policy;
  /// The QoS latency threshold the instance's dist matrix was built with;
  /// join/latency-update events re-threshold new edges against it. Must be
  /// positive when the event stream contains topology events.
  double tlat_ms = 0;
  /// Ring capacity of the per-event time series (memory bound).
  std::size_t series_capacity = 4096;
};

/// What one event did to the daemon, for replay logs and the golden tests.
struct EventOutcome {
  std::size_t index = 0;       // 0 for start(), 1.. for events
  std::string kind;            // "start", workload::event_kind or "batch[N]"
  bool rejected = false;       // malformed event; daemon state untouched
  std::string error;           // rejection message when rejected

  bool incremental = false;    // LP delta-patched (vs rebuilt)
  bool warm = false;           // solve started from a carried basis
  lp::SolveStatus status = lp::SolveStatus::IterationLimit;
  bool achievable = false;
  double lower_bound = 0;
  std::size_t pivots = 0;      // solver iterations of this event's solve
  bounds::SolverRun solver;    // which solver produced the bound

  bool candidate_feasible = false;
  double candidate_cost = 0;
  bool incumbent_feasible = false;  // incumbent re-evaluated post-event
  double incumbent_cost = 0;

  /// Full regret audit of the standing incumbent against the drifted
  /// instance (audit.exists == false before the first publish).
  RegretAudit audit;

  bool published = false;
  std::string reason;          // PublishDecision::reason or "rejected"
};

/// Point-in-time health snapshot of the daemon, for probes and the CLI's
/// end-of-replay report.
struct DaemonStatus {
  bool has_plan = false;
  double incumbent_cost = 0;   // latest audited cost of the live plan
  double published_cost = 0;   // its cost at the moment it was published
  double lower_bound = 0;      // latest certified bound
  double regret = 0;           // incumbent_cost - lower_bound
  double relative_regret = 0;
  double margin = 0;           // policy min_relative_gain in force
  std::string last_reason;     // last publish-policy reason
  std::uint64_t events = 0;    // total events ingested (incl. rejected)
  std::uint64_t applied = 0;
  std::uint64_t rejected = 0;
  std::uint64_t publishes = 0;
  std::uint64_t holds = 0;
  std::uint64_t rebuilds = 0;        // full model rebuilds (incl. start)
  std::uint64_t incremental = 0;     // delta-patched events
  std::uint64_t basis_drops = 0;     // warm-start basis discarded (fallback)
  std::uint64_t events_since_publish = 0;
};

class PlacementDaemon {
 public:
  /// QoS-metric instances only (the incumbent is re-audited after every
  /// event).
  PlacementDaemon(mcperf::Instance instance, DaemonOptions options);

  /// Cold-solve the initial instance; publishes the first plan when the
  /// rounding produced a feasible one. Call once, before any event.
  EventOutcome start();

  /// Ingest one drift event: exactly on_batch({event}), except that the
  /// outcome and its series point carry the event's own kind
  /// (workload::event_kind) instead of "batch[1]".
  EventOutcome on_event(const workload::Event& event);

  /// Ingest a burst of events as ONE re-optimization point. The batch is
  /// dry-run on a scratch instance first, so one invalid event rejects it
  /// atomically (instance, model and plan unchanged; every event counted
  /// rejected at its consumed index). A valid batch folds every mutation
  /// and model patch in, then runs one warm re-solve, incumbent audit and
  /// publish decision, and one series point, under kind "batch[N]";
  /// applied + rejected == events still holds. REQUIREs a non-empty batch.
  EventOutcome on_batch(const workload::EventBatch& batch);

  const mcperf::Instance& instance() const { return instance_; }
  bool has_plan() const { return incumbent_.has_value(); }
  /// The live placement; REQUIREs has_plan().
  const bounds::Placement& plan() const;
  /// Cost of the live placement at the moment it was published.
  double published_cost() const { return published_cost_; }
  std::size_t events_seen() const { return events_; }
  std::size_t publishes() const { return publishes_; }

  /// Per-event time series (one point per start/event, rejected included).
  const obs::TimeSeries& series() const { return series_; }
  /// Health snapshot reflecting the last finished event.
  DaemonStatus status() const;

 private:
  /// Wall seconds per stage, indexed like the stage table in daemon.cpp.
  using StageSeconds = std::array<double, 5>;

  /// The one ingest body behind on_event and on_batch; `kind` names the
  /// outcome and its series point.
  EventOutcome ingest(std::span<const workload::Event> events,
                      std::string kind);
  EventOutcome finish(EventOutcome outcome, bounds::BoundDetail detail,
                      StageSeconds stages);
  void append_point(const EventOutcome& outcome, const StageSeconds& stages);

  mcperf::Instance instance_;
  DaemonOptions options_;
  ModelState state_;
  std::optional<bounds::Placement> incumbent_;
  obs::TimeSeries series_;
  double published_cost_ = 0;
  std::size_t events_ = 0;
  std::size_t publishes_ = 0;
  /// Iterations of the most recent cold (basis-free) solve: the baseline
  /// for the service.pivots_saved counter.
  std::size_t last_cold_pivots_ = 0;
  bool started_ = false;

  // Status bookkeeping (mirrors the service.* counters so status() works
  // with metrics disabled).
  std::uint64_t applied_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t holds_ = 0;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t incremental_ = 0;
  std::uint64_t basis_drops_ = 0;
  std::uint64_t events_since_publish_ = 0;
  RegretAudit last_audit_;
  double last_bound_ = 0;
  std::string last_reason_;
};

}  // namespace wanplace::service
