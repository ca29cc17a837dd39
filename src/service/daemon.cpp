#include "service/daemon.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <variant>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace wanplace::service {

namespace {

/// The three names of one daemon stage: its trace span, its latency
/// histogram (so --trace-summary can show stage quantiles) and its key in
/// the series point's `seconds`.
struct StageNames {
  const char* span;
  const char* histogram;
  const char* key;
};

/// Ring capacity of the per-event time series (memory bound).
constexpr std::size_t kSeriesCapacity = 4096;

enum Stage : std::size_t { kValidate, kPatch, kResolve, kAudit, kPolicy };

/// Indexed by Stage; series points list the stages in this order.
constexpr StageNames kStages[] = {
    {"service.validate", "service.stage.validate_s", "validate"},
    {"service.patch", "service.stage.patch_s", "patch"},
    {"service.resolve", "service.stage.resolve_s", "resolve"},
    {"service.audit", "service.stage.audit_s", "audit"},
    {"service.policy", "service.stage.policy_s", "policy"},
};

/// One timed stage: the stage's span while open; on close, the wall
/// seconds go to the stage's slot and (when enabled) its histogram.
class StageScope {
 public:
  StageScope(Stage stage, std::array<double, std::size(kStages)>& seconds)
      : stage_(stage), seconds_(seconds), span_(kStages[stage].span) {}
  ~StageScope() {
    seconds_[stage_] = watch_.elapsed_seconds();
    if (obs::metrics_enabled())
      obs::histogram_record(kStages[stage_].histogram, seconds_[stage_]);
  }
  void attr(const char* key, double value) { span_.attr(key, value); }

 private:
  Stage stage_;
  std::array<double, std::size(kStages)>& seconds_;
  obs::Span span_;
  Stopwatch watch_;
};

}  // namespace

PlacementDaemon::PlacementDaemon(mcperf::Instance instance,
                                 DaemonOptions options)
    : instance_(std::move(instance)),
      options_(std::move(options)),
      series_(kSeriesCapacity) {
  WANPLACE_REQUIRE(std::holds_alternative<mcperf::QosGoal>(instance_.goal),
                   "PlacementDaemon requires a QoS-metric instance");
  if (options_.tlat_ms <= 0 && instance_.links)
    options_.tlat_ms = instance_.links->tlat_ms;
}

EventOutcome PlacementDaemon::start() {
  WANPLACE_REQUIRE(!started_, "PlacementDaemon::start called twice");
  started_ = true;
  EventOutcome out;
  out.kind = "start";
  obs::Span span("service.event");
  span.attr("event", 0);
  span.label("kind", out.kind);
  // The initial model is by definition a full build.
  ++rebuilds_;
  if (obs::metrics_enabled()) obs::counter_add("service.rebuilds");
  StageSeconds stages{};
  bounds::BoundDetail detail;
  {
    StageScope resolve(kResolve, stages);
    detail = bounds::compute_bound_detail(instance_, options_.spec,
                                          options_.bounds);
  }
  return finish(std::move(out), std::move(detail), stages);
}

EventOutcome PlacementDaemon::on_event(const workload::Event& event) {
  return ingest({&event, 1}, workload::event_kind(event));
}

EventOutcome PlacementDaemon::on_batch(const workload::EventBatch& batch) {
  return ingest(batch, "batch[" + std::to_string(batch.size()) + "]");
}

EventOutcome PlacementDaemon::ingest(std::span<const workload::Event> events,
                                     std::string kind) {
  WANPLACE_REQUIRE(started_, "call PlacementDaemon::start before any event");
  WANPLACE_REQUIRE(!events.empty(), "on_batch needs at least one event");
  const auto count = static_cast<double>(events.size());
  EventOutcome out;
  events_ += events.size();
  out.index = events_;  // the last consumed event index
  out.kind = std::move(kind);
  obs::Span span("service.event");
  span.attr("event", static_cast<double>(out.index));
  span.attr("batch", count);
  span.label("kind", out.kind);
  if (obs::metrics_enabled()) {
    obs::counter_add("service.events", count);
    obs::gauge_set("service.event_index", static_cast<double>(out.index));
  }
  StageSeconds stages{};

  {
    StageScope validate(kValidate, stages);
    // Atomic all-or-nothing: dry-run every event on a scratch copy, so one
    // bad event anywhere rejects the call before the real instance, the
    // model, or the live plan is touched. Every rejected event still
    // consumes its index — recorded at that index in the counters, the
    // span and the series — so applied + rejected == events always holds.
    mcperf::Instance scratch = instance_;
    try {
      for (const auto& event : events)
        scratch.apply_delta(event, options_.tlat_ms);
    } catch (const InvalidArgument& err) {
      out.rejected = true;
      out.error = err.what();
      out.reason = "rejected";
      rejected_ += events.size();
      validate.attr("rejected", count);
      if (obs::metrics_enabled()) obs::counter_add("service.rejected", count);
    }
  }
  if (out.rejected) {
    append_point(out, stages);
    return out;
  }
  applied_ += events.size();
  if (obs::metrics_enabled()) obs::counter_add("service.applied", count);

  {
    StageScope patch(kPatch, stages);
    // Fold every event's mutation and model patch in before the single
    // re-solve below; the outcome is incremental only if every event was.
    out.incremental = true;
    for (const auto& event : events) {
      // The incremental-window decision is taken on the PRE-event
      // instance: whether an event is patchable must not depend on the
      // mutation it is about to make (apply_delta re-checks post-event as
      // a guard; the two views agreeing is regression-fuzzed).
      const bool pre_supported =
          mcperf::delta_supported(instance_, options_.spec, event);
      instance_.apply_delta(event, options_.tlat_ms);
      const bool incremental = advance_model(instance_, options_.spec, event,
                                             state_, pre_supported);
      out.incremental = out.incremental && incremental;
      ++(incremental ? incremental_ : rebuilds_);
      // The live plan keeps its shape in step with the node set: a fresh
      // node stores nothing until a publish says otherwise.
      if (incumbent_ && std::holds_alternative<workload::NodeJoinEvent>(event))
        incumbent_->grow_x(instance_.node_count());
    }
    patch.attr("incremental", out.incremental ? 1 : 0);
  }

  bounds::BoundDetail detail;
  {
    StageScope resolve(kResolve, stages);
    bounds::BoundOptions solve = options_.bounds;
    if (!state_.basis.empty()) {
      solve.warm.basis = &state_.basis;
      out.warm = true;
    }
    detail = bounds::compute_bound_built(instance_, options_.spec,
                                         std::move(state_.built), solve);
  }
  return finish(std::move(out), std::move(detail), stages);
}

EventOutcome PlacementDaemon::finish(EventOutcome out,
                                     bounds::BoundDetail detail,
                                     StageSeconds stages) {
  state_.built = std::move(detail.built);
  state_.valid = state_.built.model.variable_count() > 0;
  if (!detail.solution.basis.empty()) {
    state_.basis = std::move(detail.solution.basis);
  } else if (!state_.basis.compatible(state_.built.model.variable_count(),
                                      state_.built.model.row_count())) {
    // No basis exported (infeasible solve, PDHG, or gated-out build) and
    // the carried one no longer fits — drop it rather than mislead the
    // next warm start.
    if (!state_.basis.empty()) {
      ++basis_drops_;
      if (obs::metrics_enabled()) obs::counter_add("service.basis_drops");
    }
    state_.basis = {};
  }

  out.status = detail.bound.status;
  out.achievable = detail.bound.achievable;
  out.lower_bound = detail.bound.lower_bound;
  out.pivots = detail.solution.iterations;
  out.solver = detail.bound.solver;
  last_bound_ = out.lower_bound;
  if (obs::metrics_enabled())
    obs::counter_add("service.pivots", static_cast<double>(out.pivots));
  if (out.warm) {
    if (last_cold_pivots_ > out.pivots && obs::metrics_enabled())
      obs::counter_add("service.pivots_saved",
                       static_cast<double>(last_cold_pivots_ - out.pivots));
  } else if (out.achievable) {
    last_cold_pivots_ = out.pivots;
  }

  const CandidatePlan candidate{detail.bound.rounded_feasible,
                                detail.bound.rounded_cost};
  out.candidate_feasible = candidate.feasible;
  out.candidate_cost = candidate.cost;
  if (!candidate.feasible && obs::metrics_enabled()) {
    // The regret table's "no-candidate" cells come from here: either the
    // certified bound already says the QoS goal is unachievable for this
    // class on the drifted instance (no placement can hit tqos — e.g.
    // plain caching once drift pushes demand outside the origin's reach),
    // or the LP was achievable but rounding failed to extract a feasible
    // integral plan from it.
    obs::counter_add("service.regret.no_candidate");
    obs::counter_add(out.achievable
                         ? "service.regret.no_candidate.rounding"
                         : "service.regret.no_candidate.unachievable");
  }

  {
    StageScope audit(kAudit, stages);
    if (incumbent_) {
      out.audit = audit_incumbent(instance_, options_.spec, *incumbent_);
      out.audit.lower_bound = out.lower_bound;
      out.audit.bound_certified = out.achievable;
      if (out.audit.bound_certified) {
        out.audit.regret = out.audit.cost - out.audit.lower_bound;
        out.audit.relative_regret =
            out.audit.regret / std::max(out.audit.lower_bound, 1.0);
      }
    }
  }
  const IncumbentPlan incumbent{out.audit.exists, out.audit.feasible(),
                                out.audit.cost};
  out.incumbent_feasible = incumbent.feasible;
  out.incumbent_cost = incumbent.cost;

  PublishDecision decision;
  {
    StageScope policy(kPolicy, stages);
    decision = decide(options_.policy, incumbent, candidate);
  }
  out.published = decision.publish;
  out.reason = decision.reason;
  last_reason_ = out.reason;
  if (decision.publish) {
    incumbent_ = detail.rounding.placement;
    published_cost_ = candidate.cost;
    ++publishes_;
    events_since_publish_ = 0;
    if (obs::metrics_enabled()) obs::counter_add("service.publishes");
  } else {
    ++holds_;
    if (incumbent_) ++events_since_publish_;
    if (obs::metrics_enabled()) obs::counter_add("service.holds");
  }
  out.audit.events_since_publish = events_since_publish_;
  last_audit_ = out.audit;
  publish_audit_metrics(out.audit);

  append_point(out, stages);
  return out;
}

void PlacementDaemon::append_point(const EventOutcome& out,
                                   const StageSeconds& stages) {
  obs::SeriesPoint point;
  point.index = out.index;
  point.kind = out.kind;
  point.rejected = out.rejected;
  if (!out.rejected) {
    point.values = {
        {"lower_bound", out.lower_bound},
        {"achievable", out.achievable ? 1.0 : 0.0},
        {"pivots", static_cast<double>(out.pivots)},
        {"incremental", out.incremental ? 1.0 : 0.0},
        {"candidate_cost", out.candidate_cost},
        {"candidate_feasible", out.candidate_feasible ? 1.0 : 0.0},
        {"incumbent_cost", out.incumbent_cost},
        {"incumbent_feasible", out.incumbent_feasible ? 1.0 : 0.0},
        {"published", out.published ? 1.0 : 0.0},
    };
    if (out.audit.exists) {
      point.values.emplace_back("min_qos", out.audit.min_qos);
      point.values.emplace_back("qos_slack", out.audit.qos_slack);
      point.values.emplace_back(
          "staleness", static_cast<double>(out.audit.events_since_publish));
      if (out.audit.bound_certified) {
        point.values.emplace_back("regret", out.audit.regret);
        point.values.emplace_back("relative_regret",
                                  out.audit.relative_regret);
      }
    }
  }
  point.seconds.reserve(std::size(kStages));
  for (std::size_t s = 0; s < std::size(kStages); ++s)
    point.seconds.emplace_back(kStages[s].key, stages[s]);
  series_.append(std::move(point));
}

DaemonStatus PlacementDaemon::status() const {
  DaemonStatus status;
  status.has_plan = incumbent_.has_value();
  status.incumbent_cost = last_audit_.exists ? last_audit_.cost : 0;
  status.published_cost = published_cost_;
  status.lower_bound = last_bound_;
  if (last_audit_.exists && last_audit_.bound_certified) {
    status.regret = last_audit_.regret;
    status.relative_regret = last_audit_.relative_regret;
  }
  status.margin = options_.policy.min_relative_gain;
  status.last_reason = last_reason_;
  status.events = events_;
  status.applied = applied_;
  status.rejected = rejected_;
  status.publishes = publishes_;
  status.holds = holds_;
  status.rebuilds = rebuilds_;
  status.incremental = incremental_;
  status.basis_drops = basis_drops_;
  status.events_since_publish = events_since_publish_;
  return status;
}

const bounds::Placement& PlacementDaemon::plan() const {
  WANPLACE_REQUIRE(incumbent_.has_value(),
                   "PlacementDaemon has no published plan");
  return *incumbent_;
}

}  // namespace wanplace::service
