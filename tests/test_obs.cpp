// Telemetry subsystem tests: registry merge determinism under the thread
// pool, span nesting + JSONL schema, sensitivity reports, and the
// "telemetry never perturbs solves" differential guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bounds/engine.h"
#include "core/selector.h"
#include "instance_helpers.h"
#include "lp/lu.h"
#include "lp/pdhg.h"
#include "lp/simplex.h"
#include "mcperf/builder.h"
#include "mcperf/heuristic_class.h"
#include "obs/metrics.h"
#include "obs/solve_report.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace wanplace {
namespace {

/// Turns the telemetry layer on for one test and restores the default
/// disabled state (with cleared buffers) on exit, so tests can run in any
/// order within one process.
struct TelemetryScope {
  TelemetryScope() {
    obs::Registry::global().enable(true);
    obs::Registry::global().reset();
    obs::Tracer::global().enable(true);
    obs::Tracer::global().reset();
  }
  ~TelemetryScope() {
    obs::Registry::global().enable(false);
    obs::Registry::global().reset();
    obs::Tracer::global().enable(false);
    obs::Tracer::global().reset();
  }
};

bool contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

TEST(ObsRegistry, DisabledCallsAreNoops) {
  ASSERT_FALSE(obs::metrics_enabled());
  obs::counter_add("obs_test.disabled_counter");
  obs::gauge_set("obs_test.disabled_gauge", 7);
  obs::histogram_record("obs_test.disabled_histogram", 1.5);
  const auto snapshot = obs::Registry::global().snapshot();
  EXPECT_EQ(snapshot.count("obs_test.disabled_counter"), 0u);
  EXPECT_EQ(snapshot.count("obs_test.disabled_gauge"), 0u);
  EXPECT_EQ(snapshot.count("obs_test.disabled_histogram"), 0u);
}

TEST(ObsRegistry, KindsAggregateCorrectly) {
  TelemetryScope scope;
  obs::counter_add("obs_test.counter");
  obs::counter_add("obs_test.counter", 2);
  obs::gauge_set("obs_test.gauge", 3);
  obs::gauge_set("obs_test.gauge", 9);
  obs::histogram_record("obs_test.histogram", 2);
  obs::histogram_record("obs_test.histogram", -1);
  obs::histogram_record("obs_test.histogram", 5);
  const auto snapshot = obs::Registry::global().snapshot();

  const auto& counter = snapshot.at("obs_test.counter");
  EXPECT_EQ(counter.kind, obs::MetricValue::Kind::Counter);
  EXPECT_EQ(counter.count, 2u);
  EXPECT_EQ(counter.sum, 3.0);

  const auto& gauge = snapshot.at("obs_test.gauge");
  EXPECT_EQ(gauge.kind, obs::MetricValue::Kind::Gauge);
  EXPECT_EQ(gauge.sum, 9.0);  // latest write wins

  const auto& histogram = snapshot.at("obs_test.histogram");
  EXPECT_EQ(histogram.kind, obs::MetricValue::Kind::Histogram);
  EXPECT_EQ(histogram.count, 3u);
  EXPECT_EQ(histogram.sum, 6.0);
  EXPECT_EQ(histogram.min, -1.0);
  EXPECT_EQ(histogram.max, 5.0);
  EXPECT_EQ(histogram.mean(), 2.0);
}

TEST(ObsRegistry, MergeIsDeterministicUnderThreadPool) {
  // Integer-valued contributions merge exactly regardless of which pool
  // worker's shard recorded them: two racing rounds must produce the same
  // snapshot, equal to the serial expectation.
  constexpr std::size_t kBlocks = 512;
  double expected_work = 0;
  double expected_len_sum = 0;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    expected_work += static_cast<double>(b % 7);
    expected_len_sum += static_cast<double>(b % 11);
  }
  obs::Snapshot snapshots[2];
  for (int round = 0; round < 2; ++round) {
    TelemetryScope scope;
    util::ThreadPool pool(4);
    pool.parallel_for(kBlocks, [](std::size_t b) {
      obs::counter_add("obs_test.pivots");
      obs::counter_add("obs_test.work", static_cast<double>(b % 7));
      obs::histogram_record("obs_test.len", static_cast<double>(b % 11));
    });
    snapshots[round] = obs::Registry::global().snapshot();

    const auto& pivots = snapshots[round].at("obs_test.pivots");
    EXPECT_EQ(pivots.count, kBlocks);
    EXPECT_EQ(pivots.sum, static_cast<double>(kBlocks));
    EXPECT_EQ(snapshots[round].at("obs_test.work").sum, expected_work);
    const auto& len = snapshots[round].at("obs_test.len");
    EXPECT_EQ(len.count, kBlocks);
    EXPECT_EQ(len.sum, expected_len_sum);
    EXPECT_EQ(len.min, 0.0);
    EXPECT_EQ(len.max, 10.0);
  }
  ASSERT_EQ(snapshots[0].size(), snapshots[1].size());
  for (const auto& [name, value] : snapshots[0]) {
    const auto& other = snapshots[1].at(name);
    EXPECT_EQ(value.count, other.count) << name;
    EXPECT_EQ(value.sum, other.sum) << name;
  }
}

TEST(ObsRegistry, ResetZeroesCells) {
  TelemetryScope scope;
  obs::counter_add("obs_test.reset_me", 5);
  obs::Registry::global().reset();
  obs::counter_add("obs_test.reset_me", 2);
  const auto snapshot = obs::Registry::global().snapshot();
  EXPECT_EQ(snapshot.at("obs_test.reset_me").sum, 2.0);
  EXPECT_EQ(snapshot.at("obs_test.reset_me").count, 1u);
}

TEST(ObsTrace, DisabledSpanIsInactive) {
  ASSERT_FALSE(obs::trace_enabled());
  obs::Span span("nothing");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.id(), 0u);
  span.attr("ignored", 1);  // must be safe while inactive
  EXPECT_TRUE(obs::Tracer::global().spans().empty());
}

TEST(ObsTrace, SpanNestingLinksParentsAndAttrs) {
  TelemetryScope scope;
  {
    obs::Span outer("outer");
    outer.attr("pivots", 3);
    {
      obs::Span inner("inner");
      // Attaching to the *outer* span while a child is open must not land
      // on the child (the regression the shard-index design prevents).
      outer.attr("late", 1);
      inner.label("class", "caching");
    }
    WANPLACE_SPAN("leaf");
  }
  const auto spans = obs::Tracer::global().spans();
  ASSERT_EQ(spans.size(), 3u);
  // spans() orders by start time: outer opened first.
  const auto& outer = spans[0];
  const auto& inner = spans[1];
  const auto& leaf = spans[2];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(leaf.name, "leaf");
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_EQ(inner.parent, outer.id);
  EXPECT_EQ(leaf.parent, outer.id);
  ASSERT_EQ(outer.attrs.size(), 2u);
  EXPECT_EQ(outer.attrs[0].first, "pivots");
  EXPECT_EQ(outer.attrs[0].second, 3.0);
  EXPECT_EQ(outer.attrs[1].first, "late");
  ASSERT_EQ(inner.labels.size(), 1u);
  EXPECT_EQ(inner.labels[0].first, "class");
  EXPECT_EQ(inner.labels[0].second, "caching");
  EXPECT_GE(inner.start_s, outer.start_s);
  EXPECT_GE(outer.duration_s, inner.duration_s);
}

TEST(ObsTrace, ParentScopeAdoptsACrossThreadParent) {
  TelemetryScope scope;
  std::uint64_t fan_out_id = 0;
  {
    obs::Span fan_out("fan_out");
    fan_out_id = fan_out.id();
    std::thread worker([&] {
      const obs::ParentScope adopt(fan_out.id());
      obs::Span task("task");
      WANPLACE_SPAN("leaf");  // nests under the worker's own open span
    });
    worker.join();
    std::thread stray([] { WANPLACE_SPAN("stray"); });
    stray.join();
  }
  const auto spans = obs::Tracer::global().spans();
  ASSERT_EQ(spans.size(), 4u);
  ASSERT_NE(fan_out_id, 0u);
  const auto parent_of = [&](const std::string& name) {
    for (const auto& span : spans)
      if (span.name == name) return span.parent;
    return std::uint64_t{0};
  };
  EXPECT_EQ(parent_of("task"), fan_out_id);
  EXPECT_NE(parent_of("leaf"), fan_out_id);
  EXPECT_NE(parent_of("leaf"), 0u);
  EXPECT_EQ(parent_of("stray"), 0u);
}

// Every per-class `bound` span of a select nests under its `selector` span,
// whichever thread of the fan-out solved the class.
TEST(ObsTrace, SelectorFanOutKeepsBoundSpansUnderSelector) {
  const auto instance = test::random_instance(3);
  for (const std::size_t parallelism : {std::size_t{2}, std::size_t{4}}) {
    TelemetryScope scope;
    core::SelectorOptions options;
    options.parallelism = parallelism;
    const auto report = core::HeuristicSelector(options).select(instance);
    const auto spans = obs::Tracer::global().spans();
    std::uint64_t selector = 0;
    for (const auto& span : spans)
      if (span.name == "selector") selector = span.id;
    ASSERT_NE(selector, 0u) << "parallelism " << parallelism;
    std::size_t bounds = 0;
    for (const auto& span : spans) {
      if (span.name != "bound") continue;
      ++bounds;
      EXPECT_EQ(span.parent, selector) << "parallelism " << parallelism;
    }
    EXPECT_EQ(bounds, 1 + report.classes.size())
        << "parallelism " << parallelism;
  }
}

TEST(ObsTrace, JsonlMatchesSchema) {
  TelemetryScope scope;
  {
    obs::Span solve("solve");
    solve.attr("rows", 42);
    solve.label("note", "a\"b\nc");  // must be escaped in the output
  }
  obs::trace_sample("residual", 10, 0.5);
  obs::counter_add("obs_test.jsonl_counter", 2);
  obs::histogram_record("obs_test.jsonl_hist", 1.5);

  std::ostringstream out;
  obs::Tracer::global().write_jsonl(out);
  std::vector<std::string> lines;
  std::istringstream in(out.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  ASSERT_EQ(lines.size(), 5u);  // meta + 1 span + 1 sample + 2 metrics
  EXPECT_EQ(lines[0],
            "{\"type\":\"meta\",\"version\":2,\"spans\":1,\"samples\":1}");
  EXPECT_TRUE(contains(lines[1], "{\"type\":\"span\",\"id\":"));
  EXPECT_TRUE(contains(lines[1], "\"parent\":0"));
  EXPECT_TRUE(contains(lines[1], "\"name\":\"solve\""));
  EXPECT_TRUE(contains(lines[1], "\"rows\":42"));
  EXPECT_TRUE(contains(lines[1], "\"note\":\"a\\\"b\\nc\""));
  EXPECT_TRUE(contains(lines[2], "{\"type\":\"sample\",\"name\":"
                                 "\"residual\""));
  EXPECT_TRUE(contains(lines[2], "\"step\":10"));
  EXPECT_TRUE(contains(lines[2], "\"value\":0.5"));
  // The registry snapshot is name-sorted, so the counter precedes the
  // histogram at the end of the file.
  const std::string counter_line = lines[lines.size() - 2];
  const std::string hist_line = lines.back();
  EXPECT_EQ(counter_line,
            "{\"type\":\"metric\",\"name\":\"obs_test.jsonl_counter\","
            "\"kind\":\"counter\",\"count\":1,\"sum\":2}");
  // A single-sample histogram's quantiles clamp to the sample itself.
  EXPECT_EQ(hist_line,
            "{\"type\":\"metric\",\"name\":\"obs_test.jsonl_hist\","
            "\"kind\":\"histogram\",\"count\":1,\"sum\":1.5,"
            "\"min\":1.5,\"max\":1.5,\"p50\":1.5,\"p90\":1.5,"
            "\"p99\":1.5}");
  for (const auto& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_TRUE(contains(line, "\"type\":\""));
  }
}

TEST(ObsTrace, SummaryAggregatesByPath) {
  TelemetryScope scope;
  for (int i = 0; i < 2; ++i) {
    obs::Span bound("bound");
    obs::Span simplex("simplex");
    simplex.attr("iterations", 5);
  }
  const std::string summary = obs::Tracer::global().summary();
  EXPECT_TRUE(contains(summary, "trace summary (4 spans)"));
  EXPECT_TRUE(contains(summary, "bound  n=2"));
  // The child is indented under its parent path and sums its attrs.
  EXPECT_TRUE(contains(summary, "  simplex  n=2"));
  EXPECT_TRUE(contains(summary, "iterations=10"));
}

// summary() surfaces the hyper-sparse kernel telemetry — the FTRAN/BTRAN
// sparse/dense path split and the RHS-density histogram behind the
// crossover — from the metrics registry below the span tree, without
// dragging in unrelated metrics.
TEST(ObsTrace, SummaryIncludesKernelMetrics) {
  TelemetryScope scope;
  obs::counter_add("simplex.ftran.sparse", 7);
  obs::counter_add("simplex.ftran.dense", 3);
  obs::histogram_record("simplex.rhs_density", 0.05);
  obs::histogram_record("simplex.rhs_density", 0.15);
  obs::counter_add("obs_test.unrelated", 1);
  const std::string summary = obs::Tracer::global().summary();
  EXPECT_TRUE(contains(summary, "kernel metrics"));
  EXPECT_TRUE(contains(summary, "simplex.ftran.sparse  n=1  total=7"));
  EXPECT_TRUE(contains(summary, "simplex.ftran.dense  n=1  total=3"));
  EXPECT_TRUE(contains(summary, "simplex.rhs_density  n=2  mean=0.1"));
  EXPECT_FALSE(contains(summary, "obs_test.unrelated"));
}

// The bounds.gap histogram must only record gaps that were actually
// computed: a solve with rounding skipped (run_rounding = false, or the
// average-latency goal) must not contribute a spurious 0 sample that drags
// the distribution toward a tightness the run never measured. Roundings
// that ran and failed count under bounds.rounding_infeasible instead.
TEST(ObsBounds, GapRecordedOnlyWhenRoundingProducedACost) {
  const auto instance = test::random_instance(7);
  bounds::BoundOptions options;
  options.solver = bounds::BoundOptions::Solver::Simplex;
  {
    TelemetryScope scope;
    auto skip = options;
    skip.run_rounding = false;
    bounds::compute_bound(instance, mcperf::classes::general(), skip);
    const auto snapshot = obs::Registry::global().snapshot();
    EXPECT_EQ(snapshot.count("bounds.gap"), 0u);
    EXPECT_EQ(snapshot.count("bounds.rounding_infeasible"), 0u);
    EXPECT_EQ(snapshot.at("bounds.classes").sum, 1.0);
  }
  {
    TelemetryScope scope;
    const auto bound =
        bounds::compute_bound(instance, mcperf::classes::general(), options);
    ASSERT_TRUE(bound.rounded_feasible);
    const auto snapshot = obs::Registry::global().snapshot();
    ASSERT_EQ(snapshot.count("bounds.gap"), 1u);
    EXPECT_EQ(snapshot.at("bounds.gap").count, 1u);
    EXPECT_EQ(snapshot.at("bounds.gap").sum, bound.gap);
  }
}

TEST(ObsReport, ShadowPricesMapToQosRows) {
  const auto instance = test::random_instance(7);
  bounds::BoundOptions options;
  options.solver = bounds::BoundOptions::Solver::Simplex;
  const auto detail = bounds::compute_bound_detail(
      instance, mcperf::classes::general(), options);
  ASSERT_TRUE(detail.bound.achievable);

  const auto report = obs::make_solve_report(detail);
  EXPECT_EQ(report.class_name, "general");
  EXPECT_EQ(report.lower_bound, detail.bound.lower_bound);
  ASSERT_EQ(report.qos.size(), detail.built.qos_rows.size());
  ASSERT_FALSE(report.qos.empty());
  bool any_binding = false;
  for (const auto& row : report.qos) {
    EXPECT_TRUE(contains(row.row_name, "qos[")) << row.row_name;
    EXPECT_GE(row.shadow_price, 0.0);
    ASSERT_LT(row.row, detail.solution.y.size());
    // The dual is reported verbatim (clamped at 0): the builder already
    // normalized the row so no rescaling happens here.
    EXPECT_EQ(row.shadow_price,
              std::max(0.0, detail.solution.y[row.row]));
    EXPECT_GT(row.total_reads, 0.0);
    any_binding = any_binding || row.binding;
    EXPECT_EQ(row.binding, row.shadow_price > 1e-7);
  }
  // A tight QoS goal makes at least one coverage row bind at the optimum.
  EXPECT_TRUE(any_binding);

  const std::string text = obs::to_string(report);
  EXPECT_TRUE(contains(text, "shadow price"));
  EXPECT_TRUE(contains(text, "general"));
}

// lu.factorize_s times every successful factorization, and only while the
// registry is on: a disabled registry must not even read the clock.
TEST(ObsLu, FactorizeTimeRecordedOnlyWithMetricsOn) {
  const std::vector<std::vector<lp::BasisLu::Entry>> columns = {
      {{0, 2.0}, {1, 1.0}}, {{1, 3.0}}};
  lp::BasisLu lu;
  TelemetryScope scope;
  obs::Registry::global().enable(false);
  ASSERT_TRUE(lu.factorize(2, columns));
  obs::Registry::global().enable(true);
  const auto off = obs::Registry::global().snapshot();
  EXPECT_TRUE(off.count("lu.factorize_s") == 0 ||
              off.at("lu.factorize_s").count == 0);

  ASSERT_TRUE(lu.factorize(2, columns));
  const auto on = obs::Registry::global().snapshot();
  const auto& time = on.at("lu.factorize_s");
  EXPECT_EQ(time.kind, obs::MetricValue::Kind::Histogram);
  EXPECT_EQ(time.count, 1u);
  EXPECT_GE(time.sum, 0.0);
  EXPECT_EQ(on.at("lu.factorizations").sum, 1.0);
}

// lp.columns_s times the column build, once per simplex solve, and only
// while the registry is on, like lu.factorize_s.
TEST(ObsLu, ColumnBuildTimeRecordedOncePerSolveOnlyWithMetricsOn) {
  lp::LpModel model;
  const auto x = model.add_variable(0, 3, 2);
  const auto y = model.add_variable(0, 3, 5);
  model.add_row(lp::RowType::Ge, 4, {x, y}, {1, 1});
  TelemetryScope scope;
  obs::Registry::global().enable(false);
  ASSERT_EQ(lp::solve_simplex(model).status, lp::SolveStatus::Optimal);
  obs::Registry::global().enable(true);
  const auto off = obs::Registry::global().snapshot();
  EXPECT_TRUE(off.count("lp.columns_s") == 0 ||
              off.at("lp.columns_s").count == 0);

  for (int solve = 0; solve < 2; ++solve)
    ASSERT_EQ(lp::solve_simplex(model).status, lp::SolveStatus::Optimal);
  const auto on = obs::Registry::global().snapshot();
  const auto& time = on.at("lp.columns_s");
  EXPECT_EQ(time.kind, obs::MetricValue::Kind::Histogram);
  EXPECT_EQ(time.count, 2u);
  EXPECT_GE(time.sum, 0.0);
  EXPECT_EQ(on.at("simplex.solves").sum, 2.0);
}

/// One simplex solve with the registry on, plus the lu.factorizations it
/// recorded.
struct CountedSolve {
  lp::LpSolution solution;
  double factorizations = 0;
};

CountedSolve solve_counted(const lp::LpModel& model,
                           const lp::SimplexOptions& options) {
  TelemetryScope scope;
  CountedSolve out;
  out.solution = lp::solve_simplex(model, options);
  out.factorizations =
      obs::Registry::global().snapshot().at("lu.factorizations").sum;
  return out;
}

/// Factorizations beyond the solve's refactorizations.
double starting_factorizations(const CountedSolve& run) {
  return run.factorizations -
         static_cast<double>(run.solution.refactorizations);
}

// A solve factorizes its starting basis once, then once per
// refactorization. A warm start factorizes only the snapshot's basis; the
// slack basis is factorized only when the solve starts (or restarts) cold.
TEST(ObsLu, WarmStartFactorizesOnlyTheSnapshotBasis) {
  const auto instance = test::random_instance(11);
  const auto built = mcperf::build_lp(instance, mcperf::classes::general());
  const auto first = solve_counted(built.model, {});
  ASSERT_EQ(first.solution.status, lp::SolveStatus::Optimal);
  EXPECT_EQ(starting_factorizations(first), 1.0);

  // Tighten the upper bound of some variables the optimum uses: the old
  // basic point turns primal infeasible, the model stays feasible.
  auto perturbed = built.model;
  std::size_t used = 0;
  for (std::size_t j = 0; j < perturbed.variable_count(); ++j) {
    const double x = first.solution.x[j];
    if (x > perturbed.lower(j) + 1e-6 && used++ % 16 == 0)
      perturbed.set_bounds(j, perturbed.lower(j), (perturbed.lower(j) + x) / 2);
  }
  const auto cold = solve_counted(perturbed, {});
  ASSERT_EQ(cold.solution.status, lp::SolveStatus::Optimal);
  EXPECT_EQ(starting_factorizations(cold), 1.0);

  lp::SimplexOptions warm;
  warm.method = lp::SimplexOptions::Method::Dual;
  warm.warm_start = &first.solution.basis;
  const auto dual = solve_counted(perturbed, warm);
  ASSERT_EQ(dual.solution.status, lp::SolveStatus::Optimal);
  EXPECT_EQ(starting_factorizations(dual), 1.0);
  EXPECT_NEAR(dual.solution.objective, cold.solution.objective, 1e-7);

  // Same basis, primal method: the tightened bounds leave the imported
  // point infeasible, so the solve restarts cold and factorizes the slack
  // basis after the snapshot's.
  lp::SimplexOptions restart;
  restart.warm_start = &first.solution.basis;
  const auto primal = solve_counted(perturbed, restart);
  ASSERT_EQ(primal.solution.status, lp::SolveStatus::Optimal);
  EXPECT_EQ(starting_factorizations(primal), 2.0);
  EXPECT_NEAR(primal.solution.objective, cold.solution.objective, 1e-7);

  // A snapshot of another shape is ignored: a plain cold start.
  lp::LpModel other;
  other.add_variable(0, 1, 1);
  other.add_row(lp::RowType::Ge, 1, {std::size_t{0}}, {1.0});
  const auto other_solution = lp::solve_simplex(other);
  lp::SimplexOptions mismatched = warm;
  mismatched.warm_start = &other_solution.basis;
  const auto ignored = solve_counted(perturbed, mismatched);
  ASSERT_EQ(ignored.solution.status, lp::SolveStatus::Optimal);
  EXPECT_EQ(starting_factorizations(ignored), 1.0);
  EXPECT_NEAR(ignored.solution.objective, cold.solution.objective, 1e-7);
}

// Every refactorization is counted under exactly one cause: the
// simplex.refactor.* counters sum to simplex.refactorizations. A short
// refactor period makes a cold solve and a warm dual re-solve of a
// tightened copy refactorize for the period as well as to certify.
TEST(ObsSimplex, EveryRefactorizationHasOneCause) {
  const auto instance = test::random_instance(11);
  const auto built = mcperf::build_lp(instance, mcperf::classes::general());
  lp::SimplexOptions options;
  options.refactor_period = 16;

  TelemetryScope scope;
  const auto cold = lp::solve_simplex(built.model, options);
  ASSERT_EQ(cold.status, lp::SolveStatus::Optimal);
  auto perturbed = built.model;
  std::size_t used = 0;
  for (std::size_t j = 0; j < perturbed.variable_count(); ++j) {
    const double x = cold.x[j];
    if (x > perturbed.lower(j) + 1e-6 && used++ % 16 == 0)
      perturbed.set_bounds(j, perturbed.lower(j), (perturbed.lower(j) + x) / 2);
  }
  lp::SimplexOptions warm = options;
  warm.method = lp::SimplexOptions::Method::Dual;
  warm.warm_start = &cold.basis;
  const auto dual = lp::solve_simplex(perturbed, warm);
  ASSERT_EQ(dual.status, lp::SolveStatus::Optimal);

  const auto snapshot = obs::Registry::global().snapshot();
  const double total = snapshot.at("simplex.refactorizations").sum;
  EXPECT_EQ(total, static_cast<double>(cold.refactorizations +
                                       dual.refactorizations));
  const std::string prefix = "simplex.refactor.";
  double by_cause = 0;
  std::size_t causes = 0;
  for (const auto& [name, value] : snapshot) {
    if (name.rfind(prefix, 0) != 0 || value.sum == 0) continue;
    by_cause += value.sum;
    ++causes;
  }
  EXPECT_GE(causes, 2u);
  EXPECT_EQ(by_cause, total);
}

TEST(ObsDifferential, SimplexBitIdenticalWithTelemetry) {
  const auto instance = test::random_instance(11);
  const auto built = mcperf::build_lp(instance, mcperf::classes::general());
  lp::SimplexOptions options;
  const auto base = lp::solve_simplex(built.model, options);
  lp::LpSolution with;
  {
    TelemetryScope scope;
    with = lp::solve_simplex(built.model, options);
    // The instrumented solve actually reported to the registry.
    const auto snapshot = obs::Registry::global().snapshot();
    EXPECT_EQ(snapshot.at("simplex.solves").sum, 1.0);
    EXPECT_EQ(snapshot.at("simplex.iterations").sum,
              static_cast<double>(with.iterations));
  }
  EXPECT_EQ(base.status, with.status);
  EXPECT_EQ(base.objective, with.objective);
  EXPECT_EQ(base.dual_bound, with.dual_bound);
  EXPECT_EQ(base.iterations, with.iterations);
  EXPECT_EQ(base.refactorizations, with.refactorizations);
  EXPECT_EQ(base.x, with.x);
  EXPECT_EQ(base.y, with.y);
}

TEST(ObsDifferential, PdhgBitIdenticalWithTelemetry) {
  const auto instance = test::random_instance(13);
  const auto built = mcperf::build_lp(instance, mcperf::classes::general());
  lp::PdhgOptions options;
  options.max_iterations = 20'000;
  const auto base = lp::solve_pdhg(built.model, options);
  lp::LpSolution with;
  {
    TelemetryScope scope;
    with = lp::solve_pdhg(built.model, options);
    EXPECT_EQ(obs::Registry::global().snapshot().at("pdhg.solves").sum, 1.0);
    EXPECT_FALSE(obs::Tracer::global().spans().empty());
  }
  EXPECT_EQ(base.status, with.status);
  EXPECT_EQ(base.objective, with.objective);
  EXPECT_EQ(base.dual_bound, with.dual_bound);
  EXPECT_EQ(base.iterations, with.iterations);
  EXPECT_EQ(base.x, with.x);
  EXPECT_EQ(base.y, with.y);
}

TEST(ObsDifferential, SelectorBitIdenticalAcrossParallelism) {
  const auto instance = test::random_instance(3);
  core::SelectorOptions options;
  options.parallelism = 1;
  options.keep_details = true;
  const auto base = core::HeuristicSelector(options).select(instance);
  ASSERT_EQ(base.details.size(), 1 + base.classes.size());

  for (const std::size_t parallelism : {std::size_t{1}, std::size_t{2}}) {
    TelemetryScope scope;
    auto opts = options;
    opts.parallelism = parallelism;
    const auto run = core::HeuristicSelector(opts).select(instance);
    EXPECT_EQ(run.general.lower_bound, base.general.lower_bound);
    EXPECT_EQ(run.recommended, base.recommended);
    ASSERT_EQ(run.classes.size(), base.classes.size());
    for (std::size_t idx = 0; idx < base.classes.size(); ++idx) {
      EXPECT_EQ(run.classes[idx].achievable, base.classes[idx].achievable);
      EXPECT_EQ(run.classes[idx].lower_bound, base.classes[idx].lower_bound);
      EXPECT_EQ(run.classes[idx].rounded_feasible,
                base.classes[idx].rounded_feasible);
      EXPECT_EQ(run.classes[idx].rounded_cost,
                base.classes[idx].rounded_cost);
    }
    ASSERT_EQ(run.details.size(), base.details.size());
    for (std::size_t idx = 0; idx < base.details.size(); ++idx) {
      EXPECT_EQ(run.details[idx].solution.x, base.details[idx].solution.x);
      EXPECT_EQ(run.details[idx].solution.y, base.details[idx].solution.y);
    }
  }
}

}  // namespace
}  // namespace wanplace
