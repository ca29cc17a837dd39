// Metric export + per-event time series: format pins and determinism.
//
// The Prometheus and JSONL golden pins freeze the exact byte shape of the
// exports (the same shape tools/validate_metrics.py checks on the live CLI
// output); the quantile tests pin the log2-bucket estimator's contract
// (within one bucket of truth, exact for single-sample histograms, and
// bit-deterministic under sharded recording); and the daemon-based test
// asserts the ISSUE's determinism property: the per-event series' `values`
// are bit-identical at every solver parallelism.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "instance_helpers.h"
#include "mcperf/heuristic_class.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "service/daemon.h"

namespace wanplace {
namespace {

// ---------------------------------------------------------------------------
// TimeSeries ring semantics.

obs::SeriesPoint make_point(std::uint64_t index) {
  obs::SeriesPoint point;
  point.index = index;
  point.kind = "demand";
  point.values = {{"lower_bound", static_cast<double>(index) + 0.5}};
  point.seconds = {{"resolve", 0.001}};
  return point;
}

TEST(ObsTimeSeries, RingEvictsOldestAndCountsDropped) {
  obs::TimeSeries series(3);
  EXPECT_EQ(series.capacity(), 3u);
  EXPECT_EQ(series.size(), 0u);
  EXPECT_TRUE(series.points().empty());

  for (std::uint64_t i = 0; i < 5; ++i) series.append(make_point(i));
  EXPECT_EQ(series.size(), 3u);
  EXPECT_EQ(series.total_appended(), 5u);
  EXPECT_EQ(series.dropped(), 2u);

  const auto points = series.points();
  ASSERT_EQ(points.size(), 3u);
  // The two oldest points were evicted; the survivors stay ordered.
  EXPECT_EQ(points[0].index, 2u);
  EXPECT_EQ(points[1].index, 3u);
  EXPECT_EQ(points[2].index, 4u);
  ASSERT_EQ(points[2].values.size(), 1u);
  EXPECT_EQ(points[2].values[0].first, "lower_bound");
  EXPECT_EQ(points[2].values[0].second, 4.5);

  series.clear();
  EXPECT_EQ(series.size(), 0u);
  EXPECT_EQ(series.total_appended(), 0u);
  EXPECT_EQ(series.dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Quantile sketch: bucketing, estimation error, sharded-merge determinism.

TEST(ObsExport, QuantileBucketsPartitionTheRange) {
  // Non-positive samples land in bucket 0.
  EXPECT_EQ(obs::quantile_bucket(0.0), 0u);
  EXPECT_EQ(obs::quantile_bucket(-3.5), 0u);
  // floor(log2(v)) + 41, clamped to the sketch range.
  EXPECT_EQ(obs::quantile_bucket(1.0), 41u);
  EXPECT_EQ(obs::quantile_bucket(1.99), 41u);
  EXPECT_EQ(obs::quantile_bucket(2.0), 42u);
  EXPECT_EQ(obs::quantile_bucket(0.5), 40u);
  EXPECT_EQ(obs::quantile_bucket(1e-15), 1u);    // clamped low
  EXPECT_EQ(obs::quantile_bucket(1e30), 63u);    // clamped high
  for (double v : {1e-300, 0.37, 1.0, 42.0, 1e300})
    EXPECT_LT(obs::quantile_bucket(v), obs::kQuantileBuckets);
}

TEST(ObsExport, QuantilesWithinOneBucketAndExactForSingleSample) {
  auto& registry = obs::Registry::global();
  registry.enable(true);
  registry.reset();
  // A single sample must come back exactly (midpoint clamped to [min,max]).
  registry.record("one", 1.5);
  // Uniform 1..1000: every estimate must sit within its log2 bucket, i.e.
  // within a factor sqrt(2) of the true quantile.
  for (int v = 1; v <= 1000; ++v) registry.record("uniform", v);
  const auto snapshot = registry.snapshot();
  registry.enable(false);

  const auto& one = snapshot.at("one");
  EXPECT_EQ(one.quantile(0.5), 1.5);
  EXPECT_EQ(one.quantile(0.99), 1.5);

  const auto& uniform = snapshot.at("uniform");
  EXPECT_EQ(uniform.count, 1000u);
  for (const auto& [p, truth] : {std::pair{0.5, 500.0},
                                 std::pair{0.9, 900.0},
                                 std::pair{0.99, 990.0}}) {
    const double estimate = uniform.quantile(p);
    EXPECT_GE(estimate, truth / 2) << "p" << p;
    EXPECT_LE(estimate, truth * 2) << "p" << p;
  }
  // Quantiles never leave the observed range.
  EXPECT_GE(uniform.quantile(0.0), 1.0);
  EXPECT_LE(uniform.quantile(1.0), 1000.0);
}

TEST(ObsExport, ShardedRecordingMergesDeterministically) {
  auto& registry = obs::Registry::global();
  registry.enable(true);
  registry.reset();
  // The same multiset recorded single-threaded...
  for (int v = 1; v <= 400; ++v) registry.record("merge", v % 37 + 1);
  const auto solo = registry.snapshot().at("merge");
  registry.reset();
  // ...and split across two recorder threads (each gets its own shard).
  std::thread half([&] {
    for (int v = 1; v <= 200; ++v) registry.record("merge", v % 37 + 1);
  });
  for (int v = 201; v <= 400; ++v) registry.record("merge", v % 37 + 1);
  half.join();
  const auto sharded = registry.snapshot().at("merge");
  registry.enable(false);

  EXPECT_EQ(solo.count, sharded.count);
  EXPECT_EQ(solo.min, sharded.min);
  EXPECT_EQ(solo.max, sharded.max);
  // Integer bucket counts merge exactly, so the derived quantiles are
  // bit-identical however the samples were sharded.
  ASSERT_EQ(solo.buckets.size(), sharded.buckets.size());
  EXPECT_EQ(solo.buckets, sharded.buckets);
  for (const double p : {0.5, 0.9, 0.99})
    EXPECT_EQ(solo.quantile(p), sharded.quantile(p)) << "p" << p;
}

// ---------------------------------------------------------------------------
// Export format pins.

TEST(ObsExport, ParseFormatRoundTrips) {
  EXPECT_EQ(obs::parse_metrics_format("prom"), obs::MetricsFormat::Prometheus);
  EXPECT_EQ(obs::parse_metrics_format("prometheus"),
            obs::MetricsFormat::Prometheus);
  EXPECT_EQ(obs::parse_metrics_format("jsonl"), obs::MetricsFormat::Jsonl);
  EXPECT_FALSE(obs::parse_metrics_format("csv").has_value());
  EXPECT_FALSE(obs::parse_metrics_format("").has_value());
  EXPECT_STREQ(obs::to_string(obs::MetricsFormat::Prometheus), "prometheus");
  EXPECT_STREQ(obs::to_string(obs::MetricsFormat::Jsonl), "jsonl");
}

TEST(ObsExport, PrometheusNamesAreLegal) {
  EXPECT_EQ(obs::prometheus_name("service.regret.rel"), "service_regret_rel");
  EXPECT_EQ(obs::prometheus_name("lu.eta-hits"), "lu_eta_hits");
  EXPECT_EQ(obs::prometheus_name("9lives"), "_lives");  // no leading digit
  EXPECT_EQ(obs::prometheus_name("ok_name:x9"), "ok_name:x9");
}

/// A small deterministic snapshot + series fixture shared by both golden
/// pins: one counter, one gauge, one single-sample histogram, two points.
obs::Snapshot golden_snapshot() {
  obs::Snapshot snapshot;
  obs::MetricValue events;
  events.kind = obs::MetricValue::Kind::Counter;
  events.count = 3;
  events.sum = 3;
  snapshot["service.events"] = events;

  obs::MetricValue cost;
  cost.kind = obs::MetricValue::Kind::Gauge;
  cost.count = 1;
  cost.sum = 12.5;
  snapshot["service.regret.cost"] = cost;

  obs::MetricValue resolve;
  resolve.kind = obs::MetricValue::Kind::Histogram;
  resolve.count = 1;
  resolve.sum = 1.5;
  resolve.min = 1.5;
  resolve.max = 1.5;
  resolve.buckets.assign(obs::kQuantileBuckets, 0);
  resolve.buckets[obs::quantile_bucket(1.5)] = 1;
  snapshot["service.stage.resolve"] = resolve;
  return snapshot;
}

void fill_golden_series(obs::TimeSeries& series) {
  obs::SeriesPoint start;
  start.index = 0;
  start.kind = "start";
  start.values = {{"lower_bound", 9.5}};
  start.seconds = {{"resolve", 0.25}};
  series.append(start);
  obs::SeriesPoint demand;
  demand.index = 1;
  demand.kind = "demand";
  demand.values = {{"lower_bound", 10.25}};
  demand.seconds = {{"resolve", 0.5}};
  series.append(demand);
}

TEST(ObsExport, PrometheusGoldenPin) {
  obs::TimeSeries series(8);
  fill_golden_series(series);
  std::ostringstream out;
  obs::write_prometheus(out, golden_snapshot(), &series);
  EXPECT_EQ(out.str(),
            "# TYPE service_events counter\n"
            "service_events 3\n"
            "# TYPE service_regret_cost gauge\n"
            "service_regret_cost 12.5\n"
            "# TYPE service_stage_resolve summary\n"
            "service_stage_resolve{quantile=\"0.5\"} 1.5\n"
            "service_stage_resolve{quantile=\"0.9\"} 1.5\n"
            "service_stage_resolve{quantile=\"0.99\"} 1.5\n"
            "service_stage_resolve_sum 1.5\n"
            "service_stage_resolve_count 1\n"
            "# TYPE service_stage_resolve_min gauge\n"
            "service_stage_resolve_min 1.5\n"
            "# TYPE service_stage_resolve_max gauge\n"
            "service_stage_resolve_max 1.5\n"
            "# TYPE wanplace_series_points gauge\n"
            "wanplace_series_points 2\n"
            "# TYPE wanplace_series_dropped counter\n"
            "wanplace_series_dropped 0\n"
            "# TYPE wanplace_series_event_index gauge\n"
            "wanplace_series_event_index 1\n"
            "# TYPE wanplace_series_event_rejected gauge\n"
            "wanplace_series_event_rejected 0\n"
            "# TYPE wanplace_series_lower_bound gauge\n"
            "wanplace_series_lower_bound 10.25\n");
}

TEST(ObsExport, JsonlGoldenPin) {
  obs::TimeSeries series(8);
  fill_golden_series(series);
  std::ostringstream out;
  obs::export_metrics(out, obs::MetricsFormat::Jsonl, golden_snapshot(),
                      &series);
  EXPECT_EQ(
      out.str(),
      "{\"type\":\"meta\",\"stream\":\"wanplace-metrics\",\"version\":1}\n"
      "{\"type\":\"point\",\"index\":0,\"kind\":\"start\",\"rejected\":false,"
      "\"values\":{\"lower_bound\":9.5},\"seconds\":{\"resolve\":0.25}}\n"
      "{\"type\":\"point\",\"index\":1,\"kind\":\"demand\",\"rejected\":false,"
      "\"values\":{\"lower_bound\":10.25},\"seconds\":{\"resolve\":0.5}}\n"
      "{\"type\":\"metric\",\"name\":\"service.events\",\"kind\":\"counter\","
      "\"count\":3,\"sum\":3}\n"
      "{\"type\":\"metric\",\"name\":\"service.regret.cost\","
      "\"kind\":\"gauge\",\"count\":1,\"sum\":12.5}\n"
      "{\"type\":\"metric\",\"name\":\"service.stage.resolve\","
      "\"kind\":\"histogram\",\"count\":1,\"sum\":1.5,\"min\":1.5,"
      "\"max\":1.5,\"p50\":1.5,\"p90\":1.5,\"p99\":1.5}\n");
}

// ---------------------------------------------------------------------------
// Daemon series determinism across replays.

/// Replays a fixed drift script through the daemon and returns the retained
/// series points.
std::vector<obs::SeriesPoint> replay_series() {
  auto instance = test::line_instance(4, 3, 3, 0.6);
  instance.costs.alpha = 1;
  instance.costs.beta = 2;
  instance.costs.delta = 0.25;
  for (std::size_t n = 0; n < 4; ++n)
    for (std::size_t i = 0; i < 3; ++i)
      for (std::size_t k = 0; k < 3; ++k) {
        instance.demand.read(n, i, k) =
            static_cast<double>(1 + (n + 2 * i + 3 * k) % 4);
        instance.demand.write(n, i, k) = (n + i + k) % 2 ? 0.5 : 0.0;
      }
  service::DaemonOptions options;
  options.spec = mcperf::classes::general();
  options.tlat_ms = 150;
  service::PlacementDaemon daemon(std::move(instance), std::move(options));
  daemon.start();
  daemon.on_event(workload::DemandDeltaEvent{0, 1, 2, 3.0, 0.0});
  daemon.on_event(workload::DemandDeltaEvent{2, 0, 0, 5.0, 0.5});
  daemon.on_event(workload::LatencyUpdateEvent{0, 2, 120.0});
  daemon.on_event(workload::NodeJoinEvent{100.0, {}});
  // An out-of-range node: the rejection must still consume an index.
  daemon.on_event(workload::DemandDeltaEvent{99, 0, 0, 1.0, 0.0});
  daemon.on_event(workload::DemandDeltaEvent{4, 0, 1, 4.0, 0.0});
  daemon.on_event(workload::NodeLeaveEvent{1});
  return daemon.series().points();
}

TEST(ObsTimeSeries, DeterministicAcrossReplays) {
  const auto first = replay_series();
  const auto second = replay_series();
  ASSERT_EQ(first.size(), 8u);  // start + 7 events, rejected included
  ASSERT_EQ(first.size(), second.size());
  bool saw_rejected = false;
  for (std::size_t p = 0; p < first.size(); ++p) {
    EXPECT_EQ(first[p].index, p);
    EXPECT_EQ(first[p].index, second[p].index);
    EXPECT_EQ(first[p].kind, second[p].kind);
    EXPECT_EQ(first[p].rejected, second[p].rejected);
    saw_rejected |= first[p].rejected;
    // The deterministic half of the point must be BIT-identical on every
    // replay (seconds are wall-clock and excluded by design).
    ASSERT_EQ(first[p].values.size(), second[p].values.size()) << p;
    for (std::size_t v = 0; v < first[p].values.size(); ++v) {
      EXPECT_EQ(first[p].values[v].first, second[p].values[v].first) << p;
      EXPECT_EQ(first[p].values[v].second, second[p].values[v].second)
          << "point " << p << " value " << first[p].values[v].first;
    }
  }
  EXPECT_TRUE(saw_rejected);
}

}  // namespace
}  // namespace wanplace
