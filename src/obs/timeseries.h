// Per-event time series for the continuous re-placement service.
//
// The metrics registry aggregates; it cannot answer "what happened at event
// 17". TimeSeries keeps one point per daemon event in a bounded ring buffer
// keyed by the monotonic event index (rejected events advance the index
// too, so the series and the daemon counters always agree on position).
//
// Each point separates *deterministic* values (costs, bounds, pivot counts,
// regret — bit-identical on every replay, asserted by
// ObsTimeSeries.DeterministicAcrossReplays) from wall-clock stage
// timings in `seconds` (diagnostics only). Memory is bounded by `capacity`:
// once full, the oldest point is dropped and `dropped()` counts it, so a
// daemon serving an unbounded event stream never grows without bound.
//
// Unlike the registry, the series is an explicit object owned by its
// producer (the daemon), not process-global state: appends are serialized
// by the producer's event loop, the mutex only guards concurrent readers
// (export flushes, status probes).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace wanplace::obs {

/// One event's worth of series data.
struct SeriesPoint {
  /// Monotonic event index (0-based; rejected events consume an index).
  std::uint64_t index = 0;
  /// Event kind ("demand", "join", "leave", "latency", ...).
  std::string kind;
  /// True when validation rejected the event (no model mutation happened).
  bool rejected = false;
  /// Deterministic per-event values (name -> value), insertion-ordered.
  std::vector<std::pair<std::string, double>> values;
  /// Wall-clock stage timings in seconds (name -> seconds); diagnostics
  /// only, excluded from determinism comparisons.
  std::vector<std::pair<std::string, double>> seconds;
};

class TimeSeries {
 public:
  explicit TimeSeries(std::size_t capacity = 4096);

  /// Append one point; evicts the oldest point when at capacity.
  void append(SeriesPoint point);

  /// Copy of the retained points in ascending event-index order.
  std::vector<SeriesPoint> points() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  /// Total appends since construction/clear (>= size()).
  std::uint64_t total_appended() const;
  /// Points evicted because the ring was full.
  std::uint64_t dropped() const;

  void clear();

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<SeriesPoint> ring_;
  std::uint64_t total_appended_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace wanplace::obs
