// Solver telemetry: scoped trace spans and timeline samples.
//
// A Span is an RAII scope: construction stamps a start time and links to
// the innermost open span on the same thread (nesting), or, with none open,
// to the span a ParentScope names (fan-out to pools), destruction stamps
// the duration and moves the finished record into the thread's buffer.
// Numeric or string attributes can be attached while the span is open
// (pivot counts, class names, ...). Samples are point-in-time series
// entries (e.g. PDHG residuals per check interval) tied to a name and a
// step counter.
//
// Like the metrics registry, the tracer is disabled by default and every
// call is then a relaxed-load + branch no-op, so instrumentation can stay
// compiled into the hot paths. Spans are deliberately coarse (solves,
// phases, per-class bounds, factorizations) — per-pivot quantities belong
// in the metrics registry, not in spans.
//
// Export: write_jsonl() emits one JSON object per line (schema below,
// validated by tools/validate_trace.py), including a final dump of the
// metrics registry so a trace file is self-contained; summary() renders an
// aggregated human-readable tree (span path, call count, total seconds,
// summed numeric attributes).
//
// JSONL schema (version 2):
//   {"type":"meta","version":2,"spans":N,"samples":M}
//   {"type":"span","id":I,"parent":P,"name":"...","thread":T,
//    "start_s":S,"dur_s":D,"attrs":{"k":v,...}}        // parent 0 = root
//   {"type":"sample","name":"...","thread":T,"time_s":S,"step":X,"value":V}
//   {"type":"metric","name":"...","kind":"counter|gauge|histogram",
//    "count":N,"sum":S[,"min":m,"max":M,"p50":q,"p90":q,"p99":q]}
// Version 2 adds (a) the histogram quantile fields above and (b) event
// causality for daemon traces: every `service.event` span carries an
// integer "event" attr (the monotonic event index) and a "kind" label, and
// per-stage spans (service.validate/patch/resolve/audit/policy) nest under
// it, so tools/validate_trace.py can attribute every stage to its event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace wanplace::obs {

struct SpanRecord {
  std::uint64_t id = 0;      // unique per process run, 1-based
  std::uint64_t parent = 0;  // id of the enclosing span; 0 = root
  std::string name;
  std::uint32_t thread = 0;  // ordinal of the recording thread
  double start_s = 0;        // relative to the tracer epoch (last enable/reset)
  double duration_s = 0;
  std::vector<std::pair<std::string, double>> attrs;
  std::vector<std::pair<std::string, std::string>> labels;
};

struct SampleRecord {
  std::string name;
  std::uint32_t thread = 0;
  double time_s = 0;  // relative to the tracer epoch
  double step = 0;    // caller-defined x axis (e.g. iteration count)
  double value = 0;
};

class Tracer {
 public:
  static Tracer& global();

  /// Enabling (re)stamps the epoch; disabling stops new spans but lets
  /// already-open spans finish recording.
  void enable(bool on);
  bool enabled() const;
  /// Drop all finished spans and samples and restamp the epoch.
  void reset();

  /// Record one timeline sample (no-op while disabled).
  void sample(const char* name, double step, double value);

  /// Finished spans, ordered by (start time, id). Open spans are excluded.
  std::vector<SpanRecord> spans() const;
  std::vector<SampleRecord> samples() const;

  /// Seconds since the epoch (0 while never enabled).
  double now_s() const;

  /// One JSON object per line: meta, spans, samples, then the current
  /// metrics registry snapshot (schema in the header comment).
  void write_jsonl(std::ostream& out) const;

  /// Aggregated human-readable tree: span paths with call counts, total
  /// wall time and summed numeric attributes.
  std::string summary() const;

  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  friend class Span;
  friend class ParentScope;
  struct Impl;
  Impl* impl_;
};

/// RAII trace scope on the global tracer. Inactive (and free) while the
/// tracer is disabled.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return active_; }
  /// The span's record id (0 when inactive), for ParentScope.
  std::uint64_t id() const { return id_; }
  /// Attach a numeric / string attribute (no-op when inactive).
  void attr(const char* key, double value);
  void label(const char* key, const std::string& value);

 private:
  bool active_ = false;
  void* shard_ = nullptr;   // Tracer::Impl::Shard of the opening thread
  std::size_t index_ = 0;   // position in that shard's open-span stack
  std::uint64_t id_ = 0;
};

/// RAII: while alive, a span the calling thread opens with no span of its
/// own open takes `parent` (a Span::id(), usually from another thread) as
/// its parent instead of becoming a root. Work fanned out to a thread pool
/// opens one at the top of each task, so its spans stay under the span
/// that fanned it out. A parent of 0 (tracing off) changes nothing.
class ParentScope {
 public:
  explicit ParentScope(std::uint64_t parent);
  ~ParentScope();
  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

 private:
  void* shard_ = nullptr;   // Tracer::Impl::Shard of the calling thread
  std::uint64_t previous_ = 0;
};

#define WANPLACE_OBS_CONCAT2(a, b) a##b
#define WANPLACE_OBS_CONCAT(a, b) WANPLACE_OBS_CONCAT2(a, b)
/// Fire-and-forget scope: WANPLACE_SPAN("ftran"); use a named obs::Span when
/// attributes need attaching.
#define WANPLACE_SPAN(name) \
  ::wanplace::obs::Span WANPLACE_OBS_CONCAT(wanplace_span_, __LINE__)(name)

inline bool trace_enabled() { return Tracer::global().enabled(); }
inline void trace_sample(const char* name, double step, double value) {
  Tracer::global().sample(name, step, value);
}

}  // namespace wanplace::obs
