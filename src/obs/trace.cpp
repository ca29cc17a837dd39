#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "obs/json_util.h"
#include "obs/metrics.h"

namespace wanplace::obs {

namespace {

using Clock = std::chrono::steady_clock;
using detail::json_number;
using detail::json_string;

}  // namespace

struct Tracer::Impl {
  /// Per-thread buffer. The owner alone pushes/pops `open` (span nesting is
  /// a per-thread property), and appends to `done`/`samples` under `mutex`
  /// so spans()/write_jsonl() can walk concurrently.
  struct Shard {
    std::mutex mutex;
    std::uint32_t thread = 0;
    std::vector<SpanRecord> open;  // innermost span is the back
    std::uint64_t adopted_parent = 0;  // parent of a span opened at depth 0
    std::vector<SpanRecord> done;
    std::vector<SampleRecord> samples;
  };

  std::atomic<bool> enabled{false};
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<std::uint32_t> next_thread{0};
  Clock::time_point epoch = Clock::now();
  mutable std::mutex shards_mutex;
  std::vector<std::shared_ptr<Shard>> shards;

  Shard& local_shard() {
    thread_local std::unordered_map<Impl*, std::shared_ptr<Shard>> bindings;
    auto& slot = bindings[this];
    if (!slot) {
      slot = std::make_shared<Shard>();
      slot->thread = next_thread.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(shards_mutex);
      shards.push_back(slot);
    }
    return *slot;
  }

  double since_epoch() const {
    return std::chrono::duration<double>(Clock::now() - epoch).count();
  }
};

Tracer::Tracer() : impl_(new Impl) {}
Tracer::~Tracer() { delete impl_; }

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(bool on) {
  if (on && !enabled()) impl_->epoch = Clock::now();
  impl_->enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() const {
  return impl_->enabled.load(std::memory_order_relaxed);
}

void Tracer::reset() {
  std::lock_guard<std::mutex> shards_lock(impl_->shards_mutex);
  impl_->epoch = Clock::now();
  for (const auto& shard : impl_->shards) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->done.clear();
    shard->samples.clear();
  }
}

double Tracer::now_s() const { return impl_->since_epoch(); }

void Tracer::sample(const char* name, double step, double value) {
  if (!enabled()) return;
  Impl::Shard& shard = impl_->local_shard();
  SampleRecord record;
  record.name = name;
  record.thread = shard.thread;
  record.time_s = impl_->since_epoch();
  record.step = step;
  record.value = value;
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.samples.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::vector<SpanRecord> all;
  {
    std::lock_guard<std::mutex> shards_lock(impl_->shards_mutex);
    for (const auto& shard : impl_->shards) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      all.insert(all.end(), shard->done.begin(), shard->done.end());
    }
  }
  std::sort(all.begin(), all.end(), [](const SpanRecord& a, const SpanRecord& b) {
    if (a.start_s != b.start_s) return a.start_s < b.start_s;
    return a.id < b.id;
  });
  return all;
}

std::vector<SampleRecord> Tracer::samples() const {
  std::vector<SampleRecord> all;
  {
    std::lock_guard<std::mutex> shards_lock(impl_->shards_mutex);
    for (const auto& shard : impl_->shards) {
      std::lock_guard<std::mutex> lock(shard->mutex);
      all.insert(all.end(), shard->samples.begin(), shard->samples.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const SampleRecord& a, const SampleRecord& b) {
              if (a.time_s != b.time_s) return a.time_s < b.time_s;
              return a.name < b.name;
            });
  return all;
}

void Tracer::write_jsonl(std::ostream& out) const {
  const std::vector<SpanRecord> spans = this->spans();
  const std::vector<SampleRecord> samples = this->samples();
  out << "{\"type\":\"meta\",\"version\":2,\"spans\":" << spans.size()
      << ",\"samples\":" << samples.size() << "}\n";
  for (const SpanRecord& span : spans) {
    out << "{\"type\":\"span\",\"id\":" << span.id << ",\"parent\":"
        << span.parent << ",\"name\":" << json_string(span.name)
        << ",\"thread\":" << span.thread << ",\"start_s\":"
        << json_number(span.start_s) << ",\"dur_s\":"
        << json_number(span.duration_s) << ",\"attrs\":{";
    bool first = true;
    for (const auto& [key, value] : span.attrs) {
      if (!first) out << ',';
      first = false;
      out << json_string(key) << ':' << json_number(value);
    }
    for (const auto& [key, value] : span.labels) {
      if (!first) out << ',';
      first = false;
      out << json_string(key) << ':' << json_string(value);
    }
    out << "}}\n";
  }
  for (const SampleRecord& sample : samples) {
    out << "{\"type\":\"sample\",\"name\":" << json_string(sample.name)
        << ",\"thread\":" << sample.thread << ",\"time_s\":"
        << json_number(sample.time_s) << ",\"step\":"
        << json_number(sample.step) << ",\"value\":"
        << json_number(sample.value) << "}\n";
  }
  for (const auto& [name, value] : Registry::global().snapshot()) {
    out << "{\"type\":\"metric\",\"name\":" << json_string(name)
        << ",\"kind\":\"" << to_string(value.kind) << "\",\"count\":"
        << value.count << ",\"sum\":" << json_number(value.sum);
    if (value.kind == MetricValue::Kind::Histogram) {
      out << ",\"min\":" << json_number(value.min)
          << ",\"max\":" << json_number(value.max)
          << ",\"p50\":" << json_number(value.quantile(0.50))
          << ",\"p90\":" << json_number(value.quantile(0.90))
          << ",\"p99\":" << json_number(value.quantile(0.99));
    }
    out << "}\n";
  }
}

std::string Tracer::summary() const {
  const std::vector<SpanRecord> spans = this->spans();

  // Aggregate by name *path* (root-to-span chain of names) so e.g. the same
  // "simplex" span shows up separately under different parents.
  struct Node {
    std::uint64_t count = 0;
    double seconds = 0;
    std::map<std::string, double> attr_sums;
  };
  std::unordered_map<std::uint64_t, std::string> path_by_id;
  std::map<std::string, Node> nodes;
  for (const SpanRecord& span : spans) {
    std::string path;
    if (const auto it = path_by_id.find(span.parent); it != path_by_id.end())
      path = it->second + "/";
    path += span.name;
    path_by_id.emplace(span.id, path);
    Node& node = nodes[path];
    ++node.count;
    node.seconds += span.duration_s;
    for (const auto& [key, value] : span.attrs) node.attr_sums[key] += value;
  }

  std::ostringstream out;
  out << "trace summary (" << spans.size() << " spans)\n";
  for (const auto& [path, node] : nodes) {
    const std::size_t depth =
        static_cast<std::size_t>(std::count(path.begin(), path.end(), '/'));
    const std::size_t slash = path.rfind('/');
    const std::string leaf =
        slash == std::string::npos ? path : path.substr(slash + 1);
    out << std::string(2 * depth, ' ') << leaf << "  n=" << node.count
        << "  total=" << json_number(node.seconds) << "s";
    for (const auto& [key, value] : node.attr_sums)
      out << "  " << key << "=" << json_number(value);
    out << '\n';
  }

  // Registry highlights below the span tree. Kernel telemetry (the
  // hyper-sparse FTRAN/BTRAN path split, the RHS-density histogram behind
  // it, R-file compressions) and the daemon's service.* series live in the
  // metrics registry rather than in spans (they fire per solve/event, far
  // too often for span records), so surface them here when present.
  // Histograms carry p50/p90/p99 from the log2-bucket quantile sketch.
  const Snapshot snapshot = Registry::global().snapshot();
  const auto write_section = [&](const char* header,
                                 const auto& prefix_match) {
    Snapshot picked;
    for (const auto& [name, value] : snapshot)
      if (prefix_match(name)) picked.emplace(name, value);
    if (picked.empty()) return;
    out << header << '\n';
    for (const auto& [name, value] : picked) {
      out << "  " << name << "  n=" << value.count;
      if (value.kind == MetricValue::Kind::Histogram) {
        out << "  mean=" << json_number(value.mean())
            << "  min=" << json_number(value.min)
            << "  max=" << json_number(value.max)
            << "  p50=" << json_number(value.quantile(0.50))
            << "  p90=" << json_number(value.quantile(0.90))
            << "  p99=" << json_number(value.quantile(0.99));
      } else {
        out << "  total=" << json_number(value.sum);
      }
      out << '\n';
    }
  };
  static constexpr const char* kKernelPrefixes[] = {
      "simplex.ftran", "simplex.btran", "simplex.rhs_density"};
  write_section("kernel metrics", [](const std::string& name) {
    for (const char* prefix : kKernelPrefixes)
      if (name.rfind(prefix, 0) == 0) return true;
    return false;
  });
  write_section("service metrics", [](const std::string& name) {
    return name.rfind("service.", 0) == 0;
  });
  return out.str();
}

Span::Span(const char* name) {
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled()) return;
  Tracer::Impl& impl = *tracer.impl_;
  Tracer::Impl::Shard& shard = impl.local_shard();
  active_ = true;
  shard_ = &shard;
  index_ = shard.open.size();
  SpanRecord record;
  record.id = impl.next_id.fetch_add(1, std::memory_order_relaxed);
  id_ = record.id;
  record.parent =
      shard.open.empty() ? shard.adopted_parent : shard.open.back().id;
  record.name = name;
  record.thread = shard.thread;
  record.start_s = impl.since_epoch();
  shard.open.push_back(std::move(record));
}

Span::~Span() {
  if (!active_) return;
  Tracer::Impl& impl = *Tracer::global().impl_;
  auto& shard = *static_cast<Tracer::Impl::Shard*>(shard_);
  // Scopes unwind LIFO per thread, so this span is the innermost open one.
  SpanRecord record = std::move(shard.open.back());
  shard.open.pop_back();
  record.duration_s = impl.since_epoch() - record.start_s;
  std::lock_guard<std::mutex> lock(shard.mutex);
  shard.done.push_back(std::move(record));
}

ParentScope::ParentScope(std::uint64_t parent) {
  if (parent == 0) return;
  auto& shard = Tracer::global().impl_->local_shard();
  shard_ = &shard;
  previous_ = shard.adopted_parent;
  shard.adopted_parent = parent;
}

ParentScope::~ParentScope() {
  if (shard_ == nullptr) return;
  static_cast<Tracer::Impl::Shard*>(shard_)->adopted_parent = previous_;
}

void Span::attr(const char* key, double value) {
  if (!active_) return;
  auto& shard = *static_cast<Tracer::Impl::Shard*>(shard_);
  shard.open[index_].attrs.emplace_back(key, value);
}

void Span::label(const char* key, const std::string& value) {
  if (!active_) return;
  auto& shard = *static_cast<Tracer::Impl::Shard*>(shard_);
  shard.open[index_].labels.emplace_back(key, value);
}

}  // namespace wanplace::obs
