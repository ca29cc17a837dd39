#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <set>
#include <sstream>

namespace perfbench {

const std::vector<std::string>& class_names() {
  static const std::vector<std::string> names{
      "general",        "storage-constrained", "replica-constrained",
      "decentral-local-routing", "caching",    "coop-caching"};
  return names;
}

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names{
      "setup_s",     "op_p50_ms",   "op_p90_ms",    "ops_per_s",
      "cpu_s_per_op", "peak_rss_mb", "ok_frac",     "bound_ratio",
      "rounded_ratio", "regret_ratio"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out{"graph.load_topology_ms",
                                 "workload.load_trace_ms",
                                 "workload.aggregate_ms",
                                 "workload.load_events_ms"};
    for (const char* metric :
         {"mcperf.achievability_ms.", "mcperf.build_lp_ms.", "mcperf.lp_rows."})
      for (const auto& cls : class_names()) out.push_back(metric + cls);
    for (const char* name :
         {"mcperf.validate_ms", "mcperf.patch_ms", "mcperf.rebuilds",
          "lp.lu.factorize_ms", "lp.lu.ftran_us", "lp.lu.btran_us",
          "lp.lu.factorizations", "lp.simplex.solve_ms", "lp.simplex.pivots",
          "lp.simplex.us_per_pivot", "lp.simplex.refactorizations",
          "lp.simplex.warm_accept_frac", "lp.pdhg.solve_ms",
          "lp.pdhg.iterations", "lp.pdhg.restarts", "lp.pdhg.cap_hits",
          "lp.pdhg_share"})
      out.emplace_back(name);
    for (const auto& cls : class_names())
      out.push_back("bounds.compute_ms." + cls);
    for (const char* name :
         {"bounds.rounding_ms", "bounds.resolve_ms", "core.select.general_ms",
          "core.select.fanout_ms", "core.select.class_sum_ms",
          "core.select.parallel_eff", "service.audit_ms", "service.policy_ms",
          "service.unattributed_ms", "service.pivots_per_event",
          "service.publish_frac", "service.basis_drops", "obs.trace_overhead",
          "obs.export_ms"})
      out.emplace_back(name);
    return out;
  }();
  return names;
}

void Sheet::set(const std::string& name, double value,
                const std::string& unit) {
  for (auto& metric : metrics_)
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  metrics_.push_back({name, value, unit});
}

void Sheet::fail_check(const std::string& what) {
  check_failures_.push_back(what);
  std::fprintf(stdout, "# check failed: %s\n", what.c_str());
}

std::string number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

}  // namespace

bool Sheet::print(const std::vector<std::string>& expected,
                  const std::string& meta_json) const {
  std::set<std::string> have;
  for (const auto& metric : metrics_) have.insert(metric.name);
  const std::set<std::string> want(expected.begin(), expected.end());
  if (have != want) {
    for (const auto& name : want)
      if (!have.count(name))
        std::fprintf(stderr, "perfbench: metric %s not measured\n",
                     name.c_str());
    for (const auto& name : have)
      if (!want.count(name))
        std::fprintf(stderr, "perfbench: metric %s not declared\n",
                     name.c_str());
    return false;
  }
  for (const auto& metric : metrics_)
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n",
                   metric.name.c_str());
      return false;
    }
  std::printf("# meta %s\n", meta_json.c_str());
  for (const auto& name : expected)
    for (const auto& metric : metrics_)
      if (metric.name == name)
        std::printf("# metric %-40s %16.6g %s\n", metric.name.c_str(),
                    metric.value, metric.unit.c_str());
  std::string digest = "{";
  for (const auto& [key, value] : deterministic_) {
    if (digest.size() > 1) digest += ", ";
    digest += json_string(key) + ": " + json_string(value);
  }
  std::printf("# deterministic %s}\n", digest.c_str());

  const bool correct = failed_ == 0 && check_failures_.empty();
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& name : expected)
    for (const auto& metric : metrics_) {
      if (metric.name != name) continue;
      if (!first) out += ", ";
      first = false;
      out += json_string(metric.name) + ": {\"value\": " +
             number(metric.value) + ", \"unit\": " + json_string(metric.unit) +
             "}";
    }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return true;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double delta(const wanplace::obs::Snapshot& before,
             const wanplace::obs::Snapshot& after, const std::string& name) {
  const auto a = after.find(name);
  if (a == after.end()) return 0;
  const auto b = before.find(name);
  return a->second.sum - (b == before.end() ? 0.0 : b->second.sum);
}

void CounterTotals::add(const wanplace::obs::Snapshot& before,
                        const wanplace::obs::Snapshot& after) {
  for (const auto& [name, value] : after) {
    (void)value;
    totals_[name] += delta(before, after, name);
  }
}

double CounterTotals::operator[](const std::string& name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? 0.0 : it->second;
}

}  // namespace perfbench
