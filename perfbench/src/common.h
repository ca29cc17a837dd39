// Shared plumbing of the wanplace benchmark: command-line arguments, the
// metric sheet every run prints, order statistics, process resource
// readings and registry-counter deltas.
//
// The benchmark drives the library only through its public entry points and
// times every layer from the outside; nothing here is compiled into the
// library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;     // scratch directory for the generated input files
  std::string commit;  // source identity stamped into the meta line
};

/// One metric of the result sheet.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Metric names every run must report, in print order: the end-to-end set
/// for untraced runs, the per-layer set for traced runs. BENCHMARK.json at
/// the repository root lists the same names.
const std::vector<std::string>& end_to_end_names();
const std::vector<std::string>& per_layer_names();

/// The heuristic classes `select` evaluates, general first (the slot order
/// of SelectionReport::details).
const std::vector<std::string>& class_names();

/// Outcome of one run: the metrics plus the operation accounting.
class Sheet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Record one checked top-level operation.
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Record a check failure outside the per-operation accounting (for
  /// example a reference mismatch found after the timed phase).
  void fail_check(const std::string& what);
  /// Deterministic outputs compared by the self-test.
  void deterministic(const std::string& key, const std::string& value) {
    deterministic_[key] = value;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Print the meta line, one line per metric, the deterministic digest,
  /// then the result object as the last line. Returns false (and prints no
  /// result) when the metric set does not match `expected`.
  bool print(const std::vector<std::string>& expected,
             const std::string& meta_json) const;

 private:
  std::vector<Metric> metrics_;
  std::map<std::string, std::string> deterministic_;
  std::vector<std::string> check_failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Linear-interpolated quantile (q in [0, 1]) of a sample; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// Seconds of CPU time consumed by the whole process so far.
double process_cpu_seconds();
/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// Wall-clock timer on the steady clock.
class Timer {
 public:
  Timer() : start_(clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  double ms() const { return 1e3 * seconds(); }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Sum of a registry metric (counter total or histogram sample sum) in
/// `after` minus `before`; 0 for names that never fired.
double delta(const wanplace::obs::Snapshot& before,
             const wanplace::obs::Snapshot& after, const std::string& name);

/// Accumulates registry deltas over a sequence of traced calls.
class CounterTotals {
 public:
  void add(const wanplace::obs::Snapshot& before,
           const wanplace::obs::Snapshot& after);
  double operator[](const std::string& name) const;

 private:
  std::map<std::string, double> totals_;
};

/// Relative tolerance used by every bound comparison: 1e-7 * (1 + |ref|).
inline double bound_tolerance(double reference) {
  return 1e-7 * (1.0 + (reference < 0 ? -reference : reference));
}

/// Render a double with all its digits.
std::string number(double value);

}  // namespace perfbench
