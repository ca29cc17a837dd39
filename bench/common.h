// Shared infrastructure for the figure-regeneration benches.
//
// Environment knobs:
//   WANPLACE_BENCH_SCALE = paper | small      (default: paper)
//   WANPLACE_BENCH_OUT   = CSV output dir     (default: bench_results)
//
// No solve stops on a clock (PDHG is capped by bounds::kPdhgWorkBudget), so
// a rerun reproduces every CSV column except the timings.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "bounds/engine.h"
#include "core/case_study.h"
#include "util/table.h"

namespace wanplace::bench {

/// The case study all benches share (built once per process).
const core::CaseStudy& case_study();

/// True when WANPLACE_BENCH_SCALE=small.
bool small_scale();

/// PDHG-tuned bound options: forced PDHG at tolerance 3e-4, capped by the
/// engine's iteration budget.
bounds::BoundOptions bound_options();

/// Global results table for the running bench binary; printed (and written
/// as CSV) by run_main() after all benchmarks finish.
Table& results(std::vector<std::string> header_if_new = {});

/// Format a QoS level the way the paper labels its x-axis (95, 99, 99.9...).
std::string qos_label(double tqos);

/// Enable the telemetry registry and zero it. Benches call this before each
/// measured solve so the reported columns come from the same registry that
/// feeds traces — the CSV and a --trace-out of the same run can't disagree.
void reset_metrics();

/// Accumulated total of a metric since the last reset_metrics() (counter
/// total or histogram sample sum); 0 when the metric never fired.
double metric_sum(const std::string& name);

/// Number of recordings of a metric since the last reset_metrics().
std::uint64_t metric_count(const std::string& name);

/// benchmark::Initialize + RunSpecifiedBenchmarks + table dump. `name` is
/// the figure id used for the CSV file name.
int run_main(const std::string& name, int argc, char** argv);

/// Register the Figure 1 benchmarks (lower bound per heuristic class per
/// QoS level) for the WEB or GROUP workload.
void register_fig1(bool group_workload);

/// Register the Figure 3 benchmarks (deployment scenario: phase-1 node
/// opening with zeta = 10000, then reduced-topology class bounds per QoS
/// plus the deployed heuristic).
void register_fig3(bool group_workload);

}  // namespace wanplace::bench
