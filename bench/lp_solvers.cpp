// Micro-benchmark of the LP substrate: bounded-variable simplex over its
// Forrest-Tomlin-updated sparse LU basis with dynamic Devex pricing, vs
// restarted PDHG, on random feasible LPs of growing size plus a real
// ~3900-row MC-PERF relaxation. Reports solve time and iteration count per
// solver and the certified-bound agreement. Explains the engine's Auto
// policy: with a sparse basis the simplex stays exact and fast to a few
// thousand rows, PDHG takes over beyond that.
#include "common.h"

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <limits>
#include <sstream>
#include <vector>

#include "core/case_study.h"
#include "lp/lu.h"
#include "lp/pdhg.h"
#include "lp/simplex.h"
#include "mcperf/builder.h"
#include "mcperf/heuristic_class.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "service/daemon.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "workload/trace.h"

namespace {

using namespace wanplace;

lp::LpModel random_lp(Rng& rng, std::size_t vars, std::size_t rows) {
  lp::LpModel model;
  std::vector<double> x0(vars);
  for (std::size_t j = 0; j < vars; ++j) {
    model.add_variable(0, 1, rng.uniform(-1, 1));
    x0[j] = rng.uniform();
  }
  const double density = std::min(0.5, 20.0 / static_cast<double>(vars));
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<std::size_t> cols;
    std::vector<double> coeffs;
    double activity = 0;
    for (std::size_t j = 0; j < vars; ++j) {
      if (!rng.bernoulli(density)) continue;
      const double a = rng.uniform(-2, 2);
      cols.push_back(j);
      coeffs.push_back(a);
      activity += a * x0[j];
    }
    if (cols.empty()) continue;
    if (rng.bernoulli(0.5))
      model.add_row(lp::RowType::Ge, activity - rng.uniform(0, 1), cols,
                    coeffs);
    else
      model.add_row(lp::RowType::Le, activity + rng.uniform(0, 1), cols,
                    coeffs);
  }
  return model;
}

/// The ~3900-row tree-structured LP the engine actually meets: the scaling
/// case study at 8 nodes x 8 intervals x 60 objects, general class.
mcperf::Instance mcperf_instance(double tqos) {
  core::CaseStudyConfig config;
  config.node_count = 8;
  config.interval_count = 8;
  config.object_count = 60;
  config.web_requests = 16'000;
  config.web_head_count = 6;
  const auto study = core::make_case_study(config);
  return study.web_instance(tqos);
}

lp::LpModel mcperf_lp(double tqos) {
  return mcperf::build_lp(mcperf_instance(tqos), mcperf::classes::general())
      .model;
}

/// The replay's drift script, generated against a scratch copy of the
/// instance so shrink events stay valid by construction.
std::vector<workload::Event> replay_drift_events(mcperf::Instance instance) {
  Rng rng(0xE7E7);
  std::vector<workload::Event> events;
  for (int e = 0; e < 10; ++e) {
    workload::DemandDeltaEvent event;
    event.node = static_cast<graph::NodeId>(
        rng.uniform_index(instance.node_count()));
    event.interval = rng.uniform_index(instance.interval_count());
    event.object = static_cast<workload::ObjectId>(
        rng.uniform_index(instance.object_count()));
    const double reads = instance.demand.read(
        static_cast<std::size_t>(event.node), event.interval,
        static_cast<std::size_t>(event.object));
    event.read_delta = rng.bernoulli(0.7) ? rng.uniform(20.0, 150.0)
                                          : -rng.uniform(0.0, reads);
    if (rng.bernoulli(0.3)) event.write_delta = rng.uniform(0.0, 5.0);
    instance.apply_delta(event, 0);
    events.push_back(event);
  }
  return events;
}

/// One full-pipeline daemon replay of the drift script. With `telemetry`
/// the registry is live and the whole metrics state (Prometheus document
/// including the series view) is re-serialized after every event, exactly
/// as `wanplace_cli serve --metrics-out` does. Returns wall seconds.
double time_daemon_replay(const std::vector<workload::Event>& events,
                          bool telemetry,
                          std::vector<obs::SeriesPoint>* points_out) {
  auto& registry = obs::Registry::global();
  registry.enable(telemetry);
  if (telemetry) registry.reset();
  service::DaemonOptions options;
  options.spec = mcperf::classes::general();
  service::PlacementDaemon daemon(mcperf_instance(0.9), std::move(options));
  std::ostringstream sink;
  std::size_t exported_bytes = 0;
  Stopwatch watch;
  daemon.start();
  if (telemetry) {
    obs::export_metrics(sink, obs::MetricsFormat::Prometheus,
                        registry.snapshot(), &daemon.series());
  }
  for (const auto& event : events) {
    daemon.on_event(event);
    if (telemetry) {
      sink.str(std::string());  // the CLI rewrites the file in place
      obs::export_metrics(sink, obs::MetricsFormat::Prometheus,
                          registry.snapshot(), &daemon.series());
      exported_bytes += sink.str().size();
    }
  }
  const double seconds = watch.elapsed_seconds();
  ::benchmark::DoNotOptimize(exported_bytes);
  if (points_out != nullptr) *points_out = daemon.series().points();
  registry.enable(false);
  return seconds;
}

double point_value(const obs::SeriesPoint& point, const char* key,
                   bool seconds = false) {
  for (const auto& [k, v] : seconds ? point.seconds : point.values)
    if (k == key) return v;
  return 0.0;
}

/// Continuous re-placement replay on the q90 MC-PERF LP: a seeded stream of
/// demand deltas, each mirrored into the standing model by
/// mcperf::apply_delta and re-solved warm (dual simplex from the carried
/// basis) — versus a full rebuild + cold two-phase solve of the same
/// post-event instance. The per-event pivot ratio is the operating cost of
/// the re-placement daemon per drift event; the objectives cross-check the
/// delta path. Rows land in lp_replay.csv next to this binary's main table.
/// A second phase runs the same script through the full PlacementDaemon
/// with and without telemetry+export, gates the observability overhead at
/// 2%, and writes the per-event series to lp_replay_timeseries.csv.
void run_event_replay(::benchmark::State& state) {
  auto instance = mcperf_instance(0.9);
  const auto spec = mcperf::classes::general();
  Table table({"event", "cold-it", "warm-it", "cold/warm", "cold-obj",
               "warm-obj"});
  double warm_total = 0, cold_total = 0;
  std::size_t events = 0;
  for (auto _ : state) {
    auto built = mcperf::build_lp(instance, spec);
    lp::SimplexOptions cold_options;
    const auto base = lp::solve_simplex(built.model, cold_options);
    lp::BasisSnapshot basis = base.basis;
    Rng rng(0xE7E7);
    for (int e = 0; e < 10; ++e) {
      workload::DemandDeltaEvent event;
      event.node = static_cast<graph::NodeId>(
          rng.uniform_index(instance.node_count()));
      event.interval = rng.uniform_index(instance.interval_count());
      event.object = static_cast<workload::ObjectId>(
          rng.uniform_index(instance.object_count()));
      const double reads = instance.demand.read(
          static_cast<std::size_t>(event.node), event.interval,
          static_cast<std::size_t>(event.object));
      // Flash-crowd scale: the cells average ~4 reads, so drift has to be
      // tens of reads to move the group-normalized QoS coefficients enough
      // that the carried basis actually needs repair pivots.
      event.read_delta = rng.bernoulli(0.7) ? rng.uniform(20.0, 150.0)
                                            : -rng.uniform(0.0, reads);
      if (rng.bernoulli(0.3)) event.write_delta = rng.uniform(0.0, 5.0);
      instance.apply_delta(event, 0);
      mcperf::apply_delta(instance, spec, event, built, basis);

      lp::SimplexOptions warm_options;
      warm_options.method = lp::SimplexOptions::Method::Dual;
      warm_options.warm_start = &basis;
      const auto warm = lp::solve_simplex(built.model, warm_options);
      basis = warm.basis;

      auto rebuilt = mcperf::build_lp(instance, spec);
      const auto cold = lp::solve_simplex(rebuilt.model, cold_options);

      warm_total += static_cast<double>(warm.iterations);
      cold_total += static_cast<double>(cold.iterations);
      ++events;
      table.cell(static_cast<std::int64_t>(e))
          .cell(static_cast<std::int64_t>(cold.iterations))
          .cell(static_cast<std::int64_t>(warm.iterations))
          .cell(warm.iterations > 0
                    ? format_number(static_cast<double>(cold.iterations) /
                                        static_cast<double>(warm.iterations),
                                    1)
                    : std::string("inf"));
      table.cell(cold.objective, 4).cell(warm.objective, 4);
      table.finish_row();
    }
  }
  state.counters["cold_it_per_event"] =
      cold_total / static_cast<double>(events);
  state.counters["warm_it_per_event"] =
      warm_total / static_cast<double>(events);
  state.counters["pivot_ratio"] =
      warm_total > 0 ? cold_total / warm_total : 0;

  std::cout << "\n=== lp_replay (warm dual vs cold rebuild per event) ===\n"
            << table.to_ascii();
  const char* env = std::getenv("WANPLACE_BENCH_OUT");
  const std::string out_dir = env && *env ? env : "bench_results";
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (!ec) {
    const std::string path = out_dir + "/lp_replay.csv";
    table.write_csv(path);
    std::cout << "(csv written to " << path << ")\n";
  }

  // Full-pipeline daemon replay: the ISSUE's overhead budget says the
  // always-on observability (registry + per-event Prometheus re-export)
  // may cost at most 2% of replay wall time. Best-of-3 per mode to shed
  // scheduler noise — the solves dominate, so the bound is tight anyway.
  const auto script = replay_drift_events(mcperf_instance(0.9));
  double off_s = std::numeric_limits<double>::infinity();
  double on_s = std::numeric_limits<double>::infinity();
  std::vector<obs::SeriesPoint> points;
  for (int rep = 0; rep < 3; ++rep) {
    off_s = std::min(off_s, time_daemon_replay(script, false, nullptr));
    on_s = std::min(on_s, time_daemon_replay(script, true, &points));
  }
  const double overhead = off_s > 0 ? (on_s - off_s) / off_s : 0;
  state.counters["daemon_replay_s"] = off_s;
  state.counters["telemetry_overhead_pct"] = 100 * overhead;
  std::cout << "daemon replay: " << format_number(off_s, 3)
            << "s plain, " << format_number(on_s, 3)
            << "s with telemetry+export (overhead "
            << format_number(100 * overhead, 2) << "%)\n";
  if (overhead > 0.02) {
    state.SkipWithError("telemetry+export overhead exceeded the 2% budget");
  }

  // Batched replay: the same drift script folded through on_batch in bursts
  // of 5 — one warm re-solve per burst instead of one per event. Reports
  // pivots/event and the rebuild count next to the per-event baseline; both
  // land in BENCH_lp.json.
  struct ReplayCounts {
    std::size_t pivots = 0;
    std::size_t solves = 0;  // warm re-solves after drift (one per burst)
    service::DaemonStatus status;
  };
  const auto replay_counts = [&script](std::size_t batch_size) {
    service::DaemonOptions options;
    options.spec = mcperf::classes::general();
    service::PlacementDaemon daemon(mcperf_instance(0.9),
                                    std::move(options));
    ReplayCounts counts;
    daemon.start();  // the initial cold solve is not drift cost
    for (std::size_t start = 0; start < script.size();
         start += batch_size) {
      const auto last = std::min(script.size(), start + batch_size);
      counts.pivots += daemon
                           .on_batch(workload::EventBatch(
                               script.begin() + start, script.begin() + last))
                           .pivots;
      ++counts.solves;
    }
    counts.status = daemon.status();
    return counts;
  };
  const auto per_event = replay_counts(1);
  const auto batched = replay_counts(5);
  const double event_count = static_cast<double>(script.size());
  state.counters["replay_pivots_per_event"] =
      static_cast<double>(per_event.pivots) / event_count;
  state.counters["batched_pivots_per_event"] =
      static_cast<double>(batched.pivots) / event_count;
  state.counters["replay_drift_rebuilds"] =
      static_cast<double>(per_event.status.rebuilds - 1);
  state.counters["batched_drift_rebuilds"] =
      static_cast<double>(batched.status.rebuilds - 1);
  state.counters["replay_solves"] = static_cast<double>(per_event.solves);
  state.counters["batched_solves"] = static_cast<double>(batched.solves);
  std::cout << "batched replay (burst 5): "
            << format_number(static_cast<double>(batched.pivots) /
                                 event_count,
                             1)
            << " pivots/event over " << batched.solves
            << " warm re-solves and " << batched.status.rebuilds - 1
            << " drift rebuilds, vs per-event "
            << format_number(static_cast<double>(per_event.pivots) /
                                 event_count,
                             1)
            << " pivots/event over " << per_event.solves << " and "
            << per_event.status.rebuilds - 1
            << "; bounds "
            << format_number(batched.status.lower_bound, 6) << " vs "
            << format_number(per_event.status.lower_bound, 6) << "\n";
  if (std::abs(batched.status.lower_bound -
               per_event.status.lower_bound) >
      1e-6 * (1 + std::abs(per_event.status.lower_bound))) {
    state.SkipWithError("batched replay bound diverged from per-event");
  }

  // Per-event series of the telemetry run: the regret-over-replay raw data
  // the EXPERIMENTS tables are built from.
  Table series_table({"event", "kind", "pivots", "bound", "incumbent",
                      "regret", "staleness", "validate-s", "patch-s",
                      "resolve-s", "audit-s", "policy-s"});
  for (const auto& point : points) {
    series_table.cell(static_cast<std::int64_t>(point.index))
        .cell(point.kind)
        .cell(static_cast<std::int64_t>(point_value(point, "pivots")))
        .cell(point_value(point, "lower_bound"), 4)
        .cell(point_value(point, "incumbent_cost"), 4)
        .cell(point_value(point, "regret"), 4)
        .cell(static_cast<std::int64_t>(point_value(point, "staleness")))
        .cell(point_value(point, "validate", true), 6)
        .cell(point_value(point, "patch", true), 6)
        .cell(point_value(point, "resolve", true), 6)
        .cell(point_value(point, "audit", true), 6)
        .cell(point_value(point, "policy", true), 6);
    series_table.finish_row();
  }
  if (!ec) {
    const std::string path = out_dir + "/lp_replay_timeseries.csv";
    series_table.write_csv(path);
    std::cout << "(series csv written to " << path << ")\n";
  }
}

struct Paths {
  bool ft = true;          // the simplex (Forrest-Tomlin + dynamic Devex)
  bool factorize = false;  // time refactorizations of the optimal ft basis
};

/// Median wall time (ms) of kReps factorizations of the basis a solve
/// exported: the per-factorization figure the bench-smoke gate budgets.
/// Artificial columns enter as +1 unit columns; their sign cannot change
/// the sparsity pattern the factorization's cost follows.
double factorize_ms(const lp::LpModel& model, const lp::BasisSnapshot& basis) {
  using Entry = lp::BasisLu::Entry;
  const std::size_t n = model.variable_count();
  const std::size_t m = model.row_count();
  std::vector<std::vector<Entry>> structural(n);
  for (std::size_t r = 0; r < m; ++r) {
    const auto& row = model.row(r);
    for (std::size_t t = 0; t < row.cols.size(); ++t)
      structural[row.cols[t]].push_back(
          {static_cast<std::uint32_t>(r), row.coeffs[t]});
  }
  std::vector<std::vector<Entry>> columns(m);
  for (std::size_t p = 0; p < m; ++p) {
    const std::uint32_t j = basis.basis[p];
    if (j == lp::BasisSnapshot::kArtificialBasic)
      columns[p] = {{static_cast<std::uint32_t>(p), 1.0}};
    else if (j < n)
      columns[p] = structural[j];
    else
      columns[p] = {{static_cast<std::uint32_t>(j - n), 1.0}};
  }
  constexpr std::size_t kReps = 7;
  lp::BasisLu lu;
  std::vector<double> ms;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    Stopwatch watch;
    if (!lu.factorize(m, columns))
      return std::numeric_limits<double>::quiet_NaN();
    ms.push_back(1e3 * watch.elapsed_seconds());
  }
  std::nth_element(ms.begin(), ms.begin() + kReps / 2, ms.end());
  return ms[kReps / 2];
}

void run_point(::benchmark::State& state, const lp::LpModel& model,
               Paths paths, std::size_t pdhg_iterations,
               double pdhg_tolerance = 1e-7) {
  // Timings and iteration counts are read back from the telemetry registry
  // (reset before each path) rather than the LpSolution fields, so these
  // columns agree with any trace of the same solve by construction.
  double ft_s = 0, ft_obj = 0, pdhg_s = 0;
  double ft_sparse_frac = 0, lu_ms = 0;
  std::size_t ft_it = 0, re_cold_it = 0, re_warm_it = 0;
  lp::LpSolution pdhg;
  for (auto _ : state) {
    if (paths.ft) {
      lp::SimplexOptions options;
      bench::reset_metrics();
      const auto exact = lp::solve_simplex(model, options);
      ft_s = bench::metric_sum("simplex.solve_seconds");
      ft_obj = exact.objective;
      ft_it = static_cast<std::size_t>(
          bench::metric_sum("simplex.iterations"));
      // Kernel split for the same solve (read before the next reset): the
      // fraction of FTRAN/BTRAN solves that took the hyper-sparse path.
      const double sparse = bench::metric_sum("simplex.ftran.sparse") +
                            bench::metric_sum("simplex.btran.sparse");
      const double dense = bench::metric_sum("simplex.ftran.dense") +
                           bench::metric_sum("simplex.btran.dense");
      ft_sparse_frac = sparse + dense > 0 ? sparse / (sparse + dense) : 0;
      if (paths.factorize) lu_ms = factorize_ms(model, exact.basis);

      // Warm-started re-optimization: fix a slice of variables to a bound
      // (the planner-phase-2 / per-class re-solve perturbation shape) and
      // re-solve the perturbed model cold (two-phase primal from scratch)
      // vs warm (dual simplex from the exported basis).
      lp::LpModel perturbed = model;
      for (std::size_t j = 0; j < perturbed.variable_count(); j += 32)
        if (perturbed.lower(j) > -lp::kInfinity)
          perturbed.fix_variable(j, perturbed.lower(j));
      bench::reset_metrics();
      lp::solve_simplex(perturbed, options);
      re_cold_it = static_cast<std::size_t>(
          bench::metric_sum("simplex.iterations"));
      lp::SimplexOptions warm_options;
      warm_options.method = lp::SimplexOptions::Method::Dual;
      warm_options.warm_start = &exact.basis;
      bench::reset_metrics();
      lp::solve_simplex(perturbed, warm_options);
      re_warm_it = static_cast<std::size_t>(
          bench::metric_sum("simplex.iterations"));
    }
    lp::PdhgOptions options;
    options.tolerance = pdhg_tolerance;
    options.max_iterations = pdhg_iterations;
    bench::reset_metrics();
    pdhg = lp::solve_pdhg(model, options);
    pdhg_s = bench::metric_sum("pdhg.solve_seconds");
  }
  state.counters["pdhg_bound"] = pdhg.dual_bound;
  const double gap = paths.ft ? std::abs(ft_obj - pdhg.dual_bound) /
                                    (1 + std::abs(ft_obj))
                              : 0;
  bench::results()
      .cell(static_cast<std::int64_t>(model.variable_count()))
      .cell(static_cast<std::int64_t>(model.row_count()))
      .cell(paths.ft ? format_number(ft_s, 3) : std::string("-"))
      .cell(paths.ft ? std::to_string(ft_it) : std::string("-"))
      .cell(paths.ft && ft_it > 0
                ? format_number(ft_s / static_cast<double>(ft_it) * 1e6, 1)
                : std::string("-"))
      .cell(paths.ft ? format_number(100 * ft_sparse_frac, 1)
                     : std::string("-"))
      .cell(paths.ft ? format_number(ft_obj, 3) : std::string("-"))
      .cell(paths.factorize ? format_number(lu_ms, 3) : std::string("-"))
      .cell(pdhg_s, 3)
      .cell(pdhg.dual_bound, 3)
      .cell(paths.ft ? format_number(gap, 7) : std::string("-"))
      .cell(paths.ft ? std::to_string(re_cold_it) : std::string("-"))
      .cell(paths.ft ? std::to_string(re_warm_it) : std::string("-"));
  bench::results().finish_row();
}

void register_points() {
  bench::results({"vars", "rows", "ft-s", "ft-it", "ft-us/it", "sparse%",
                  "ft-obj", "lu-ms", "pdhg-s", "pdhg-bound",
                  "rel-gap", "re-cold-it", "re-warm-it"});
  struct Size {
    std::size_t vars, rows;
    Paths paths;
    std::size_t pdhg_iterations;
  };
  for (const Size size :
       {Size{60, 40, {true}, 200'000}, Size{250, 180, {true}, 200'000},
        Size{1000, 700, {true}, 200'000}, Size{4000, 3000, {true}, 200'000},
        Size{8000, 6000, {false}, 200'000}}) {
    const std::string label = "lp/" + std::to_string(size.vars) + "x" +
                              std::to_string(size.rows);
    ::benchmark::RegisterBenchmark(
        label.c_str(),
        [size](::benchmark::State& state) {
          Rng rng(31337 + size.vars);
          const auto model = random_lp(rng, size.vars, size.rows);
          run_point(state, model, size.paths, size.pdhg_iterations);
        })
        ->Iterations(1)
        ->Unit(::benchmark::kSecond);
  }

  // The acceptance point for the sparse bases: a >=3000-row MC-PERF LP
  // (3914 rows) solved exactly by the Forrest-Tomlin simplex,
  // cross-checked against PDHG. At tqos=0.9 PDHG converges fully and the
  // paths agree to <1e-6. Its lu-ms column (median refactorization of the
  // optimal basis) feeds the bench_smoke per-factorization budget.
  ::benchmark::RegisterBenchmark(
      "lp/mcperf-8x8x60-q90",
      [](::benchmark::State& state) {
        const auto model = mcperf_lp(0.9);
        run_point(state, model, {true, true}, 2'000'000, 1e-8);
      })
      ->Iterations(1)
      ->Unit(::benchmark::kSecond);

  // The daemon's steady state: drift events against the standing q90 model.
  // Named without the instance tag so the bench_smoke gates (which filter
  // on "mcperf-8x8x60-q90") keep timing the plain solve only.
  ::benchmark::RegisterBenchmark("lp/event-replay-q90", run_event_replay)
      ->Iterations(1)
      ->Unit(::benchmark::kSecond);

  // The same LP at tqos=0.99: the near-tight coverage rows slow PDHG's
  // tail to a crawl (measured: 1M iters -> 1.4e-5 gap, 4M -> 1.0e-5,
  // 8M/~380s -> 1.4e-6) while the exact simplex solves it in about a
  // second — the case that motivates keeping an exact path under the Auto
  // policy. The bench caps PDHG at 1M iterations and reports the honest
  // ~1e-5 gap.
  ::benchmark::RegisterBenchmark(
      "lp/mcperf-8x8x60-q99",
      [](::benchmark::State& state) {
        const auto model = mcperf_lp(0.99);
        run_point(state, model, {true}, 1'000'000, 1e-8);
      })
      ->Iterations(1)
      ->Unit(::benchmark::kSecond);
}

}  // namespace

int main(int argc, char** argv) {
  register_points();
  return wanplace::bench::run_main("lp_solvers", argc, argv);
}
