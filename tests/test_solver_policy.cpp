// The bound engine's solver policy (bounds::solve_lp): Solver::Auto runs
// the simplex on every LP under a deterministic work budget and re-solves
// with PDHG only when that budget runs out.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "bounds/engine.h"
#include "core/case_study.h"
#include "mcperf/heuristic_class.h"
#include "obs/metrics.h"
#include "service/daemon.h"
#include "util/rng.h"

namespace wanplace {
namespace {

/// Metrics on for one test, restored to the default disabled state after.
struct MetricsScope {
  MetricsScope() {
    obs::Registry::global().enable(true);
    obs::Registry::global().reset();
  }
  ~MetricsScope() {
    obs::Registry::global().enable(false);
    obs::Registry::global().reset();
  }
};

double counter(const char* name) {
  const auto snapshot = obs::Registry::global().snapshot();
  const auto it = snapshot.find(name);
  return it == snapshot.end() ? 0.0 : it->second.sum;
}

/// The WEB case study at the measured point (8 nodes, 8 intervals, 60
/// objects, 16,000 reads) that the benchmarks run.
mcperf::Instance case_study(double tqos) {
  core::CaseStudyConfig config;
  config.node_count = 8;
  config.interval_count = 8;
  config.object_count = 60;
  config.web_requests = 16'000;
  config.web_head_count = 6;
  return core::make_case_study(config).web_instance(tqos);
}

bounds::BoundOptions serial(bounds::BoundOptions::Solver solver) {
  bounds::BoundOptions options;
  options.solver = solver;
  options.parallelism = 1;
  options.run_rounding = false;
  return options;
}

// The 4394-row replica-constrained LP of select at tqos 0.99 once sat above
// a 4000-row simplex limit and ran PDHG to its iteration cap (975.28 against
// the exact 976.37). Auto now solves it exactly.
TEST(SolverPolicy, AutoSolvesQ99ReplicaConstrainedExactly) {
  const auto instance = case_study(0.99);
  const auto spec = mcperf::classes::replica_constrained();
  const auto automatic = bounds::compute_bound_detail(
      instance, spec, serial(bounds::BoundOptions::Solver::Auto));
  const auto forced = bounds::compute_bound(
      instance, spec, serial(bounds::BoundOptions::Solver::Simplex));
  ASSERT_EQ(automatic.bound.lp_rows, 4394u);
  ASSERT_EQ(automatic.bound.status, lp::SolveStatus::Optimal);
  EXPECT_EQ(automatic.bound.solver.path, bounds::SolverRun::Path::Simplex);
  EXPECT_FALSE(automatic.solution.basis.empty());
  EXPECT_NEAR(automatic.bound.lower_bound, forced.lower_bound, 1e-7);
}

// A simplex that stops at its iteration limit under Auto hands the LP to
// PDHG: counted once, named in the bound, and still certified.
TEST(SolverPolicy, ExhaustedBudgetFallsBackToPdhg) {
  MetricsScope metrics;
  const auto instance =
      core::make_case_study(core::CaseStudyConfig::small()).web_instance(0.9);
  const auto spec = mcperf::classes::general();
  auto options = serial(bounds::BoundOptions::Solver::Auto);
  options.simplex.max_iterations = 5;  // far below what the LP needs
  const auto fallback = bounds::compute_bound_detail(instance, spec, options);
  EXPECT_EQ(counter("bounds.pdhg_fallback"), 1.0);
  EXPECT_EQ(fallback.bound.solver.path,
            bounds::SolverRun::Path::SimplexThenPdhg);
  EXPECT_TRUE(fallback.solution.basis.empty());  // PDHG's answer is kept
  EXPECT_EQ(bounds::to_string(fallback.bound.solver).rfind("simplex->pdhg", 0),
            0u);
  // No clock stops PDHG, so a second solve reproduces the first bit for bit.
  const auto again = bounds::compute_bound_detail(instance, spec, options);
  EXPECT_EQ(again.bound.lower_bound, fallback.bound.lower_bound);
  EXPECT_EQ(again.solution.iterations, fallback.solution.iterations);

  const auto exact = bounds::compute_bound(
      instance, spec, serial(bounds::BoundOptions::Solver::Simplex));
  ASSERT_EQ(exact.status, lp::SolveStatus::Optimal);
  EXPECT_GT(fallback.bound.lower_bound, 0.0);
  EXPECT_LE(fallback.bound.lower_bound,
            exact.lower_bound + 1e-9 * (1 + exact.lower_bound));
  // The forced-simplex reference solve did not fall back.
  EXPECT_EQ(counter("bounds.pdhg_fallback"), 2.0);
}

// A forced solver that stops at its cap names the cap, whether the cap is
// the caller's max_iterations or the engine's PDHG work budget; a forced
// simplex never falls back to PDHG.
TEST(SolverPolicy, CapsAreNamed) {
  MetricsScope metrics;
  const auto instance =
      core::make_case_study(core::CaseStudyConfig::small()).web_instance(0.9);
  auto pdhg = serial(bounds::BoundOptions::Solver::Pdhg);
  pdhg.pdhg.max_iterations = 200;
  const auto capped =
      bounds::compute_bound(instance, mcperf::classes::general(), pdhg);
  ASSERT_EQ(capped.status, lp::SolveStatus::IterationLimit);
  EXPECT_EQ(capped.solver.path, bounds::SolverRun::Path::Pdhg);
  EXPECT_EQ(capped.solver.cap, bounds::SolverRun::Cap::Iterations);
  EXPECT_EQ(bounds::to_string(capped.solver), "pdhg (iteration cap)");

  // 150 random rows over 200 columns never converge at tolerance 0, and
  // columns no row touches widen the LP until kPdhgWorkBudget buys ~17k
  // iterations, below max_iterations: the solve stops at exactly that
  // share. Progress checks can only cost time here, so none runs.
  Rng rng(17);
  lp::LpModel wide;
  for (int j = 0; j < 200; ++j) wide.add_variable(0, 1, rng.uniform(-1, 1));
  for (int r = 0; r < 150; ++r) {
    std::vector<std::size_t> cols;
    std::vector<double> coeffs;
    for (std::size_t j = 0; j < 200; ++j)
      if (rng.bernoulli(0.1)) {
        cols.push_back(j);
        coeffs.push_back(rng.uniform(-1, 1));
      }
    if (!cols.empty()) wide.add_row(lp::RowType::Ge, -2, cols, coeffs);
  }
  while (wide.variable_count() < 30'000) wide.add_variable(0, 1, 1);
  auto budgeted = serial(bounds::BoundOptions::Solver::Pdhg);
  budgeted.pdhg.tolerance = 0;
  budgeted.pdhg.check_period = budgeted.pdhg.max_iterations;
  const auto share = static_cast<std::size_t>(
      bounds::kPdhgWorkBudget /
      static_cast<double>(wide.row_count() + wide.variable_count()));
  ASSERT_LT(share, budgeted.pdhg.max_iterations);
  const auto run = bounds::solve_lp(instance, wide, budgeted);
  EXPECT_EQ(run.solution.status, lp::SolveStatus::IterationLimit);
  EXPECT_EQ(run.solution.iterations, share);
  EXPECT_EQ(bounds::to_string(run.solver), "pdhg (iteration cap)");

  auto simplex = serial(bounds::BoundOptions::Solver::Simplex);
  simplex.simplex.max_iterations = 5;
  const auto stopped =
      bounds::compute_bound(instance, mcperf::classes::general(), simplex);
  ASSERT_EQ(stopped.status, lp::SolveStatus::IterationLimit);
  EXPECT_EQ(bounds::to_string(stopped.solver), "simplex (iteration cap)");
  EXPECT_EQ(counter("bounds.pdhg_fallback"), 0.0);
}

// The daemon's cold start and its warm re-solves on the q90 case study
// (3914 rows) stay far inside the budget: no event ever falls back.
TEST(SolverPolicy, DaemonNeverSpendsTheBudget) {
  MetricsScope metrics;
  auto instance = case_study(0.9);
  service::DaemonOptions options;
  options.spec = mcperf::classes::general();
  options.bounds.parallelism = 1;
  service::PlacementDaemon daemon(instance, options);
  const auto start = daemon.start();
  ASSERT_TRUE(start.achievable);
  EXPECT_FALSE(start.warm);
  Rng rng(0xE7E7);
  for (int e = 0; e < 12; ++e) {
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
    instance.apply_delta(event, 0);
    const auto outcome = daemon.on_event(event);
    ASSERT_FALSE(outcome.rejected) << outcome.error;
    EXPECT_TRUE(outcome.warm) << "event " << e;
    EXPECT_EQ(outcome.status, lp::SolveStatus::Optimal) << "event " << e;
  }
  EXPECT_EQ(counter("bounds.pdhg_fallback"), 0.0);
  EXPECT_EQ(counter("pdhg.solves"), 0.0);
  EXPECT_EQ(counter("bounds.classes"), 13.0);
}

}  // namespace
}  // namespace wanplace
