// Randomized differential LP harness.
//
// Three independent checks run over a seeded stream of random LPs
// (tests/lp_fuzz.h) and over real MC-PERF relaxations: the simplex, an
// optimality certificate (tests/lp_certify.h) and PDHG. Every simplex
// optimum must pass the KKT certificate, which reads only the model and the
// solution's (x, y) and shares no code with any solver, so a pricing,
// ratio-test, FT elimination, R-file or sparse-kernel defect that lands on
// a wrong vertex fails here long before it corrupts a paper experiment.
// Statuses are cross-checked between the primal and a cold dual simplex
// solve (a different pricing rule and ratio test) and against what the
// generator guarantees; PDHG's certified dual bound must never overstate
// the simplex optimum.
//
// The stream is four-tiered: classic shards (randomized shape/bounds/row
// mix), adversarial shards (pricing ties, near-singular column pairs, long
// pivot sequences — see fuzz_adversarial_lp), a stress shard that replays
// instances with a tiny refactor period and fill factor so pivot sequences
// run well past 2x the refactor period, and an edge-shape shard (empty
// rows, no rows, free and fixed columns — see fuzz_edge_lp).
//
// Re-run a failing case locally with WANPLACE_FUZZ_SEED=<base> (the base
// seed is printed in every failure message; per-case seeds are base+offset).
// WANPLACE_FUZZ_COUNT scales every shard (nightly runs use 150 -> 1650+
// instances; the default 60 keeps the default suite over 600).

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "bounds/engine.h"
#include "instance_helpers.h"
#include "lp/model.h"
#include "lp/pdhg.h"
#include "lp/simplex.h"
#include "lp_certify.h"
#include "lp_fuzz.h"
#include "mcperf/builder.h"
#include "mcperf/heuristic_class.h"
#include "obs/metrics.h"

namespace wanplace::lp {
namespace {

SimplexOptions dual_options() {
  SimplexOptions options;
  options.method = SimplexOptions::Method::Dual;
  return options;
}

/// Stress variant: force the update machinery to be the long pole. Every
/// pivot sequence longer than ~8 iterations runs past 2x the refactor
/// period, and the FT update trips its fill guard almost immediately.
SimplexOptions stressed(SimplexOptions options) {
  options.refactor_period = 4;
  options.ft_fill_factor = 1.05;
  return options;
}

/// The generator's guarantee against a solve's status. Returns true when
/// the instance has an optimum to compare objectives on.
bool status_matches_kind(const test::FuzzLp& fuzz, SolveStatus status,
                         const std::string& tag) {
  switch (fuzz.kind) {
    case test::FuzzKind::Infeasible:
      EXPECT_EQ(status, SolveStatus::Infeasible) << tag;
      return false;
    case test::FuzzKind::Unbounded:
      EXPECT_EQ(status, SolveStatus::Unbounded) << tag;
      return false;
    case test::FuzzKind::Feasible:
      // Feasible by construction: never Infeasible. Free variables with
      // constrained rows can still make the instance legitimately
      // unbounded — the primal and dual must agree on that.
      EXPECT_NE(status, SolveStatus::Infeasible) << tag;
      break;
  }
  return status == SolveStatus::Optimal;
}

/// Run one generated instance through the primal and the cold dual simplex
/// (plus PDHG on optimal instances) and cross-check. `tweak` lets the
/// stress shard tighten the basis-management knobs on both methods.
void check_instance(const test::FuzzLp& fuzz, const std::string& tag,
                    SimplexOptions (*tweak)(SimplexOptions) = nullptr) {
  SimplexOptions primal_opts;
  auto dual_opts = dual_options();
  if (tweak) {
    primal_opts = tweak(primal_opts);
    dual_opts = tweak(dual_opts);
  }

  const auto primal = solve_simplex(fuzz.model, primal_opts);
  const auto dual = solve_simplex(fuzz.model, dual_opts);

  // Different pricing rules and ratio tests, same status, always.
  ASSERT_EQ(primal.status, dual.status) << tag;
  // PDHG's infeasibility detection is heuristic; it runs on optima only.
  if (!status_matches_kind(fuzz, primal.status, tag)) return;

  EXPECT_TRUE(test::certify_optimal(fuzz.model, primal)) << tag;
  EXPECT_TRUE(test::certify_optimal(fuzz.model, dual)) << tag;
  const double scale = 1 + std::abs(primal.objective);
  EXPECT_LE(primal.dual_bound, primal.objective + 1e-7 * scale) << tag;

  // PDHG: its certificate must never overstate the certified optimum; when
  // it reports convergence its objective must land within first-order
  // tolerance of it.
  PdhgOptions pdhg;
  pdhg.max_iterations = 60000;
  pdhg.tolerance = 1e-6;
  const auto approx = solve_pdhg(fuzz.model, pdhg);
  EXPECT_LE(approx.dual_bound, primal.objective + 1e-6 * scale) << tag;
  // PDHG can stall at a suboptimal stationary point when the model has
  // doubly-unbounded variables (its certificate degrades to -inf there, so
  // the bound stays valid — MC-PERF relaxations never produce free
  // variables). On box-bounded instances a claimed convergence must land
  // on the exact optimum to first-order accuracy.
  if (!fuzz.has_free && approx.status == SolveStatus::Optimal &&
      fuzz.model.max_violation(approx.x) <= 1e-5) {
    EXPECT_NEAR(approx.objective, primal.objective, 1e-2 * scale) << tag;
  }
}

std::string case_tag(const char* family, std::uint64_t base,
                     std::uint64_t offset, const test::FuzzLp& fuzz) {
  return std::string(family) + " base " + std::to_string(base) + " offset " +
         std::to_string(offset) + " (" +
         std::to_string(fuzz.model.variable_count()) + "v x " +
         std::to_string(fuzz.model.row_count()) + "r)";
}

void check_classic(std::uint64_t base, std::uint64_t offset) {
  const auto fuzz = test::fuzz_lp(base + offset);
  check_instance(fuzz, case_tag("classic", base, offset, fuzz));
}

void check_adversarial(std::uint64_t base, std::uint64_t offset) {
  const auto fuzz = test::fuzz_adversarial_lp(base + offset);
  check_instance(fuzz, case_tag("adversarial", base, offset, fuzz));
}

// Classic shards: 4 x WANPLACE_FUZZ_COUNT (default 60) seeded LPs, sharded
// so ctest can keep the shards separately addressable.
TEST(FuzzDifferential, RandomLpsShard0) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 0; i < n; ++i) check_classic(base, i);
}

TEST(FuzzDifferential, RandomLpsShard1) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = n; i < 2 * n; ++i) check_classic(base, i);
}

TEST(FuzzDifferential, RandomLpsShard2) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 2 * n; i < 3 * n; ++i) check_classic(base, i);
}

TEST(FuzzDifferential, RandomLpsShard3) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 3 * n; i < 4 * n; ++i) check_classic(base, i);
}

// Adversarial shards: pricing-tie / near-singular / long-pivot profiles.
TEST(FuzzAdversarial, TargetedLpsShard0) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 0; i < n; ++i) check_adversarial(base, i);
}

TEST(FuzzAdversarial, TargetedLpsShard1) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = n; i < 2 * n; ++i) check_adversarial(base, i);
}

TEST(FuzzAdversarial, TargetedLpsShard2) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 2 * n; i < 3 * n; ++i) check_adversarial(base, i);
}

TEST(FuzzAdversarial, TargetedLpsShard3) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 3 * n; i < 4 * n; ++i) check_adversarial(base, i);
}

// Warm-start re-optimization shards: solve a base instance cold, perturb a
// seeded subset of its bounds and costs (tests/lp_fuzz.h
// fuzz_warm_perturbed — the planner-phase-2 / per-class-re-solve shape),
// then re-solve the perturbed model four ways: dual simplex warm-started
// from the base basis, cold primal, cold dual and cold PDHG. The cold
// methods must agree on status, and the warm dual result must match the
// cold primal to 1e-7 in status and objective (the warm path must never
// change what the solver reports, only how fast it gets there); both
// optima must pass the KKT certificate, and the PDHG certificate must stay
// a valid lower bound on the exact optimum to the same 1e-7.
void check_warm_against_cold(const LpModel& perturbed,
                             const LpSolution& seed_sol,
                             const std::string& tag) {
  const auto cold = solve_simplex(perturbed);
  const auto cold_dual = solve_simplex(perturbed, dual_options());

  auto dual_opts = dual_options();
  if (!seed_sol.basis.empty()) dual_opts.warm_start = &seed_sol.basis;
  const auto warm = solve_simplex(perturbed, dual_opts);

  ASSERT_EQ(cold_dual.status, cold.status) << tag;
  ASSERT_EQ(warm.status, cold.status) << tag;
  if (cold.status != SolveStatus::Optimal) return;
  EXPECT_TRUE(test::certify_optimal(perturbed, cold)) << tag;
  EXPECT_TRUE(test::certify_optimal(perturbed, warm)) << tag;
  const double scale = 1 + std::abs(cold.objective);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-7 * scale) << tag;
  EXPECT_LE(warm.dual_bound, cold.objective + 1e-7 * scale) << tag;

  PdhgOptions pdhg;
  pdhg.max_iterations = 60000;
  pdhg.tolerance = 1e-6;
  const auto pd_cold = solve_pdhg(perturbed, pdhg);
  EXPECT_LE(pd_cold.dual_bound, cold.objective + 1e-7 * scale) << tag;
}

void check_warm_pair(std::uint64_t base, std::uint64_t offset) {
  const auto fuzz = test::fuzz_lp(base + offset);
  const auto seed_sol = solve_simplex(fuzz.model);
  check_warm_against_cold(
      test::fuzz_warm_perturbed(fuzz, base + offset).model, seed_sol,
      case_tag("warm", base, offset, fuzz));
}

// 4 x WANPLACE_FUZZ_COUNT (default 60) = 240 perturbed-bound pairs.
TEST(FuzzWarm, PerturbedBoundPairsShard0) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 0; i < n; ++i) check_warm_pair(base, i);
}

TEST(FuzzWarm, PerturbedBoundPairsShard1) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = n; i < 2 * n; ++i) check_warm_pair(base, i);
}

TEST(FuzzWarm, PerturbedBoundPairsShard2) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 2 * n; i < 3 * n; ++i) check_warm_pair(base, i);
}

TEST(FuzzWarm, PerturbedBoundPairsShard3) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 3 * n; i < 4 * n; ++i) check_warm_pair(base, i);
}

// Coefficient-rewrite shard: the partner rewrites rows (tests/lp_fuzz.h
// fuzz_warm_rewritten — the shape of a latency flap's coverage rewrite)
// around the base optimum, so carried bases often turn singular and the
// warm import has to repair them. Same checks as the bound pairs, and the
// repair must actually fire.
TEST(FuzzWarm, RewrittenRowPairs) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  obs::Registry::global().enable(true);
  obs::Registry::global().reset();
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto fuzz = test::fuzz_lp(base + i);
    const auto seed_sol = solve_simplex(fuzz.model);
    const std::vector<double> point =
        seed_sol.status == SolveStatus::Optimal ? seed_sol.x
                                                : std::vector<double>{};
    check_warm_against_cold(
        test::fuzz_warm_rewritten(fuzz, point, base + i).model, seed_sol,
        case_tag("warm-rewrite", base, i, fuzz));
  }
  const auto snapshot = obs::Registry::global().snapshot();
  obs::Registry::global().enable(false);
  obs::Registry::global().reset();
  const auto repaired = snapshot.find("simplex.warm.repaired");
  ASSERT_NE(repaired, snapshot.end());
  EXPECT_GE(repaired->second.sum, 1.0);
}

// Stress shard: replay a seeded mix of classic and adversarial instances
// with refactor_period=4 / ft_fill_factor=1.05 on both methods. The
// long-pivot profiles routinely take 30+ pivots here, i.e. far past 2x the
// refactor period, so FT spike elimination, R-file replay, the fill guard
// and the fallback-to-refactorize path all fire constantly.
TEST(FuzzStress, TinyRefactorPeriodAcrossBases) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 0; i < n; ++i) {
    if (i % 2 == 0) {
      const auto fuzz = test::fuzz_lp(base + 4 * n + i);
      check_instance(fuzz, case_tag("stress/classic", base, 4 * n + i, fuzz),
                     &stressed);
    } else {
      const auto fuzz = test::fuzz_adversarial_lp(base + 4 * n + i);
      check_instance(fuzz,
                     case_tag("stress/adversarial", base, 4 * n + i, fuzz),
                     &stressed);
    }
  }
}

// Edge-shape shard: LPs built from the shapes the other generators avoid —
// rows with no entries (feasible and infeasible right-hand sides), LPs
// with no rows at all, free zero-cost columns and fixed columns
// (tests/lp_fuzz.h fuzz_edge_lp). Each instance runs through the primal,
// the cold dual and PDHG; every status must match the generator's
// guarantee and every simplex optimum must pass the certificate. With no
// rows PDHG solves in closed form, so its status must match and its
// optimum is certified too.
void check_edge(std::uint64_t base, std::uint64_t offset) {
  const auto fuzz = test::fuzz_edge_lp(base + offset);
  const std::string tag = case_tag("edge", base, offset, fuzz);
  check_instance(fuzz, tag);
  if (fuzz.model.row_count() > 0) return;
  const auto closed_form = solve_pdhg(fuzz.model);
  status_matches_kind(fuzz, closed_form.status, tag);
  if (closed_form.status == SolveStatus::Optimal) {
    EXPECT_TRUE(test::certify_optimal(fuzz.model, closed_form)) << tag;
  }
}

TEST(FuzzEdge, EdgeShapes) {
  const std::uint64_t base = test::fuzz_base_seed();
  const std::uint64_t n = test::fuzz_shard_count();
  for (std::uint64_t i = 0; i < 2 * n; ++i) check_edge(base, i);
}

// ---------------------------------------------------------------------------
// Real MC-PERF relaxations: the LP family the paper actually solves. These
// are larger and tree-structured — exactly the shape the sparse bases
// target.

void check_mcperf(const mcperf::Instance& instance,
                  const mcperf::ClassSpec& spec, const std::string& tag) {
  const auto built = mcperf::build_lp(instance, spec);

  const auto primal = solve_simplex(built.model);
  const auto dual = solve_simplex(built.model, dual_options());
  ASSERT_EQ(primal.status, dual.status) << tag;
  // Some class/instance pairs are legitimately infeasible (e.g. reactive
  // creation against cold-start demand); both methods agreeing on that is
  // still a differential check.
  if (primal.status != SolveStatus::Optimal) return;

  EXPECT_TRUE(test::certify_optimal(built.model, primal)) << tag;
  EXPECT_TRUE(test::certify_optimal(built.model, dual)) << tag;

  const double scale = 1 + std::abs(primal.objective);
  PdhgOptions pdhg;
  pdhg.max_iterations = 150000;
  pdhg.tolerance = 1e-6;
  const auto approx = solve_pdhg(built.model, pdhg);
  EXPECT_LE(approx.dual_bound, primal.objective + 1e-6 * scale) << tag;
  if (approx.status == SolveStatus::Optimal) {
    EXPECT_NEAR(approx.objective, primal.objective, 5e-3 * scale) << tag;
  }
}

TEST(McPerfDifferential, LineInstanceAcrossClasses) {
  const auto instance = test::line_instance(5, 3, 4, 0.9);
  check_mcperf(instance, mcperf::classes::general(), "line/general");
  check_mcperf(instance, mcperf::classes::caching(), "line/caching");
  check_mcperf(instance, mcperf::classes::replica_constrained(),
               "line/replica_constrained");
}

TEST(McPerfDifferential, RandomInstanceAcrossClasses) {
  const auto instance = test::random_instance(42);
  check_mcperf(instance, mcperf::classes::general(), "waxman/general");
  check_mcperf(instance, mcperf::classes::cooperative_caching(),
               "waxman/cooperative_caching");
  check_mcperf(instance, mcperf::classes::storage_constrained(),
               "waxman/storage_constrained");
}

// The engine's bound is the certified simplex optimum of the LP it built,
// whichever basis the simplex starts from: cold, or warm-started by the
// dual method from the optimal basis of the same-shaped LP of a
// demand-scaled twin instance.
TEST(McPerfDifferential, EngineBoundInvariantToBasis) {
  const auto instance = test::random_instance(7);
  auto twin = instance;
  for (std::size_t n = 0; n < twin.node_count(); ++n)
    for (std::size_t i = 0; i < twin.interval_count(); ++i)
      for (std::size_t k = 0; k < twin.object_count(); ++k)
        twin.demand.read(n, i, k) *= 1 + 0.1 * static_cast<double>(n % 3);

  bounds::BoundOptions options;
  options.solver = bounds::BoundOptions::Solver::Simplex;
  const auto twin_detail = bounds::compute_bound_detail(
      twin, mcperf::classes::general(), options);
  const auto cold = bounds::compute_bound_detail(
      instance, mcperf::classes::general(), options);
  options.warm.basis = &twin_detail.solution.basis;
  const auto warm = bounds::compute_bound_detail(
      instance, mcperf::classes::general(), options);
  ASSERT_TRUE(twin_detail.solution.basis.compatible(
      cold.built.model.variable_count(), cold.built.model.row_count()));

  for (const auto* detail : {&cold, &warm}) {
    const char* tag = detail == &cold ? "cold" : "warm";
    ASSERT_EQ(detail->bound.status, SolveStatus::Optimal) << tag;
    EXPECT_TRUE(test::certify_optimal(detail->built.model, detail->solution))
        << tag;
    EXPECT_NEAR(detail->bound.lower_bound, detail->solution.objective,
                1e-7 * (1 + std::abs(detail->solution.objective)))
        << tag;
  }
  EXPECT_NEAR(warm.bound.lower_bound, cold.bound.lower_bound,
              1e-7 * (1 + std::abs(cold.bound.lower_bound)));
}

}  // namespace
}  // namespace wanplace::lp
