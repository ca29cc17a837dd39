// Randomized differential LP harness.
//
// Three independently implemented solve paths — simplex over the
// Forrest-Tomlin basis (the default), simplex over the dense explicit
// inverse (the seed basis algebra), and PDHG — are run over a seeded stream
// of random LPs (tests/lp_fuzz.h) and over real MC-PERF relaxations, and
// must agree on status and objective to 1e-7. The two simplex paths share
// no basis algebra, so any FT elimination / R-file / sparse-kernel defect
// shows up as a status or objective split here long before it corrupts a
// paper experiment.
//
// The stream is three-tiered: classic shards (randomized shape/bounds/row
// mix), adversarial shards (pricing ties, near-singular column pairs, long
// pivot sequences — see fuzz_adversarial_lp), and a stress shard that
// replays instances with a tiny refactor period and fill factor so pivot
// sequences run well past 2x the refactor period on every path.
//
// Re-run a failing case locally with WANPLACE_FUZZ_SEED=<base> (the base
// seed is printed in every failure message; per-case seeds are base+offset).
// WANPLACE_FUZZ_COUNT scales every shard (nightly runs use 150 -> 1350+
// instances; the default 60 keeps the default suite over 500).

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "bounds/engine.h"
#include "instance_helpers.h"
#include "lp/model.h"
#include "lp/pdhg.h"
#include "lp/simplex.h"
#include "lp_fuzz.h"
#include "mcperf/builder.h"
#include "mcperf/heuristic_class.h"
#include "obs/metrics.h"

namespace wanplace::lp {
namespace {

SimplexOptions ft_options() {
  SimplexOptions options;
  options.basis = SimplexOptions::Basis::ForrestTomlin;
  return options;
}

SimplexOptions dense_options() {
  SimplexOptions options;
  options.basis = SimplexOptions::Basis::DenseInverse;
  return options;
}

/// Stress variant: force the update machinery to be the long pole. Every
/// pivot sequence longer than ~8 iterations runs past 2x the refactor
/// period, and the FT path trips its fill guard almost immediately.
SimplexOptions stressed(SimplexOptions options) {
  options.refactor_period = 4;
  options.ft_fill_factor = 1.05;
  return options;
}

/// Run one generated instance through all simplex paths (plus PDHG on
/// optimal instances) and cross-check. `tweak` lets the stress shard
/// tighten the basis-management knobs on every path at once.
void check_instance(const test::FuzzLp& fuzz, const std::string& tag,
                    SimplexOptions (*tweak)(SimplexOptions) = nullptr) {
  auto ft_opts = ft_options();
  auto dense_opts = dense_options();
  if (tweak) {
    ft_opts = tweak(ft_opts);
    dense_opts = tweak(dense_opts);
  }

  const auto ft = solve_simplex(fuzz.model, ft_opts);
  const auto dense = solve_simplex(fuzz.model, dense_opts);

  // Both basis representations must agree on status, always.
  ASSERT_EQ(ft.status, dense.status) << tag;

  switch (fuzz.kind) {
    case test::FuzzKind::Infeasible:
      ASSERT_EQ(ft.status, SolveStatus::Infeasible) << tag;
      return;  // PDHG's infeasibility detection is heuristic; skip it.
    case test::FuzzKind::Unbounded:
      ASSERT_EQ(ft.status, SolveStatus::Unbounded) << tag;
      return;
    case test::FuzzKind::Feasible:
      // Feasible by construction: never Infeasible. Free variables with
      // constrained rows can still make the instance legitimately
      // unbounded — all paths must agree on that (checked above).
      ASSERT_NE(ft.status, SolveStatus::Infeasible) << tag;
      break;
  }
  if (ft.status != SolveStatus::Optimal) return;

  const double scale = 1 + std::abs(dense.objective);
  EXPECT_NEAR(ft.objective, dense.objective, 1e-7 * scale) << tag;
  // Certificates may differ in tightness between the paths (clamping a
  // free-variable dual can push any of them to -inf), but each must be a
  // valid lower bound on the common optimum.
  EXPECT_LE(ft.dual_bound, dense.objective + 1e-7 * scale) << tag;
  EXPECT_LE(dense.dual_bound, dense.objective + 1e-7 * scale) << tag;
  EXPECT_LE(fuzz.model.max_violation(ft.x), 1e-6) << tag;
  EXPECT_LE(fuzz.model.max_violation(dense.x), 1e-6) << tag;

  // PDHG: its certificate must never overstate the simplex optimum; when
  // it reports convergence its objective must land within first-order
  // tolerance of the exact optimum.
  PdhgOptions pdhg;
  pdhg.max_iterations = 60000;
  pdhg.tolerance = 1e-6;
  const auto approx = solve_pdhg(fuzz.model, pdhg);
  EXPECT_LE(approx.dual_bound, dense.objective + 1e-6 * scale) << tag;
  // PDHG can stall at a suboptimal stationary point when the model has
  // doubly-unbounded variables (its certificate degrades to -inf there, so
  // the bound stays valid — MC-PERF relaxations never produce free
  // variables). On box-bounded instances a claimed convergence must land
  // on the exact optimum to first-order accuracy.
  if (!fuzz.has_free && approx.status == SolveStatus::Optimal &&
      fuzz.model.max_violation(approx.x) <= 1e-5) {
    EXPECT_NEAR(approx.objective, dense.objective, 1e-2 * scale) << tag;
  }
}

std::string case_tag(const char* family, std::uint64_t base,
                     std::uint64_t offset, const test::FuzzLp& fuzz) {
  return std::string(family) + " base " + std::to_string(base) + " offset " +
         std::to_string(offset) + " (" + std::to_string(fuzz.vars) + "v x " +
         std::to_string(fuzz.rows) + "r)";
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
// then re-solve the perturbed model three ways: dual simplex warm-started
// from the base basis, cold primal, and cold PDHG. The warm dual result
// must match the cold primal to 1e-7 in status and objective (the warm
// path must never change what the solver reports, only how fast it gets
// there), and the PDHG certificate must stay a valid lower bound on the
// exact optimum to the same 1e-7.
void check_warm_against_cold(const LpModel& perturbed,
                             const LpSolution& seed_sol,
                             const std::string& tag) {
  const auto cold = solve_simplex(perturbed, ft_options());

  auto dual_opts = ft_options();
  dual_opts.method = SimplexOptions::Method::Dual;
  if (!seed_sol.basis.empty()) dual_opts.warm_start = &seed_sol.basis;
  const auto warm = solve_simplex(perturbed, dual_opts);

  ASSERT_EQ(warm.status, cold.status) << tag;
  if (cold.status != SolveStatus::Optimal) return;
  const double scale = 1 + std::abs(cold.objective);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-7 * scale) << tag;
  EXPECT_LE(warm.dual_bound, cold.objective + 1e-7 * scale) << tag;
  EXPECT_LE(perturbed.max_violation(warm.x), 1e-6) << tag;

  PdhgOptions pdhg;
  pdhg.max_iterations = 60000;
  pdhg.tolerance = 1e-6;
  const auto pd_cold = solve_pdhg(perturbed, pdhg);
  EXPECT_LE(pd_cold.dual_bound, cold.objective + 1e-7 * scale) << tag;
}

void check_warm_pair(std::uint64_t base, std::uint64_t offset) {
  const auto fuzz = test::fuzz_lp(base + offset);
  const auto seed_sol = solve_simplex(fuzz.model, ft_options());
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
    const auto seed_sol = solve_simplex(fuzz.model, ft_options());
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
// with refactor_period=4 / ft_fill_factor=1.05 on every path. The
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

// ---------------------------------------------------------------------------
// Real MC-PERF relaxations: the LP family the paper actually solves. These
// are larger and tree-structured — exactly the shape the sparse bases
// target.

void check_mcperf(const mcperf::Instance& instance,
                  const mcperf::ClassSpec& spec, const std::string& tag) {
  const auto built = mcperf::build_lp(instance, spec);

  const auto ft = solve_simplex(built.model, ft_options());
  const auto dense = solve_simplex(built.model, dense_options());
  ASSERT_EQ(ft.status, dense.status) << tag;
  // Some class/instance pairs are legitimately infeasible (e.g. reactive
  // creation against cold-start demand); all paths agreeing on that via
  // phase 1 is still a differential check.
  if (ft.status != SolveStatus::Optimal) return;

  const double scale = 1 + std::abs(dense.objective);
  EXPECT_NEAR(ft.objective, dense.objective, 1e-7 * scale) << tag;
  EXPECT_LE(built.model.max_violation(ft.x), 1e-6) << tag;

  PdhgOptions pdhg;
  pdhg.max_iterations = 150000;
  pdhg.tolerance = 1e-6;
  const auto approx = solve_pdhg(built.model, pdhg);
  EXPECT_LE(approx.dual_bound, dense.objective + 1e-6 * scale) << tag;
  if (approx.status == SolveStatus::Optimal) {
    EXPECT_NEAR(approx.objective, dense.objective, 5e-3 * scale) << tag;
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

// The engine's Auto solver must produce the same certified bound whichever
// basis the simplex uses underneath.
TEST(McPerfDifferential, EngineBoundInvariantToBasis) {
  const auto instance = test::random_instance(7);
  const SimplexOptions::Basis bases[] = {SimplexOptions::Basis::ForrestTomlin,
                                         SimplexOptions::Basis::DenseInverse};
  bounds::BoundOptions reference_opts;
  reference_opts.solver = bounds::BoundOptions::Solver::Simplex;
  reference_opts.simplex.basis = SimplexOptions::Basis::DenseInverse;
  const auto reference = bounds::compute_bound(
      instance, mcperf::classes::general(), reference_opts);
  for (const auto basis : bases) {
    bounds::BoundOptions options;
    options.solver = bounds::BoundOptions::Solver::Simplex;
    options.simplex.basis = basis;
    const auto bound =
        bounds::compute_bound(instance, mcperf::classes::general(), options);
    ASSERT_EQ(bound.status, reference.status) << static_cast<int>(basis);
    EXPECT_NEAR(bound.lower_bound, reference.lower_bound,
                1e-7 * (1 + std::abs(reference.lower_bound)))
        << static_cast<int>(basis);
  }
}

}  // namespace
}  // namespace wanplace::lp
