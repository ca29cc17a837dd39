// Restarted, averaged primal-dual hybrid gradient (PDHG) LP solver in the
// style of PDLP (Applegate et al.), the approach production systems use for
// LPs too large for simplex factorizations.
//
// Why it fits this project: MC-PERF LP relaxations have O(|N||I||K|) rows,
// far beyond a dense simplex, but their matrices are very sparse and PDHG
// needs only matrix-vector products. Crucially, every dual iterate yields a
// *certified* lower bound through weak duality (see certified_dual_bound),
// so even a truncated solve can never overstate a heuristic-class bound —
// the property the paper's methodology depends on.
//
// Every solve starts cold, from the nearest finite bound of each variable
// and zero duals. Seeding from a related model's iterates was measured a
// wash (bench_results/scaling.csv), so the simplex basis is the only warm
// start in the tree.
#pragma once

#include "lp/model.h"

namespace wanplace::lp {

struct PdhgOptions {
  std::size_t max_iterations = 200'000;
  /// Relative duality-gap + feasibility target.
  double tolerance = 1e-4;
  /// Evaluate progress / certificates every this many iterations.
  std::size_t check_period = 100;
  /// Declare infeasibility when the certified bound exceeds this value
  /// (callers pass a known upper bound on any feasible objective;
  /// +infinity disables the check).
  double infeasibility_threshold = kInfinity;
  /// Threads for the per-iteration matvec pair on large models: 0 = hardware
  /// concurrency, 1 = fully serial. Any value produces bit-identical
  /// iterates — blocks are fixed per row, so this is a pure wall-clock knob.
  std::size_t parallelism = 0;
  /// Only parallelize when the matrix has at least this many nonzeros;
  /// below it the pool dispatch overhead outweighs the product.
  std::size_t parallel_nnz_threshold = 65'536;
};

/// Solve min c^T x. On return:
///  - dual_bound is the best weak-duality certificate found (always valid);
///  - x is the best (near-feasible) primal point, clamped to bounds;
///  - status Optimal when the relative gap and primal residual met the
///    tolerance, Infeasible when the certificate crossed the threshold,
///    IterationLimit otherwise (dual_bound still valid).
LpSolution solve_pdhg(const LpModel& model, const PdhgOptions& options = {});

}  // namespace wanplace::lp
