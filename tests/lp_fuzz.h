// Seeded random LP generator for the differential solver harness.
//
// Each seed deterministically produces one LP with randomized shape
// (variable/row counts), sparsity, bound structure (finite boxes, free
// variables, fixed variables) and row mix (Le/Ge/Eq). Most instances are
// built around a known interior point and are feasible by construction;
// a seeded fraction is mutated into provably infeasible or provably
// unbounded instances so status agreement is exercised on all three
// outcomes. Degenerate instances (many rows tight at the construction
// point) are generated on purpose: they are where basis-management bugs
// (cycling, stale update files, drift) actually live.
//
// The base seed is WANPLACE_FUZZ_SEED when set (export it to replay a CI
// failure locally), else a fixed default so the suite is reproducible.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "lp/model.h"
#include "util/rng.h"

namespace wanplace::test {

/// What the generator guarantees about an instance, by construction.
enum class FuzzKind {
  Feasible,    // has an interior (or boundary) point; optimum is finite
  Infeasible,  // contains a pair of directly conflicting rows
  Unbounded,   // feasible, with a cost-improving ray
};

/// Which generator shaped the instance (adversarial profiles target
/// specific solver machinery; see fuzz_adversarial_lp).
enum class FuzzProfile {
  Classic,       // fuzz_lp: randomized shape/bounds/row mix
  PricingTies,   // duplicated columns + integer costs: massive Devex ties
  NearSingular,  // near-parallel column pairs: FT stability-guard food
  LongPivot,     // bigger dense-ish models: long pivot sequences
  EdgeShapes,    // fuzz_edge_lp: empty rows, no rows, free/fixed columns
};

struct FuzzLp {
  lp::LpModel model;
  FuzzKind kind = FuzzKind::Feasible;
  FuzzProfile profile = FuzzProfile::Classic;
  std::size_t vars = 0;
  std::size_t rows = 0;
  bool degenerate = false;  // rows made tight at the construction point
  bool has_free = false;    // contains doubly-unbounded variables
};

/// Base seed for the fuzz suites: WANPLACE_FUZZ_SEED env override, else a
/// fixed default. Each test derives per-case seeds as base + offset.
inline std::uint64_t fuzz_base_seed() {
  if (const char* env = std::getenv("WANPLACE_FUZZ_SEED")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') return static_cast<std::uint64_t>(v);
  }
  return 0xF00DULL;
}

/// Deterministically generate one LP from `seed`.
inline FuzzLp fuzz_lp(std::uint64_t seed) {
  Rng rng(seed);
  FuzzLp out;
  out.vars = 2 + rng.uniform_index(27);                    // 2..28
  out.rows = 1 + rng.uniform_index(22);                    // 1..22
  const double density = rng.uniform(0.15, 0.9);
  out.degenerate = rng.bernoulli(0.3);
  const bool with_free = rng.bernoulli(0.25);
  const bool with_fixed = rng.bernoulli(0.2);
  const bool with_equalities = rng.bernoulli(0.5);

  // Construction point x0, kept inside (or on) the box.
  std::vector<double> x0(out.vars);
  for (std::size_t j = 0; j < out.vars; ++j) {
    if (with_free && rng.bernoulli(0.15)) {
      // Free variable: cost 0 keeps the LP bounded regardless of rows.
      out.model.add_variable(-lp::kInfinity, lp::kInfinity, 0);
      x0[j] = rng.uniform(-1, 1);
      out.has_free = true;
    } else {
      const double lo = rng.bernoulli(0.3) ? rng.uniform(-2, 0) : 0.0;
      const double up = lo + rng.uniform(0.5, 2.5);
      out.model.add_variable(lo, up, rng.uniform(-1, 1));
      x0[j] = rng.uniform(lo, up);
      if (with_fixed && rng.bernoulli(0.1)) {
        out.model.fix_variable(j, x0[j]);
      }
    }
  }

  for (std::size_t r = 0; r < out.rows; ++r) {
    std::vector<std::size_t> cols;
    std::vector<double> coeffs;
    double activity = 0;
    for (std::size_t j = 0; j < out.vars; ++j) {
      if (!rng.bernoulli(density)) continue;
      const double a = rng.uniform(-2, 2);
      if (a == 0) continue;
      cols.push_back(j);
      coeffs.push_back(a);
      activity += a * x0[j];
    }
    if (cols.empty()) continue;
    // Degenerate rows sit exactly on x0 (slack 0 at the construction
    // point); otherwise leave randomized slack.
    const double slack = out.degenerate && rng.bernoulli(0.6)
                             ? 0.0
                             : rng.uniform(0, 1);
    const int kind = with_equalities ? static_cast<int>(rng.uniform_index(3))
                                     : static_cast<int>(rng.uniform_index(2));
    if (kind == 0)
      out.model.add_row(lp::RowType::Ge, activity - slack, cols, coeffs);
    else if (kind == 1)
      out.model.add_row(lp::RowType::Le, activity + slack, cols, coeffs);
    else
      out.model.add_row(lp::RowType::Eq, activity, cols, coeffs);
  }

  // Seeded status mutations.
  const double roll = rng.uniform();
  if (roll < 0.12) {
    // Directly conflicting pair on a randomly chosen variable subset.
    out.kind = FuzzKind::Infeasible;
    std::vector<std::size_t> cols;
    std::vector<double> coeffs;
    const std::size_t count = 1 + rng.uniform_index(out.vars);
    for (std::size_t j = 0; j < count; ++j) {
      cols.push_back(j);
      coeffs.push_back(rng.uniform(0.5, 2));
    }
    out.model.add_row(lp::RowType::Ge, 50, cols, coeffs);
    out.model.add_row(lp::RowType::Le, -50, cols, coeffs);
  } else if (roll < 0.24) {
    // A cost-improving ray: a fresh unbounded-above variable with negative
    // cost whose coefficients only relax the rows it appears in (negative
    // in Le rows, positive in Ge rows, absent from Eq rows).
    out.kind = FuzzKind::Unbounded;
    const auto ray = out.model.add_variable(0, lp::kInfinity, -1);
    std::vector<std::size_t> cols{ray};
    std::vector<double> coeffs{rng.uniform(0.5, 2)};
    out.model.add_row(lp::RowType::Ge, 0, cols, coeffs);
  }
  return out;
}

/// Perturb an instance into a warm-start re-optimization partner: the same
/// model (identical sparsity pattern and shape) with a seeded subset of
/// finite bounds nudged and objective coefficients shifted — the
/// solver-facing shape of planner phase-2 and per-class re-solves, where a
/// previous basis is nearly optimal but usually not primal feasible. Free
/// variables keep their zero cost (the generator's boundedness guarantee);
/// box tightening can push a Feasible instance into infeasibility, so
/// differential harnesses must compare status first and objectives only on
/// agreement.
inline FuzzLp fuzz_warm_perturbed(const FuzzLp& in, std::uint64_t seed) {
  Rng rng(seed ^ 0x5EEDULL);
  FuzzLp out = in;
  for (std::size_t j = 0; j < out.model.variable_count(); ++j) {
    double lo = out.model.lower(j);
    double up = out.model.upper(j);
    if (!(lo > -lp::kInfinity && up < lp::kInfinity)) continue;
    if (rng.bernoulli(0.35)) {
      lo += rng.uniform(-0.2, 0.2);
      up += rng.uniform(-0.2, 0.2);
      if (lo > up) {
        const double mid = 0.5 * (lo + up);
        lo = up = mid;
      }
      out.model.set_bounds(j, lo, up);
    }
    if (rng.bernoulli(0.25))
      out.model.set_objective(j,
                              out.model.objective(j) + rng.uniform(-0.3, 0.3));
  }
  return out;
}

/// Rewrite a seeded subset of rows in place (LpModel::set_row), keeping
/// the shape: a rewritten row either copies a scaled multiple of another
/// row's coefficients or drops some of its own, the way a latency flap
/// rewrites the daemon's coverage rows. Its right-hand side puts `point`
/// (the base instance's optimum, when it has one) on or inside the row,
/// so the partner usually stays feasible while a carried optimal basis
/// often turns singular: proportional rows tight at the old vertex, or a
/// basic column whose entries vanished.
inline FuzzLp fuzz_warm_rewritten(const FuzzLp& in,
                                  const std::vector<double>& point,
                                  std::uint64_t seed) {
  Rng rng(seed ^ 0xC0FFEEULL);
  FuzzLp out = in;
  const std::size_t rows = out.model.row_count();
  for (std::size_t r = 0; r < rows; ++r) {
    if (!rng.bernoulli(0.35)) continue;
    std::vector<std::size_t> cols;
    std::vector<double> coeffs;
    const std::size_t other = rng.uniform_index(rows);
    if (other != r && rng.bernoulli(0.5)) {
      const double scale = rng.uniform(0.5, 2);
      cols = in.model.row(other).cols;
      for (const double a : in.model.row(other).coeffs)
        coeffs.push_back(scale * a);
    } else {
      const lp::RowSpec& row = in.model.row(r);
      for (std::size_t k = 0; k < row.cols.size(); ++k) {
        if (!rng.bernoulli(0.6)) continue;
        cols.push_back(row.cols[k]);
        coeffs.push_back(row.coeffs[k]);
      }
    }
    double activity = 0;
    for (std::size_t k = 0; k < cols.size(); ++k)
      activity += coeffs[k] * (cols[k] < point.size() ? point[cols[k]] : 0.0);
    const double slack = rng.bernoulli(0.6) ? 0.0 : rng.uniform(0, 0.5);
    switch (in.model.row(r).type) {
      case lp::RowType::Ge:
        out.model.set_row(r, activity - slack, cols, coeffs);
        break;
      case lp::RowType::Le:
        out.model.set_row(r, activity + slack, cols, coeffs);
        break;
      case lp::RowType::Eq:
        out.model.set_row(r, activity, cols, coeffs);
        break;
    }
  }
  return out;
}

/// Per-shard instance count for the differential fuzz suites:
/// WANPLACE_FUZZ_COUNT env override (nightly runs crank it up), else
/// `fallback`. Every shard scales by the same knob so the suite keeps
/// its classic/adversarial/stress proportions.
inline std::size_t fuzz_shard_count(std::size_t fallback = 60) {
  if (const char* env = std::getenv("WANPLACE_FUZZ_COUNT")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

namespace detail {

// Duplicated columns with identical (integer) costs: the Devex reference
// weights start equal and the reduced costs tie in whole groups, so the
// pricing rule has to break massive ties every iteration. Rows are made
// tight at the construction point, so ratio-test ties pile on top.
inline FuzzLp fuzz_pricing_ties(Rng& rng) {
  FuzzLp out;
  out.profile = FuzzProfile::PricingTies;
  out.degenerate = true;
  const std::size_t patterns = 3 + rng.uniform_index(4);  // 3..6
  const std::size_t copies = 3 + rng.uniform_index(4);    // 3..6
  out.vars = patterns * copies;
  out.rows = 4 + rng.uniform_index(9);  // 4..12

  std::vector<std::vector<double>> pattern(patterns,
                                           std::vector<double>(out.rows, 0.0));
  std::vector<double> cost(patterns);
  for (std::size_t p = 0; p < patterns; ++p) {
    bool any = false;
    for (std::size_t r = 0; r < out.rows; ++r) {
      if (!rng.bernoulli(0.5)) continue;
      pattern[p][r] = 1.0 + static_cast<double>(rng.uniform_index(3));
      any = true;
    }
    if (!any) pattern[p][rng.uniform_index(out.rows)] = 1.0;
    cost[p] = 1.0 + static_cast<double>(rng.uniform_index(3));
  }

  std::vector<double> x0(out.vars);
  for (std::size_t p = 0; p < patterns; ++p) {
    for (std::size_t c = 0; c < copies; ++c) {
      const std::size_t j = out.model.add_variable(0, 2, cost[p]);
      x0[j] = rng.uniform(0.2, 1.8);
    }
  }
  for (std::size_t r = 0; r < out.rows; ++r) {
    std::vector<std::size_t> cols;
    std::vector<double> coeffs;
    double activity = 0;
    for (std::size_t p = 0; p < patterns; ++p) {
      if (pattern[p][r] == 0) continue;
      for (std::size_t c = 0; c < copies; ++c) {
        const std::size_t j = p * copies + c;
        cols.push_back(j);
        coeffs.push_back(pattern[p][r]);
        activity += pattern[p][r] * x0[j];
      }
    }
    if (cols.empty()) continue;
    // Mostly tight Ge rows: the optimum pushes costs down onto the tied
    // column groups and the construction point is heavily degenerate.
    const double slack = rng.bernoulli(0.7) ? 0.0 : rng.uniform(0, 0.5);
    out.model.add_row(lp::RowType::Ge, activity - slack, cols, coeffs);
  }
  return out;
}

// Near-parallel column pairs: A_{2p+1} = A_{2p} * (1 + eps) with
// eps in [1e-7, 1e-5]. Bases mixing both halves of a pair are
// near-singular, which is exactly what the Forrest-Tomlin relative
// stability guard (and the factorization pivot threshold) exist for.
// eps stays well above machine epsilon so a careful solver still gets
// the objective right to 1e-7.
inline FuzzLp fuzz_near_singular(Rng& rng) {
  FuzzLp out;
  out.profile = FuzzProfile::NearSingular;
  const std::size_t pairs = 2 + rng.uniform_index(6);  // 2..7
  out.vars = 2 * pairs;
  out.rows = 3 + rng.uniform_index(out.vars);  // 3..vars+2
  const double eps_scale[] = {1e-7, 1e-6, 1e-5};
  std::vector<std::vector<double>> base(pairs,
                                        std::vector<double>(out.rows, 0.0));
  std::vector<double> eps(pairs), cost(pairs);
  for (std::size_t p = 0; p < pairs; ++p) {
    bool any = false;
    for (std::size_t r = 0; r < out.rows; ++r) {
      if (!rng.bernoulli(0.6)) continue;
      const double a = rng.uniform(-2, 2);
      if (a == 0) continue;
      base[p][r] = a;
      any = true;
    }
    if (!any) base[p][rng.uniform_index(out.rows)] = 1.0;
    eps[p] = eps_scale[rng.uniform_index(3)] * rng.uniform(0.5, 1.5);
    cost[p] = rng.uniform(-1, 1);
  }

  std::vector<double> x0(out.vars);
  for (std::size_t p = 0; p < pairs; ++p) {
    for (std::size_t half = 0; half < 2; ++half) {
      // The clone's cost is perturbed by the same relative eps, so the two
      // halves are near-ties for the pricing rule as well.
      const double c = half == 0 ? cost[p] : cost[p] * (1 + eps[p]);
      const std::size_t j = out.model.add_variable(0, 1.5, c);
      x0[j] = rng.uniform(0.1, 1.4);
    }
  }
  for (std::size_t r = 0; r < out.rows; ++r) {
    std::vector<std::size_t> cols;
    std::vector<double> coeffs;
    double activity = 0;
    for (std::size_t p = 0; p < pairs; ++p) {
      if (base[p][r] == 0) continue;
      for (std::size_t half = 0; half < 2; ++half) {
        const std::size_t j = 2 * p + half;
        const double a = half == 0 ? base[p][r] : base[p][r] * (1 + eps[p]);
        cols.push_back(j);
        coeffs.push_back(a);
        activity += a * x0[j];
      }
    }
    if (cols.empty()) continue;
    const double slack = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0, 0.8);
    if (rng.bernoulli(0.5))
      out.model.add_row(lp::RowType::Ge, activity - slack, cols, coeffs);
    else
      out.model.add_row(lp::RowType::Le, activity + slack, cols, coeffs);
  }
  return out;
}

// Bigger, denser boxes: 30..60 variables over 25..40 rows with distinct
// costs. These routinely take far more pivots than the small classic
// instances; the differential harness additionally replays them with a
// tiny refactor period so pivot sequences run well past 2x the period
// and the update machinery (the FT R-file) is the long pole.
inline FuzzLp fuzz_long_pivot(Rng& rng) {
  FuzzLp out;
  out.profile = FuzzProfile::LongPivot;
  out.vars = 30 + rng.uniform_index(31);  // 30..60
  out.rows = 25 + rng.uniform_index(16);  // 25..40
  out.degenerate = rng.bernoulli(0.4);
  const double density = rng.uniform(0.25, 0.5);

  std::vector<double> x0(out.vars);
  for (std::size_t j = 0; j < out.vars; ++j) {
    const double lo = rng.bernoulli(0.3) ? rng.uniform(-1, 0) : 0.0;
    const double up = lo + rng.uniform(0.5, 2.0);
    out.model.add_variable(lo, up, rng.uniform(-1, 1));
    x0[j] = rng.uniform(lo, up);
  }
  for (std::size_t r = 0; r < out.rows; ++r) {
    std::vector<std::size_t> cols;
    std::vector<double> coeffs;
    double activity = 0;
    for (std::size_t j = 0; j < out.vars; ++j) {
      if (!rng.bernoulli(density)) continue;
      const double a = rng.uniform(-2, 2);
      if (a == 0) continue;
      cols.push_back(j);
      coeffs.push_back(a);
      activity += a * x0[j];
    }
    if (cols.empty()) continue;
    const double slack = out.degenerate && rng.bernoulli(0.5)
                             ? 0.0
                             : rng.uniform(0, 0.6);
    const int kind = static_cast<int>(rng.uniform_index(3));
    if (kind == 0)
      out.model.add_row(lp::RowType::Ge, activity - slack, cols, coeffs);
    else if (kind == 1)
      out.model.add_row(lp::RowType::Le, activity + slack, cols, coeffs);
    else
      out.model.add_row(lp::RowType::Eq, activity, cols, coeffs);
  }
  return out;
}

}  // namespace detail

/// Deterministically generate one adversarial LP from `seed`. Rolls one of
/// the three targeted profiles (pricing ties / near-singular pairs / long
/// pivot sequences), all feasible and bounded by construction — the
/// differential harness compares exact objectives across every solver
/// configuration, which only makes sense on Optimal instances.
inline FuzzLp fuzz_adversarial_lp(std::uint64_t seed) {
  Rng rng(seed ^ 0xADBEEFULL);
  switch (rng.uniform_index(3)) {
    case 0:
      return detail::fuzz_pricing_ties(rng);
    case 1:
      return detail::fuzz_near_singular(rng);
    default:
      return detail::fuzz_long_pivot(rng);
  }
}

/// Deterministically generate one edge-shape LP from `seed`: the shapes
/// the other generators avoid. A handful of columns (free zero-cost, fixed
/// or boxed) under zero to three ordinary rows built around a construction
/// point, plus rows with no entries whose right-hand side 0 satisfies;
/// about a third of the instances have no rows at all. A seeded fraction
/// is made infeasible by an empty row whose right-hand side 0 violates, or
/// unbounded by a costed column, in no row, whose cost points toward an
/// infinite bound. Draws from its own seed stream, so the classic,
/// adversarial and warm streams are untouched.
inline FuzzLp fuzz_edge_lp(std::uint64_t seed) {
  Rng rng(seed ^ 0xED6E5ULL);
  FuzzLp out;
  out.profile = FuzzProfile::EdgeShapes;
  const std::size_t vars = 1 + rng.uniform_index(6);  // 1..6
  std::vector<double> x0(vars);
  for (std::size_t j = 0; j < vars; ++j) {
    const double roll = rng.uniform();
    if (roll < 0.25) {
      out.model.add_variable(-lp::kInfinity, lp::kInfinity, 0);
      x0[j] = rng.uniform(-1, 1);
      out.has_free = true;
    } else if (roll < 0.45) {
      x0[j] = rng.uniform(-1, 1);
      out.model.add_variable(x0[j], x0[j], rng.uniform(-1, 1));
    } else {
      const double lo = rng.uniform(-1, 0.5);
      const double up = lo + rng.uniform(0.5, 2);
      const double cost = rng.bernoulli(0.2) ? 0.0 : rng.uniform(-1, 1);
      out.model.add_variable(lo, up, cost);
      x0[j] = rng.uniform(lo, up);
    }
  }

  // An empty row reads 0 >= rhs, 0 <= rhs or 0 == rhs.
  const auto add_empty_row = [&](bool feasible) {
    const double gap = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.5, 2);
    switch (rng.uniform_index(3)) {
      case 0:
        out.model.add_row(lp::RowType::Ge, feasible ? -gap : gap + 0.5, {},
                          {});
        break;
      case 1:
        out.model.add_row(lp::RowType::Le, feasible ? gap : -gap - 0.5, {},
                          {});
        break;
      default:
        out.model.add_row(lp::RowType::Eq, feasible ? 0.0 : gap + 0.5, {},
                          {});
        break;
    }
  };
  const bool rowless = rng.bernoulli(0.35);
  const std::size_t ordinary = rowless ? 0 : rng.uniform_index(4);  // 0..3
  std::size_t empty = rowless ? 0 : 1 + rng.uniform_index(3);       // 1..3
  for (std::size_t left = ordinary + empty; left > 0; --left) {
    if (rng.uniform_index(left) < empty) {  // empty rows interleave
      --empty;
      add_empty_row(/*feasible=*/true);
      continue;
    }
    std::vector<std::size_t> cols;
    std::vector<double> coeffs;
    for (std::size_t j = 0; j < vars; ++j) {
      if (!rng.bernoulli(0.7)) continue;
      cols.push_back(j);
      coeffs.push_back(rng.uniform(0.5, 2) * (rng.bernoulli(0.5) ? 1 : -1));
    }
    if (cols.empty()) {
      cols.push_back(rng.uniform_index(vars));
      coeffs.push_back(1);
    }
    double activity = 0;
    for (std::size_t k = 0; k < cols.size(); ++k)
      activity += coeffs[k] * x0[cols[k]];
    const double slack = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0, 1);
    switch (rng.uniform_index(3)) {
      case 0:
        out.model.add_row(lp::RowType::Ge, activity - slack, cols, coeffs);
        break;
      case 1:
        out.model.add_row(lp::RowType::Le, activity + slack, cols, coeffs);
        break;
      default:
        out.model.add_row(lp::RowType::Eq, activity, cols, coeffs);
        break;
    }
  }

  const double roll = rng.uniform();
  if (roll < 0.15) {
    out.kind = FuzzKind::Infeasible;
    add_empty_row(/*feasible=*/false);
  } else if (roll < 0.3) {
    out.kind = FuzzKind::Unbounded;
    const double pull = rng.uniform(0.5, 2);
    switch (rng.uniform_index(3)) {
      case 0:
        out.model.add_variable(0, lp::kInfinity, -pull);
        break;
      case 1:
        out.model.add_variable(-lp::kInfinity, 0, pull);
        break;
      default:
        out.model.add_variable(-lp::kInfinity, lp::kInfinity,
                               rng.bernoulli(0.5) ? pull : -pull);
        out.has_free = true;
        break;
    }
  }
  out.vars = out.model.variable_count();
  out.rows = out.model.row_count();
  return out;
}

}  // namespace wanplace::test
