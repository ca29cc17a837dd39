#include "bounds/rounding.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <array>
#include <map>
#include <set>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/log.h"

namespace wanplace::bounds {

namespace {

using mcperf::BuiltModel;
using mcperf::ClassSpec;
using mcperf::Instance;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// LP values within this distance of 0/1 are snapped before rounding.
constexpr double kSnapTolerance = 1e-5;

/// Shared state for both rounding strategies.
class Rounder {
 public:
  Rounder(const Instance& instance, const ClassSpec& spec,
          const BuiltModel& built, const std::vector<double>& x,
          double snap)
      : instance_(instance),
        spec_(spec),
        built_(built),
        n_count_(instance.node_count()),
        i_count_(instance.interval_count()),
        k_count_(instance.object_count()),
        value_(n_count_, i_count_, k_count_, 0.0),
        possible_(n_count_, i_count_, k_count_, 0),
        cover_count_(n_count_, i_count_, k_count_, 0),
        groups_(instance,
                std::holds_alternative<mcperf::QosGoal>(instance.goal)
                    ? std::get<mcperf::QosGoal>(instance.goal).scope
                    : mcperf::QosScope::PerUser) {
    WANPLACE_REQUIRE(
        std::holds_alternative<mcperf::QosGoal>(instance.goal),
        "rounding supports the QoS metric");
    tqos_ = std::get<mcperf::QosGoal>(instance.goal).tqos;

    // Initial (snapped) values from the LP solution.
    for (std::size_t n = 0; n < n_count_; ++n) {
      const bool origin = instance.is_origin(n);
      for (std::size_t i = 0; i < i_count_; ++i)
        for (std::size_t k = 0; k < k_count_; ++k) {
          double v = origin ? 1.0
                            : x[static_cast<std::size_t>(built.store(n, i, k))];
          if (v < snap) v = 0;
          if (v > 1 - snap) v = 1;
          value_(n, i, k) = v;
        }
    }

    // possible(m,i,k): a replica may exist by interval i (prefix OR of the
    // class's create permissions; the origin always has one).
    for (std::size_t m = 0; m < n_count_; ++m) {
      const bool origin = instance.is_origin(m);
      for (std::size_t k = 0; k < k_count_; ++k) {
        unsigned char so_far = origin ? 1 : 0;
        for (std::size_t i = 0; i < i_count_; ++i) {
          so_far = so_far || built.create_allowed(m, i, k);
          possible_(m, i, k) = so_far;
        }
      }
    }

    // Inverse reach: who consumes coverage from node m.
    inv_reach_.resize(n_count_);
    for (std::size_t n = 0; n < n_count_; ++n)
      for (std::size_t m : built.reach[n]) inv_reach_[m].push_back(n);

    // Integral coverage counts and QoS per scope group.
    qos_.assign(groups_.count(), 1.0);
    covered_reads_.assign(groups_.count(), 0.0);
    for (std::size_t n = 0; n < n_count_; ++n) {
      for (std::size_t i = 0; i < i_count_; ++i)
        for (std::size_t k = 0; k < k_count_; ++k) {
          if (instance.demand.read(n, i, k) <= 0) continue;
          int count = 0;
          for (std::size_t m : built.reach[n])
            if (value_(m, i, k) == 1.0) ++count;
          cover_count_(n, i, k) = count;
          if (count > 0)
            covered_reads_[groups_.group_of(n, k)] +=
                instance.demand.read(n, i, k);
        }
    }
    refresh_qos();
  }

  void refresh_qos() {
    for (std::size_t g = 0; g < groups_.count(); ++g)
      qos_[g] = groups_.total_reads(g) > 0
                    ? covered_reads_[g] / groups_.total_reads(g)
                    : 1.0;
  }

  bool goal_met() const {
    for (std::size_t g = 0; g < groups_.count(); ++g)
      if (groups_.total_reads(g) > 0 && qos_[g] < tqos_ - 1e-12)
        return false;
    return true;
  }

  /// Extra reads covered if (m,i,k) flips to 1.
  double reward_up(std::size_t m, std::size_t i, std::size_t k) const {
    double reward = 0;
    for (std::size_t n : inv_reach_[m]) {
      const double reads = instance_.demand.read(n, i, k);
      if (reads > 0 && cover_count_(n, i, k) == 0) reward += reads;
    }
    return reward;
  }

  /// Reads that lose their only cover if (m,i,k) flips to 0.
  double reward_down(std::size_t m, std::size_t i, std::size_t k) const {
    double reward = 0;
    for (std::size_t n : inv_reach_[m]) {
      const double reads = instance_.demand.read(n, i, k);
      if (reads > 0 && cover_count_(n, i, k) == 1) reward += reads;
    }
    return reward;
  }

  /// Creation-cost sum over one (m,k) interval run [first-1 .. last+1]
  /// under hypothetical values supplied by `probe`.
  template <typename Probe>
  double creation_sum(std::size_t first, std::size_t last,
                      Probe&& probe) const {
    double sum = 0;
    const std::size_t hi = std::min(last + 1, i_count_ - 1);
    for (std::size_t i = first; i <= hi; ++i) {
      const double prev = i == 0 ? 0.0 : probe(i - 1);
      sum += std::max(0.0, probe(i) - prev);
    }
    return sum;
  }

  /// The chain of intervals [start..i] that must flip with a round-up of
  /// (m,i,k) so constraint (20)/(20a) stays valid. Empty when impossible.
  std::vector<std::size_t> up_chain(std::size_t m, std::size_t i,
                                    std::size_t k) const {
    std::vector<std::size_t> chain;
    std::size_t j = i;
    while (true) {
      chain.push_back(j);
      if (built_.create_allowed(m, j, k)) break;       // can create here
      if (j == 0) return {};                           // cold start blocked
      if (value_(m, j - 1, k) == 1.0) break;           // extend existing run
      --j;
    }
    std::reverse(chain.begin(), chain.end());
    return chain;
  }

  /// Cost delta of flipping the chain (storage + creation).
  double cost_up(std::size_t m, std::size_t k,
                 const std::vector<std::size_t>& chain) const {
    const auto& costs = instance_.costs;
    double storage = 0;
    for (std::size_t j : chain) storage += 1 - value_(m, j, k);
    const std::size_t first = chain.front(), last = chain.back();
    const auto old_probe = [&](std::size_t i) { return value_(m, i, k); };
    const auto new_probe = [&](std::size_t i) {
      if (i >= first && i <= last) return 1.0;
      return value_(m, i, k);
    };
    const double create_delta =
        creation_sum(first, last, new_probe) -
        creation_sum(first, last, old_probe);
    return instance_.storage_alpha(m) * storage + costs.beta * create_delta;
  }

  /// Cost delta of flipping a single cell to 0 (negative = saving).
  double cost_down(std::size_t m, std::size_t i, std::size_t k) const {
    const auto& costs = instance_.costs;
    const auto old_probe = [&](std::size_t j) { return value_(m, j, k); };
    const auto new_probe = [&](std::size_t j) {
      return j == i ? 0.0 : value_(m, j, k);
    };
    const double create_delta = creation_sum(i, i, new_probe) -
                                creation_sum(i, i, old_probe);
    return -instance_.storage_alpha(m) * value_(m, i, k) +
           costs.beta * create_delta;
  }

  void apply(std::size_t m, std::size_t i, std::size_t k, double new_value) {
    const double old_value = value_(m, i, k);
    if (old_value == new_value) return;
    value_(m, i, k) = new_value;
    const bool was_one = old_value == 1.0;
    const bool is_one = new_value == 1.0;
    if (was_one == is_one) return;
    const int delta = is_one ? 1 : -1;
    for (std::size_t n : inv_reach_[m]) {
      const double reads = instance_.demand.read(n, i, k);
      if (reads <= 0) continue;
      const int before = cover_count_(n, i, k);
      cover_count_(n, i, k) = before + delta;
      const std::size_t g = groups_.group_of(n, k);
      if (before == 0 && delta > 0) covered_reads_[g] += reads;
      if (before == 1 && delta < 0) covered_reads_[g] -= reads;
      if (groups_.total_reads(g) > 0)
        qos_[g] = covered_reads_[g] / groups_.total_reads(g);
    }
  }

  /// True if dropping (m,i,k) keeps every scope group at/above the target.
  /// Losses that land in the same group must be summed before checking.
  bool drop_keeps_goal(std::size_t m, std::size_t i, std::size_t k) const {
    std::map<std::size_t, double> loss;
    for (std::size_t n : inv_reach_[m]) {
      const double reads = instance_.demand.read(n, i, k);
      if (reads <= 0 || cover_count_(n, i, k) != 1) continue;
      loss[groups_.group_of(n, k)] += reads;
    }
    for (const auto& [g, lost] : loss) {
      if (groups_.total_reads(g) <= 0) continue;
      if ((covered_reads_[g] - lost) / groups_.total_reads(g) <
          tqos_ - 1e-12)
        return false;
    }
    return true;
  }

  /// Dropping i must not orphan a successor run under create restrictions.
  bool drop_keeps_create_valid(std::size_t m, std::size_t i,
                               std::size_t k) const {
    if (i + 1 >= i_count_) return true;
    if (value_(m, i + 1, k) != 1.0) return true;
    // The successor becomes a fresh creation at i+1.
    return built_.create_allowed(m, i + 1, k) != 0;
  }

  /// Mutable-state snapshot for tentative multi-step moves.
  struct Snapshot {
    DenseCube<double> value;
    DenseCube<int> cover_count;
    std::vector<double> covered_reads, qos;
  };
  Snapshot snapshot_state() const {
    return Snapshot{value_, cover_count_, covered_reads_, qos_};
  }
  void restore_state(Snapshot snapshot) {
    value_ = std::move(snapshot.value);
    cover_count_ = std::move(snapshot.cover_count);
    covered_reads_ = std::move(snapshot.covered_reads);
    qos_ = std::move(snapshot.qos);
  }

  Placement snapshot_integral() const {
    Placement placement(n_count_, i_count_, k_count_);
    for (std::size_t n = 0; n < n_count_; ++n) {
      if (instance_.is_origin(n)) continue;
      for (std::size_t i = 0; i < i_count_; ++i)
        for (std::size_t k = 0; k < k_count_; ++k)
          placement(n, i, k) = value_(n, i, k) == 1.0 ? 1 : 0;
    }
    return placement;
  }

  /// Uncovered demand cells (read > 0, no integral cover) for a node.
  struct DemandCell {
    std::size_t n, i, k;
    double reads;
  };
  std::vector<DemandCell> uncovered_cells() const {
    std::vector<DemandCell> cells;
    for (std::size_t n = 0; n < n_count_; ++n) {
      for (std::size_t i = 0; i < i_count_; ++i)
        for (std::size_t k = 0; k < k_count_; ++k) {
          const double reads = instance_.demand.read(n, i, k);
          if (reads <= 0 || cover_count_(n, i, k) != 0) continue;
          const std::size_t g = groups_.group_of(n, k);
          if (groups_.total_reads(g) <= 0 || qos_[g] >= tqos_ - 1e-12)
            continue;
          cells.push_back({n, i, k, reads});
        }
    }
    return cells;
  }

  const Instance& instance_;
  const ClassSpec& spec_;
  const BuiltModel& built_;
  std::size_t n_count_, i_count_, k_count_;
  double tqos_ = 0;
  DenseCube<double> value_;
  BoolCube possible_;
  DenseCube<int> cover_count_;
  std::vector<std::vector<std::size_t>> inv_reach_;
  mcperf::QosGroups groups_;
  std::vector<double> covered_reads_, qos_;
};

/// Extend a chain to the whole maximal constant-value run (batch option).
std::vector<std::size_t> extend_to_run(const DenseCube<double>& value,
                                       std::size_t m, std::size_t k,
                                       std::vector<std::size_t> chain,
                                       std::size_t i_count) {
  const double v = value(m, chain.back(), k);
  std::size_t j = chain.back();
  while (j + 1 < i_count && value(m, j + 1, k) == v && v > 0 && v < 1) {
    chain.push_back(j + 1);
    ++j;
  }
  return chain;
}

}  // namespace

namespace {

RoundingResult round_solution_impl(const Instance& instance,
                                   const ClassSpec& spec,
                                   const BuiltModel& built,
                                   const std::vector<double>& x,
                                   const RoundingOptions& options) {
  WANPLACE_REQUIRE(x.size() == built.model.variable_count(),
                   "solution arity mismatch");
  Rounder state(instance, spec, built, x, kSnapTolerance);
  RoundingResult result;

  // --- round-up phase: cover demand until the goal holds ------------------
  while (!state.goal_met()) {
    const auto uncovered = state.uncovered_cells();
    WANPLACE_CHECK(!uncovered.empty(), "goal unmet but nothing uncovered");

    // Candidate set: stores that could cover some uncovered demand.
    std::set<std::array<std::size_t, 3>> candidates;
    for (const auto& cell : uncovered)
      for (std::size_t m : built.reach[cell.n])
        if (!instance.is_origin(m) && state.value_(m, cell.i, cell.k) < 1 &&
            state.possible_(m, cell.i, cell.k))
          candidates.insert({m, cell.i, cell.k});

    double best_ratio = kInf;
    std::vector<std::size_t> best_chain;
    std::array<std::size_t, 3> best{};
    for (const auto& cand : candidates) {
      const auto [m, i, k] = cand;
      const double reward = state.reward_up(m, i, k);
      if (reward <= 0) continue;
      auto chain = state.up_chain(m, i, k);
      if (chain.empty()) continue;
      if (options.batch_runs)
        chain = extend_to_run(state.value_, m, k, std::move(chain),
                              instance.interval_count());
      const double cost = state.cost_up(m, k, chain);
      const double ratio = cost / reward;
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best_chain = std::move(chain);
        best = cand;
      }
    }
    if (best_chain.empty()) {
      // No class-permitted store can cover the remaining demand.
      result.feasible = false;
      return result;
    }
    for (std::size_t j : best_chain) state.apply(best[0], j, best[2], 1.0);
    ++result.round_ups;
  }

  // --- flush remaining fractional values to 0 -----------------------------
  // (They contribute no integral coverage; cost accounting happens on the
  // final placement.)
  for (std::size_t n = 0; n < instance.node_count(); ++n) {
    if (instance.is_origin(n)) continue;
    for (std::size_t i = 0; i < instance.interval_count(); ++i)
      for (std::size_t k = 0; k < instance.object_count(); ++k) {
        const double v = state.value_(n, i, k);
        if (v > 0 && v < 1) {
          state.apply(n, i, k, 0.0);
          ++result.round_downs;
        }
      }
  }

  // --- drop pass: remove redundant integral stores -------------------------
  bool changed = true;
  std::size_t guard = 0;
  const std::size_t guard_limit =
      4 * instance.node_count() * instance.interval_count() *
      instance.object_count();
  while (changed && guard++ < guard_limit) {
    changed = false;
    // Preference order per Figure 5: a zero-reward drop with positive
    // saving first; otherwise the permissible drop with the best
    // saving-per-lost-reward ratio.
    double best_free_saving = 1e-12;
    double best_ratio = 1e-12;
    bool have_free = false, have_ratio = false;
    std::array<std::size_t, 3> best_free{}, best_ratio_cell{};
    for (std::size_t m = 0; m < instance.node_count(); ++m) {
      if (instance.is_origin(m)) continue;
      for (std::size_t i = 0; i < instance.interval_count(); ++i)
        for (std::size_t k = 0; k < instance.object_count(); ++k) {
          if (state.value_(m, i, k) != 1.0) continue;
          if (!state.drop_keeps_create_valid(m, i, k)) continue;
          const double saving = -state.cost_down(m, i, k);
          if (saving <= 0) continue;
          const double reward = state.reward_down(m, i, k);
          if (reward == 0) {
            if (saving > best_free_saving) {
              best_free_saving = saving;
              best_free = {m, i, k};
              have_free = true;
            }
          } else if (state.drop_keeps_goal(m, i, k)) {
            const double ratio = saving / reward;
            if (ratio > best_ratio) {
              best_ratio = ratio;
              best_ratio_cell = {m, i, k};
              have_ratio = true;
            }
          }
        }
    }
    if (have_free) {
      state.apply(best_free[0], best_free[1], best_free[2], 0.0);
      ++result.round_downs;
      changed = true;
    } else if (have_ratio) {
      state.apply(best_ratio_cell[0], best_ratio_cell[1],
                  best_ratio_cell[2], 0.0);
      ++result.round_downs;
      changed = true;
    }
  }

  // --- capacity-leveling pass for per-system storage-constrained classes.
  // The provisioned cost charges every node and interval at the peak load,
  // so shaving the peak by one object saves alpha * |N'| * |I| at once —
  // but only if EVERY peak-loaded (node, interval) can give up a cell
  // without breaking the goal. Tentative; rolled back when the full level
  // cannot be cleared or does not pay for its re-creation penalties.
  if (spec.storage && *spec.storage == mcperf::StorageConstraint::PerSystem) {
    const std::size_t n_count = instance.node_count();
    const std::size_t i_count = instance.interval_count();
    const std::size_t k_count = instance.object_count();
    const double level_saving =
        instance.costs.alpha *
        static_cast<double>(n_count -
                            (instance.origin.has_value() ? 1 : 0)) *
        static_cast<double>(i_count);
    bool leveled = true;
    std::size_t level_guard = 0;
    while (leveled && level_guard++ < k_count) {
      leveled = false;
      // Current peak load and its binding (node, interval) pairs.
      double peak = 0;
      std::vector<std::pair<std::size_t, std::size_t>> binding;
      for (std::size_t n = 0; n < n_count; ++n) {
        if (instance.is_origin(n)) continue;
        for (std::size_t i = 0; i < i_count; ++i) {
          double load = 0;
          for (std::size_t k = 0; k < k_count; ++k)
            load += state.value_(n, i, k) == 1.0 ? 1 : 0;
          if (load > peak) {
            peak = load;
            binding.clear();
          }
          if (load == peak && peak > 0) binding.emplace_back(n, i);
        }
      }
      if (peak == 0) break;

      const auto snapshot = state.snapshot_state();
      double recreation_penalty = 0;
      bool cleared = true;
      std::size_t drops = 0;
      for (const auto& [n, i] : binding) {
        // Cheapest permissible drop at this (node, interval).
        double best_cost = lp::kInfinity;
        std::size_t best_k = SIZE_MAX;
        for (std::size_t k = 0; k < k_count; ++k) {
          if (state.value_(n, i, k) != 1.0) continue;
          if (!state.drop_keeps_create_valid(n, i, k)) continue;
          if (state.reward_down(n, i, k) > 0 &&
              !state.drop_keeps_goal(n, i, k))
            continue;
          // cost_down = -alpha*value + beta*create_delta; only the
          // creation part is real under provisioned storage accounting.
          const double penalty =
              state.cost_down(n, i, k) + instance.costs.alpha;
          if (penalty < best_cost) {
            best_cost = penalty;
            best_k = k;
          }
        }
        if (best_k == SIZE_MAX) {
          cleared = false;
          break;
        }
        recreation_penalty += best_cost;
        state.apply(n, i, best_k, 0.0);
        ++drops;
      }
      if (cleared && recreation_penalty < level_saving - 1e-9) {
        result.round_downs += drops;
        leveled = true;
      } else {
        state.restore_state(snapshot);
      }
    }
  }

  result.placement = state.snapshot_integral();
  result.evaluation = evaluate_placement(instance, spec, result.placement);
  result.feasible = result.evaluation.feasible();
  if (!result.feasible)
    log_warn("rounding produced an infeasible placement (numerical edge)");
  return result;
}

}  // namespace

RoundingResult round_solution(const Instance& instance, const ClassSpec& spec,
                              const BuiltModel& built,
                              const std::vector<double>& x,
                              const RoundingOptions& options) {
  RoundingResult result =
      round_solution_impl(instance, spec, built, x, options);
  if (obs::metrics_enabled()) {
    obs::counter_add("rounding.runs");
    obs::counter_add("rounding.round_ups",
                     static_cast<double>(result.round_ups));
    obs::counter_add("rounding.round_downs",
                     static_cast<double>(result.round_downs));
    if (!result.feasible) obs::counter_add("rounding.infeasible");
  }
  return result;
}

RoundingResult round_generic(const Instance& instance, const ClassSpec& spec,
                             const BuiltModel& built,
                             const std::vector<double>& x, double threshold) {
  WANPLACE_REQUIRE(threshold > 0 && threshold < 1,
                   "threshold must be in (0,1)");
  // Threshold rounding: pretend every value >= threshold is 1.
  std::vector<double> thresholded(x);
  for (std::size_t n = 0; n < instance.node_count(); ++n) {
    if (instance.is_origin(n)) continue;
    for (std::size_t i = 0; i < instance.interval_count(); ++i)
      for (std::size_t k = 0; k < instance.object_count(); ++k) {
        auto& v = thresholded[static_cast<std::size_t>(built.store(n, i, k))];
        v = v >= threshold ? 1.0 : 0.0;
      }
  }
  Rounder state(instance, spec, built, thresholded, 1e-9);
  RoundingResult result;

  // Naive repair: cover the largest uncovered demand first, choosing the
  // first permitted server (no cost/reward weighting).
  while (!state.goal_met()) {
    auto uncovered = state.uncovered_cells();
    WANPLACE_CHECK(!uncovered.empty(), "goal unmet but nothing uncovered");
    std::sort(uncovered.begin(), uncovered.end(),
              [](const auto& a, const auto& b) { return a.reads > b.reads; });
    bool repaired = false;
    for (const auto& cell : uncovered) {
      for (std::size_t m : built.reach[cell.n]) {
        if (instance.is_origin(m)) continue;
        if (state.value_(m, cell.i, cell.k) == 1.0) continue;
        if (!state.possible_(m, cell.i, cell.k)) continue;
        const auto chain = state.up_chain(m, cell.i, cell.k);
        if (chain.empty()) continue;
        for (std::size_t j : chain) state.apply(m, j, cell.k, 1.0);
        ++result.round_ups;
        repaired = true;
        break;
      }
      if (repaired) break;
    }
    if (!repaired) {
      result.feasible = false;
      return result;
    }
  }

  result.placement = state.snapshot_integral();
  result.evaluation = evaluate_placement(instance, spec, result.placement);
  result.feasible = result.evaluation.feasible();
  return result;
}

}  // namespace wanplace::bounds
