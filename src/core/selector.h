// HeuristicSelector: the paper's Section 6.1 methodology as an API.
//
// Given a system (topology-derived matrices), a workload (demand) and a
// performance goal, compute the general lower bound and the lower bound of
// every candidate heuristic class, then recommend a class:
//
//   "The key idea of the method is to choose a heuristic from the class
//    with the lowest bound. If this lower bound is close to the general
//    lower bound, there exists no heuristic that could be significantly
//    better than the chosen one."
#pragma once

#include <string>
#include <vector>

#include "bounds/engine.h"
#include "mcperf/heuristic_class.h"
#include "mcperf/instance.h"
#include "util/table.h"

namespace wanplace::core {

struct SelectorOptions {
  /// Classes to evaluate; empty means default_classes().
  std::vector<mcperf::ClassSpec> classes;
  bounds::BoundOptions bounds;
  /// Concurrent bound solves. The general class and every candidate class
  /// each build and solve their own independent LP, so they fan out
  /// together: 0 = hardware concurrency, 1 = the general class first, then
  /// every class in order, serially. Reports are bit-identical for every
  /// value. Each simplex solve runs on its worker's thread; when solving
  /// concurrently, bounds.parallelism (PDHG's matvecs) is forced to 1 so
  /// no pool nests inside the fan-out, and when solving serially it is
  /// capped at this value (0 in bounds.parallelism takes this value).
  std::size_t parallelism = 0;
  /// Keep the full BoundDetail of every solve in SelectionReport::details
  /// (models, LP solutions with duals, rounding results). Off by default:
  /// details hold the whole LP per class. Needed for `--report`-style
  /// sensitivity output (obs::make_solve_report).
  bool keep_details = false;
};

struct SelectionReport {
  /// The theoretical floor: no heuristic of any kind beats this.
  bounds::ClassBound general;
  /// Per-class bounds in the order the classes were given.
  std::vector<bounds::ClassBound> classes;
  /// Index into `classes` of the recommended class; SIZE_MAX when no class
  /// can meet the goal.
  std::size_t recommended = SIZE_MAX;
  /// Concrete heuristic suggestion for the recommended class (Table 3).
  std::string suggestion;
  /// recommended lower bound / general lower bound — close to 1 means no
  /// other class can be much better.
  double optimality_ratio = 0;
  /// Populated when SelectorOptions::keep_details is set: index 0 is the
  /// general bound, index 1+i matches classes[i].
  std::vector<bounds::BoundDetail> details;

  bool has_recommendation() const { return recommended != SIZE_MAX; }
  const bounds::ClassBound& recommended_bound() const;

  /// Render as an aligned table (class, achievable, bound, rounded, gap).
  Table to_table() const;
};

class HeuristicSelector {
 public:
  explicit HeuristicSelector(SelectorOptions options = {});

  SelectionReport select(const mcperf::Instance& instance) const;

  /// The candidate set of Figure 1: storage constrained, replica
  /// constrained, decentralized local routing, caching, cooperative
  /// caching.
  static std::vector<mcperf::ClassSpec> default_classes();

  /// A concrete deployable heuristic for a class (paper Table 3).
  static std::string suggested_heuristic(const std::string& class_name);

 private:
  SelectorOptions options_;
};

}  // namespace wanplace::core
