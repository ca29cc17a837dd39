// Sparse LU basis factorization with Forrest–Tomlin updates of the U factor
// in place.
//
// The simplex basis matrix B (one column per basic variable) is factorized
// as PBQ = LU by right-looking Gaussian elimination with Markowitz pivot
// ordering (minimize (row_count-1)*(col_count-1) fill estimate) under a
// relative threshold-pivoting rule for stability. Tree-structured
// replica-placement LPs are dominated by singleton columns (slacks, cover
// rows), so the factorization is near-linear in nonzeros for the MC-PERF
// family where the dense explicit inverse was O(m^2) memory and O(m^3)
// refactorization.
//
// Between refactorizations the basis changes one column per simplex pivot,
// absorbed by a Forrest–Tomlin update: the incoming column's partial FTRAN
// result ("spike", stashed by ftran() after the L and R passes) replaces a
// column of U in place. Restoring triangularity takes one cyclic
// permutation (tracked as a contiguous pivot-order array — the slots
// themselves never move) plus the elimination of the leftover U row
// against the later U rows it actually reaches; the elimination
// multipliers are appended to a compact R-file of row etas. FTRAN solves
// L, then R, then U; BTRAN the reverse. Updates touch only the affected
// rows of U, so solve cost tracks the *current* factor sparsity instead of
// the pivot history, and the refactorization period can stretch into the
// thousands. When the eliminated diagonal comes out too small (absolutely,
// or relative to the spike) the update refuses and leaves the
// factorization unchanged — the caller must refactorize (the
// stability/fill fallback).
//
// Hyper-sparse solves: replica-placement LP columns touch a handful of rows
// each, so most FTRAN/BTRAN right-hand sides are far sparser than the basis
// dimension. ftran_sparse()/btran_sparse() accept the RHS nonzero pattern,
// run a symbolic reachability pass over the factor's dependency graph (L
// steps keyed by pivot row, U rows via the per-position occupancy lists, the
// transposed structures for BTRAN) to find a superset of the result
// nonzeros, then run the *same arithmetic as the dense loops in the same
// order* over just those entries — nonzero results are bit-identical to the
// dense scatter; only signs of exact zeros can differ, and those never feed
// back into values or control flow. Whenever the tracked pattern crosses the
// caller's density threshold the remaining stages finish on the dense code
// path, so the crossover costs nothing beyond the symbolic work already
// done.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace wanplace::lp {

class BasisLu {
 public:
  /// One nonzero of a basis column (row index, coefficient) — also reused
  /// internally for L/U/R entries with `index` meaning row or position.
  struct Entry {
    std::uint32_t index;
    double value;
  };

  /// How update() absorbs basis changes. Forrest–Tomlin is the only scheme.
  enum class UpdateMode { ForrestTomlin };

  /// Factorize the m x m basis whose column p holds the nonzeros
  /// columns[p] as (row, value) pairs. Discards any existing R-file.
  /// Returns false when the basis is structurally or numerically singular
  /// (no pivot above the absolute tolerance remains); the object is then
  /// unusable until the next successful factorize(), except that
  /// singular_rows() and singular_positions() say where elimination
  /// stopped. Replacing each listed position's column by the unit column
  /// of the paired listed row gives a basis that is nonsingular in exact
  /// arithmetic (the pivoted block plus unit columns).
  ///
  /// `pivot_threshold` in (0, 1] is the Markowitz threshold: a pivot must
  /// reach that fraction of its column's largest active entry. Larger is
  /// more stable, smaller is sparser.
  ///
  /// The UpdateMode parameter is ignored. It is kept only because
  /// perfbench/src/probes.cpp passes it, and perfbench/ may not change
  /// outside a change to the benchmark.
  bool factorize(std::size_t m, const std::vector<std::vector<Entry>>& columns,
                 double pivot_threshold = 0.1,
                 UpdateMode = UpdateMode::ForrestTomlin);

  /// Solve B w = a in place: on entry x is a (indexed by constraint row),
  /// on exit x is w (indexed by basis position). The partial result after
  /// the L and R passes (the "spike") is stashed for a subsequent update().
  void ftran(std::vector<double>& x) const;

  /// Solve B^T y = c in place: on entry x is c (indexed by basis
  /// position), on exit x is y (indexed by constraint row).
  void btran(std::vector<double>& x) const;

  /// Hyper-sparse FTRAN (empty bases delegate to the dense ftran()). On
  /// entry x must be zero outside `pattern`, which lists its nonzero
  /// constraint rows (unique, any order). Solves in place; when every stage
  /// ran sparse, returns true and rewrites `pattern` to a superset of the
  /// result's nonzero basis positions. Returns false when the tracked
  /// pattern crossed `density_threshold` (as a fraction of the dimension)
  /// and the solve finished on the dense path — x is then the full dense
  /// result and `pattern` is meaningless. Either way the result's nonzero
  /// values are bit-identical to ftran()'s and the spike is stashed for
  /// update().
  bool ftran_sparse(std::vector<double>& x,
                    std::vector<std::uint32_t>& pattern,
                    double density_threshold) const;

  /// Hyper-sparse BTRAN, same contract as ftran_sparse with the index
  /// spaces swapped: on entry x is zero outside `pattern` (nonzero basis
  /// positions); on a true return `pattern` holds the result's nonzero
  /// constraint rows.
  bool btran_sparse(std::vector<double>& x,
                    std::vector<std::uint32_t>& pattern,
                    double density_threshold) const;

  /// Absorb a basis change: the column at `position` was replaced by the
  /// column a whose ftran() (or ftran_sparse()) ran last — the update
  /// consumes the spike that solve stashed. Returns false, leaving the
  /// factorization unchanged, when the eliminated U diagonal is
  /// <= min_pivot or vanishes relative to the spike's largest entry (the
  /// stability guard); the caller must refactorize instead.
  bool update(std::size_t position, double min_pivot);

  /// After a false factorize(): the constraint rows and the basis
  /// positions (dependent columns) still unpivoted when the pivot search
  /// found nothing, each ascending, both of length m minus the pivots
  /// taken. Empty after a successful factorize(); cleared at the start of
  /// every factorize().
  const std::vector<std::uint32_t>& singular_rows() const {
    return singular_rows_;
  }
  const std::vector<std::uint32_t>& singular_positions() const {
    return singular_positions_;
  }

  std::size_t dimension() const { return m_; }
  /// Basis changes absorbed since the last factorize().
  std::size_t update_count() const { return update_count_; }
  /// Nonzeros currently stored in L and U (fill-in diagnostics; excludes
  /// the R-file). Forrest–Tomlin updates change this in place.
  std::size_t factor_nonzeros() const;
  /// Nonzeros of L and U immediately after the last factorize() — the
  /// reference point for fill-growth refactorization triggers.
  std::size_t baseline_nonzeros() const { return baseline_nonzeros_; }
  /// Total entries across the Forrest–Tomlin R-file.
  std::size_t r_nonzeros() const { return r_nonzeros_; }

 private:
  /// One elimination step: pivot at (pivot_row, pivot_col), below-pivot
  /// multipliers in l_entries (constraint-row indexed), the remainder of
  /// the pivot row in u_entries (basis-position indexed, pivot excluded).
  /// build_ft_structure() moves u_entries into the mutable U store and
  /// l_entries into the pooled L arena.
  struct Step {
    std::uint32_t pivot_row = 0;
    std::uint32_t pivot_col = 0;
    double pivot = 0;
    std::vector<Entry> l_entries;
    std::vector<Entry> u_entries;
  };
  /// Forrest–Tomlin row eta: one combined row operation
  /// x[row] -= sum_j entries[j].value * x[entries[j].index], all indices in
  /// constraint-row space (stable across later cyclic permutations).
  /// Staging form used while an update builds an eta; the live
  /// R-file stores spans into the contiguous reta_pool_ arena instead so
  /// the per-solve R passes stream memory.
  struct RowEta {
    std::uint32_t row = 0;
    std::vector<Entry> entries;
  };
  /// One committed row eta: entries live at
  /// reta_pool_[begin, end) (constraint-row indexed).
  struct RetaSpan {
    std::uint32_t row = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  void build_ft_structure();
  const Entry* l_begin(std::size_t t) const { return l_pool_.data() + l_off_[t]; }
  std::size_t l_len(std::size_t t) const { return l_off_[t + 1] - l_off_[t]; }
  void ensure_sparse_scratch() const;
  void stash_spike_sparse(const std::vector<double>& x,
                          const std::vector<std::uint32_t>& pattern) const;

  std::size_t m_ = 0;
  std::vector<Step> steps_;
  std::vector<std::uint32_t> singular_rows_;
  std::vector<std::uint32_t> singular_positions_;
  std::size_t update_count_ = 0;
  std::size_t baseline_nonzeros_ = 0;

  // --- Forrest–Tomlin state. One "slot" per pivot of the factorization,
  // identified by its (constraint row, basis position) pair — both stable
  // across updates; only the slot's place in the pivot order changes.
  std::vector<double> u_pivot_;              // diagonal per slot
  std::vector<std::uint32_t> u_row_;         // constraint row per slot
  std::vector<std::uint32_t> u_pos_;         // basis position per slot
  std::vector<std::vector<Entry>> u_rows_;   // off-diagonal row entries
                                             // (basis-position indexed)
  /// Pivot order as a contiguous slot array plus its inverse. An update
  /// moves one slot to the end (a memmove of the tail of pivot_order_);
  /// the dense triangular passes then stream the array instead of chasing
  /// a linked list through cold memory.
  std::vector<std::uint32_t> pivot_order_;   // index in order -> slot
  std::vector<std::uint32_t> order_pos_;     // slot -> index in order
  std::vector<std::uint32_t> slot_of_pos_;   // basis position -> slot
  std::vector<std::uint32_t> slot_of_row_;   // constraint row -> slot
  /// Per basis position: slots whose U row may hold an entry there
  /// (superset with lazy staleness; rebuilt for a position on update).
  std::vector<std::vector<std::uint32_t>> col_slots_;
  std::vector<RetaSpan> retas_;              // the R-file, oldest first
  std::vector<Entry> reta_pool_;             // R-file entries, contiguous
  /// L multipliers pooled into one arena in elimination-step order
  /// (immutable between refactorizations — updates touch only U
  /// and the R-file). l_off_[t] .. l_off_[t+1] is step t's slice and
  /// step_row_[t] its pivot row, so every L pass streams the arena instead
  /// of dereferencing per-step heap vectors.
  std::vector<Entry> l_pool_;
  std::vector<std::size_t> l_off_;
  std::vector<std::uint32_t> step_row_;
  std::size_t u_nonzeros_ = 0;               // current off-diagonal U count
  std::size_t l_nonzeros_ = 0;
  std::size_t r_nonzeros_ = 0;

  // --- Hyper-sparse solve machinery. Sparse passes
  // (and the update's sparse dry run) need to order small active sets by
  // pivot order without scanning it, so every slot carries a strictly
  // increasing order key (reassigned when an update moves a slot to the
  // tail of pivot_order_).
  std::vector<std::uint64_t> order_key_;
  std::uint64_t next_order_key_ = 0;
  /// Transposed L adjacency: constraint row -> elimination steps whose
  /// l_entries read that row (static between refactorizations; drives the
  /// BTRAN L^T reachability pass).
  std::vector<std::vector<std::uint32_t>> row_l_steps_;
  // Epoch-stamped marks and worklists so a sparse solve never pays an
  // O(m) clear: a cell is marked iff its stamp equals the current epoch.
  mutable std::vector<std::uint64_t> stamp_;   // rows or positions
  mutable std::vector<std::uint64_t> stamp2_;  // steps (BTRAN L^T pass)
  mutable std::uint64_t epoch_ = 0;
  mutable std::vector<std::uint32_t> worklist_;
  mutable std::vector<std::uint32_t> active_;
  /// Kept all-zero between calls; sparse passes scatter into it and
  /// re-zero exactly the touched entries on the way out.
  mutable std::vector<double> result_;

  mutable std::vector<double> scratch_;
  mutable std::vector<double> spike_;        // post-L,R partial FTRAN
  mutable bool spike_valid_ = false;
  /// When valid, spike_ is zero outside spike_pattern_ and update() can
  /// iterate the pattern instead of all m rows.
  mutable std::vector<std::uint32_t> spike_pattern_;
  mutable bool spike_pattern_valid_ = false;
};

}  // namespace wanplace::lp
