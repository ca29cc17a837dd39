#include "lp/lu.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace wanplace::lp {

namespace {

/// How many candidate columns the Markowitz search gathers values for per
/// pivot step once an acceptable pivot has been seen. Classic limited
/// search (Suhl & Suhl): examining a handful of lowest-count columns gets
/// within noise of the full search at a fraction of the cost.
constexpr std::size_t kSearchCap = 16;

/// Forrest–Tomlin stability guard: the eliminated diagonal must not vanish
/// relative to the spike's largest entry, or the updated U would amplify
/// roundoff on every later solve. 1e-10 rejects genuinely collapsing pivots
/// while tolerating the poor scaling adversarial near-singular bases show.
constexpr double kFtRelativeStability = 1e-10;

/// x[e.index] -= e.value * z over an entry list — the scatter kernel every
/// dense triangular pass spends its time in. 4-way unrolled: the indices
/// within one list are distinct, so unrolling only widens the independent-
/// op window for the CPU; each element still performs the identical
/// multiply-subtract, so results are bit-for-bit the plain loop's.
inline void scatter_axpy(double* x, const BasisLu::Entry* e, std::size_t n,
                         double z) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    x[e[i].index] -= e[i].value * z;
    x[e[i + 1].index] -= e[i + 1].value * z;
    x[e[i + 2].index] -= e[i + 2].value * z;
    x[e[i + 3].index] -= e[i + 3].value * z;
  }
  for (; i < n; ++i) x[e[i].index] -= e[i].value * z;
}

}  // namespace

bool BasisLu::factorize(std::size_t m,
                        const std::vector<std::vector<Entry>>& columns,
                        double pivot_threshold, UpdateMode) {
  WANPLACE_REQUIRE(columns.size() == m, "basis column count mismatch");
  // Timed only while metrics are on, so a disabled registry reads no clock.
  std::optional<Stopwatch> watch;
  if (obs::metrics_enabled()) watch.emplace();
  pivot_threshold = std::clamp(pivot_threshold, 1e-4, 1.0);
  m_ = m;
  steps_.clear();
  steps_.reserve(m);
  retas_.clear();
  update_count_ = 0;
  r_nonzeros_ = 0;
  spike_valid_ = false;
  spike_pattern_valid_ = false;
  singular_rows_.clear();
  singular_positions_.clear();

  // Working copy of the active submatrix: rows as (col, value) lists —
  // values live here — and per-column lists of candidate rows that may be
  // stale (lazy deletion; membership is re-checked against the row).
  std::vector<std::vector<Entry>> rows(m);
  std::vector<std::vector<std::uint32_t>> col_rows(m);
  std::vector<std::uint32_t> row_count(m, 0), col_count(m, 0);
  std::vector<char> row_active(m, 1), col_active(m, 1);
  double max_abs = 0;
  for (std::size_t p = 0; p < m; ++p) {
    for (const Entry& e : columns[p]) {
      WANPLACE_REQUIRE(e.index < m, "basis entry row out of range");
      if (e.value == 0) continue;
      rows[e.index].push_back({static_cast<std::uint32_t>(p), e.value});
      col_rows[p].push_back(e.index);
      ++col_count[p];
      max_abs = std::max(max_abs, std::abs(e.value));
    }
  }
  for (std::size_t r = 0; r < m; ++r)
    row_count[r] = static_cast<std::uint32_t>(rows[r].size());
  const double abs_tol = 1e-11 * std::max(1.0, max_abs);

  // Active columns ordered by (col_count, column), the Markowitz search's
  // candidate order. A key packs the count above the column index, so the
  // set iterates exactly like a stable counting sort by count; pivot
  // choices (and with them every golden) depend on that order. Every
  // col_count change of an active column re-keys it, and a pivot column
  // leaves the index.
  const auto key = [](std::uint32_t count, std::uint32_t c) {
    return (std::uint64_t{count} << 32) | c;
  };
  std::set<std::uint64_t> order;
  for (std::uint32_t c = 0; c < m; ++c) order.insert(key(col_count[c], c));
  const auto set_count = [&](std::uint32_t c, std::uint32_t count) {
    if (col_active[c] && count != col_count[c]) {
      auto node = order.extract(key(col_count[c], c));
      node.value() = key(count, c);
      order.insert(std::move(node));
    }
    col_count[c] = count;
  };

  // Dense workspaces for row combination.
  std::vector<double> work(m, 0.0);
  std::vector<char> mark(m, 0);
  std::vector<std::uint32_t> touched;
  // Active (row, value) pairs of the candidate column under examination
  // and of the winning column so far: the compaction scan already finds
  // every value, so the merit loop and the elimination reuse them instead
  // of re-scanning the rows.
  std::vector<Entry> cand_vals, best_vals;
  // Fresh counts of the columns the search compacted, applied once the walk
  // over `order` is done so the walk sees the order the step started with.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> recounts;
  // col_rows lists can hold duplicate row indices: exact cancellation drops
  // a row's entry without editing col_rows, and later fill-in re-appends the
  // row. The old elimination skipped the duplicate because its value_at
  // re-lookup failed after the first elimination removed the pivot-column
  // entry; with cached values that recheck is gone, so stamp rows instead.
  std::vector<std::uint8_t> row_done(m, 0);

  // Value of column c in active row r, scanning the row (entries are few).
  const auto value_at = [&](std::uint32_t r, std::uint32_t c,
                            double& out) -> bool {
    for (const Entry& e : rows[r]) {
      if (e.index == c) {
        out = e.value;
        return true;
      }
    }
    return false;
  };

  for (std::size_t step = 0; step < m; ++step) {
    // --- Markowitz pivot search over lowest-count active columns. ---
    if (order.empty()) return false;
    std::uint32_t best_row = 0, best_col = 0;
    double best_value = 0, best_abs = 0;
    double best_merit = std::numeric_limits<double>::infinity();
    bool found = false;
    std::size_t examined = 0;
    best_vals.clear();
    recounts.clear();
    for (const std::uint64_t k : order) {
      const auto c = static_cast<std::uint32_t>(k);
      // Compact the column's row list while gathering active values.
      auto& list = col_rows[c];
      std::size_t out = 0;
      double colmax = 0;
      cand_vals.clear();
      for (const std::uint32_t r : list) {
        if (!row_active[r]) continue;
        double v;
        if (!value_at(r, c, v)) continue;  // stale entry
        list[out++] = r;
        cand_vals.push_back({r, v});
        colmax = std::max(colmax, std::abs(v));
      }
      list.resize(out);
      recounts.emplace_back(c, static_cast<std::uint32_t>(out));
      if (colmax <= abs_tol) continue;  // numerically nil column
      ++examined;
      for (const Entry& rv : cand_vals) {
        const double v = rv.value;
        if (std::abs(v) < pivot_threshold * colmax) continue;
        const double merit = static_cast<double>(row_count[rv.index] - 1) *
                             static_cast<double>(out - 1);
        if (!found || merit < best_merit ||
            (merit == best_merit && std::abs(v) > best_abs)) {
          found = true;
          best_merit = merit;
          best_row = rv.index;
          best_col = c;
          best_value = v;
          best_abs = std::abs(v);
        }
      }
      if (found && best_col == c) best_vals = cand_vals;
      if (found && (best_merit == 0 || examined >= kSearchCap)) break;
    }
    for (const auto& [c, count] : recounts) set_count(c, count);
    if (!found) {  // numerically singular: report what is left unpivoted
      for (std::uint32_t i = 0; i < m; ++i) {
        if (row_active[i]) singular_rows_.push_back(i);
        if (col_active[i]) singular_positions_.push_back(i);
      }
      return false;
    }

    // --- Eliminate. ---
    Step st;
    st.pivot_row = best_row;
    st.pivot_col = best_col;
    st.pivot = best_value;
    row_active[best_row] = 0;
    order.erase(key(col_count[best_col], best_col));
    col_active[best_col] = 0;
    st.u_entries.reserve(rows[best_row].size() - 1);
    for (const Entry& e : rows[best_row]) {
      if (col_count[e.index] > 0) set_count(e.index, col_count[e.index] - 1);
      if (e.index != best_col) st.u_entries.push_back(e);
    }

    // best_vals holds exactly the active rows of the pivot column in
    // col_rows[best_col] order (the compaction scan built both), with
    // their values — the elimination consumes it instead of re-scanning
    // each row. The pivot row itself was deactivated just above.
    for (const Entry& rv : best_vals) {
      const std::uint32_t r = rv.index;
      if (!row_active[r] || row_done[r]) continue;
      row_done[r] = 1;
      const double mult = rv.value / best_value;
      st.l_entries.push_back({r, mult});

      // rows[r] -= mult * pivot_row, dropping the pivot-column entry.
      touched.clear();
      for (const Entry& e : rows[r]) {
        if (e.index == best_col) continue;
        work[e.index] = e.value;
        mark[e.index] = 1;
        touched.push_back(e.index);
      }
      for (const Entry& e : st.u_entries) {
        if (mark[e.index]) {
          work[e.index] -= mult * e.value;
        } else {
          work[e.index] = -mult * e.value;
          mark[e.index] = 1;
          touched.push_back(e.index);
          col_rows[e.index].push_back(r);  // fill-in
          set_count(e.index, col_count[e.index] + 1);
        }
      }
      auto& row = rows[r];
      row.clear();
      for (const std::uint32_t c : touched) {
        if (work[c] != 0) {
          row.push_back({c, work[c]});
        } else if (col_count[c] > 0) {
          set_count(c, col_count[c] - 1);  // exact cancellation
        }
        mark[c] = 0;
        work[c] = 0;
      }
      row_count[r] = static_cast<std::uint32_t>(row.size());
    }
    for (const Entry& rv : best_vals) row_done[rv.index] = 0;
    steps_.push_back(std::move(st));
  }

  build_ft_structure();
  baseline_nonzeros_ = factor_nonzeros();
  if (obs::metrics_enabled()) {
    std::size_t input_nnz = 0;
    for (const auto& column : columns) input_nnz += column.size();
    obs::counter_add("lu.factorizations");
    if (watch)
      obs::histogram_record("lu.factorize_s", watch->elapsed_seconds());
    obs::histogram_record("lu.factor_nnz",
                          static_cast<double>(baseline_nonzeros_));
    // Fill-in of this factorization: factor entries beyond the basis's own.
    obs::histogram_record(
        "lu.fill_in", static_cast<double>(baseline_nonzeros_) -
                          static_cast<double>(input_nnz));
  }
  return true;
}

void BasisLu::build_ft_structure() {
  const std::size_t m = m_;
  u_pivot_.resize(m);
  u_row_.resize(m);
  u_pos_.resize(m);
  u_rows_.assign(m, {});
  pivot_order_.resize(m);
  order_pos_.resize(m);
  slot_of_pos_.resize(m);
  slot_of_row_.resize(m);
  col_slots_.assign(m, {});
  order_key_.resize(m);
  row_l_steps_.assign(m, {});
  u_nonzeros_ = 0;
  l_nonzeros_ = 0;
  l_off_.resize(m + 1);
  step_row_.resize(m);
  l_pool_.clear();
  std::size_t l_total = 0;
  for (const Step& st : steps_) l_total += st.l_entries.size();
  l_pool_.reserve(l_total);
  l_off_[0] = 0;
  for (std::size_t t = 0; t < m; ++t) {
    Step& st = steps_[t];
    u_pivot_[t] = st.pivot;
    u_row_[t] = st.pivot_row;
    u_pos_[t] = st.pivot_col;
    slot_of_pos_[st.pivot_col] = static_cast<std::uint32_t>(t);
    slot_of_row_[st.pivot_row] = static_cast<std::uint32_t>(t);
    u_rows_[t] = std::move(st.u_entries);
    st.u_entries.clear();
    for (const Entry& e : u_rows_[t])
      col_slots_[e.index].push_back(static_cast<std::uint32_t>(t));
    u_nonzeros_ += u_rows_[t].size();
    l_nonzeros_ += st.l_entries.size();
    order_key_[t] = t;
    step_row_[t] = st.pivot_row;
    l_pool_.insert(l_pool_.end(), st.l_entries.begin(), st.l_entries.end());
    l_off_[t + 1] = l_pool_.size();
    // Every L read goes through the pool from here on; releasing
    // the per-step vector halves the L footprint.
    st.l_entries = {};
    for (std::size_t i = l_off_[t]; i < l_off_[t + 1]; ++i)
      row_l_steps_[l_pool_[i].index].push_back(static_cast<std::uint32_t>(t));
    pivot_order_[t] = static_cast<std::uint32_t>(t);
    order_pos_[t] = static_cast<std::uint32_t>(t);
  }
  next_order_key_ = m;
  reta_pool_.clear();
}

void BasisLu::ftran(std::vector<double>& x) const {
  WANPLACE_REQUIRE(x.size() == m_, "ftran dimension mismatch");
  // Forward pass through L, streaming the pooled arena.
  const std::size_t nsteps = steps_.size();
  for (std::size_t t = 0; t < nsteps; ++t) {
    const double z = x[step_row_[t]];
    if (z == 0) continue;
    scatter_axpy(x.data(), l_begin(t), l_len(t), z);
  }
  // R-file, oldest first: each row eta folds one retired U row into the
  // rows it was eliminated against.
  for (const RetaSpan& eta : retas_) {
    double acc = 0;
    for (std::uint32_t i = eta.begin; i < eta.end; ++i)
      acc += reta_pool_[i].value * x[reta_pool_[i].index];
    x[eta.row] -= acc;
  }
  // Stash the spike by swap — a subsequent update() replaces a column of
  // U with exactly this partial result, the U pass below reads it in
  // place, and x is rebuilt from scratch_ regardless.
  spike_.swap(x);
  spike_valid_ = true;
  spike_pattern_valid_ = false;
  // Back-substitution through U in reverse pivot order.
  scratch_.assign(m_, 0.0);
  for (std::size_t i = m_; i-- > 0;) {
    const std::uint32_t s = pivot_order_[i];
    double val = spike_[u_row_[s]];
    for (const Entry& e : u_rows_[s]) val -= e.value * scratch_[e.index];
    scratch_[u_pos_[s]] = val / u_pivot_[s];
  }
  x.swap(scratch_);
}

void BasisLu::btran(std::vector<double>& x) const {
  WANPLACE_REQUIRE(x.size() == m_, "btran dimension mismatch");
  // Forward substitution through U^T in pivot order (row-stored U applied
  // by scatter), result mapped to constraint rows.
  scratch_.assign(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const std::uint32_t s = pivot_order_[i];
    const double vt = x[u_pos_[s]] / u_pivot_[s];
    scratch_[u_row_[s]] = vt;
    if (vt == 0) continue;
    scatter_axpy(x.data(), u_rows_[s].data(), u_rows_[s].size(), vt);
  }
  // R-file transposed, newest first.
  for (auto it = retas_.rbegin(); it != retas_.rend(); ++it) {
    const double z = scratch_[it->row];
    if (z == 0) continue;
    scatter_axpy(scratch_.data(), reta_pool_.data() + it->begin,
                 it->end - it->begin, z);
  }
  // L^T, reverse elimination order, streaming the pooled arena.
  for (std::size_t t = steps_.size(); t-- > 0;) {
    double acc = scratch_[step_row_[t]];
    const Entry* le = l_begin(t);
    const std::size_t ln = l_len(t);
    for (std::size_t i = 0; i < ln; ++i)
      acc -= le[i].value * scratch_[le[i].index];
    scratch_[step_row_[t]] = acc;
  }
  x.swap(scratch_);
}

bool BasisLu::update(std::size_t position, double min_pivot) {
  WANPLACE_REQUIRE(position < m_, "basis update position out of range");
  WANPLACE_REQUIRE(spike_valid_,
                   "Forrest-Tomlin update needs the entering column's ftran "
                   "immediately before it");
  const std::uint32_t t = slot_of_pos_[position];
  const std::uint32_t target_row = u_row_[t];

  // --- Dry run: eliminate the retired U row t against the later rows in
  // pivot order that its sparsity actually reaches, collecting the
  // multipliers and the new diagonal, without mutating anything. The
  // reachable slots pop off a min-heap over the strictly increasing order
  // keys, i.e. in exactly the ascending pivot order the full later-slot
  // walk would visit them, and unreached slots hold exact zeros that walk
  // would skip — so multipliers, eta entry order, and the diagonal
  // accumulate bit-for-bit identically. On failure the factorization
  // stays valid.
  scratch_.assign(m_, 0.0);
  ensure_sparse_scratch();
  ++epoch_;
  worklist_.clear();
  const auto later_first = [this](std::uint32_t a, std::uint32_t b) {
    return order_key_[a] > order_key_[b];  // min-heap over order keys
  };
  for (const Entry& e : u_rows_[t]) {
    scratch_[e.index] = e.value;
    const std::uint32_t s = slot_of_pos_[e.index];
    if (stamp_[s] != epoch_) {
      stamp_[s] = epoch_;
      worklist_.push_back(s);
    }
  }
  std::make_heap(worklist_.begin(), worklist_.end(), later_first);
  double diag = spike_[target_row];
  double spike_max = std::abs(diag);
  if (spike_pattern_valid_) {
    // spike_ is zero outside its pattern, so the max over the pattern is
    // the max over all m rows.
    for (const std::uint32_t r : spike_pattern_)
      spike_max = std::max(spike_max, std::abs(spike_[r]));
  } else {
    for (std::size_t r = 0; r < m_; ++r)
      spike_max = std::max(spike_max, std::abs(spike_[r]));
  }
  RowEta eta;
  eta.row = target_row;
  while (!worklist_.empty()) {
    std::pop_heap(worklist_.begin(), worklist_.end(), later_first);
    const std::uint32_t s = worklist_.back();
    worklist_.pop_back();
    const double v = scratch_[u_pos_[s]];
    if (v == 0) continue;  // exact cancellation
    scratch_[u_pos_[s]] = 0;
    const double mult = v / u_pivot_[s];
    eta.entries.push_back({u_row_[s], mult});
    for (const Entry& e : u_rows_[s]) {
      scratch_[e.index] -= mult * e.value;
      const std::uint32_t s2 = slot_of_pos_[e.index];
      if (stamp_[s2] != epoch_) {
        stamp_[s2] = epoch_;
        worklist_.push_back(s2);
        std::push_heap(worklist_.begin(), worklist_.end(), later_first);
      }
    }
    diag -= mult * spike_[u_row_[s]];
  }
  spike_valid_ = false;
  if (!(std::abs(diag) > min_pivot) ||
      std::abs(diag) < kFtRelativeStability * spike_max)
    return false;

  // --- Apply. Drop the old column `position` from the rows ordered before
  // t (later rows cannot reference it: triangularity), retire row t's
  // entries (they now live in the R eta), splice the spike in as the new
  // column at `position`, and move slot t to the end of the pivot order.
  for (const std::uint32_t s : col_slots_[position]) {
    if (s == t) continue;
    auto& row = u_rows_[s];
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (row[i].index == position) {
        row[i] = row.back();
        row.pop_back();
        --u_nonzeros_;
        break;
      }
    }
  }
  col_slots_[position].clear();
  u_nonzeros_ -= u_rows_[t].size();
  u_rows_[t].clear();
  std::size_t spike_nnz = 0;
  // Splice the spike in as the new column. Ascending row order matters:
  // the entry push order into u_rows_ fixes the summation order of every
  // later dot against those rows, so the sparse stash must splice in the
  // same order the dense 0..m-1 scan would.
  const auto splice = [&](std::uint32_t r) {
    const double v = spike_[r];
    if (v == 0 || r == target_row) return;
    const std::uint32_t s = slot_of_row_[r];
    u_rows_[s].push_back({static_cast<std::uint32_t>(position), v});
    col_slots_[position].push_back(s);
    ++u_nonzeros_;
    ++spike_nnz;
  };
  if (spike_pattern_valid_) {
    std::sort(spike_pattern_.begin(), spike_pattern_.end());
    for (const std::uint32_t r : spike_pattern_) splice(r);
  } else {
    for (std::size_t r = 0; r < m_; ++r)
      splice(static_cast<std::uint32_t>(r));
  }
  u_pivot_[t] = diag;
  const std::uint32_t last = static_cast<std::uint32_t>(m_ - 1);
  if (order_pos_[t] != last) {
    // Slide the later slots down one place and append t at the end.
    const std::uint32_t from = order_pos_[t];
    std::copy(pivot_order_.begin() + from + 1, pivot_order_.end(),
              pivot_order_.begin() + from);
    pivot_order_[last] = t;
    for (std::uint32_t i = from; i < last; ++i)
      order_pos_[pivot_order_[i]] = i;
    order_pos_[t] = last;
    order_key_[t] = next_order_key_++;
  }
  if (obs::metrics_enabled()) {
    obs::histogram_record("lu.spike_len", static_cast<double>(spike_nnz));
    obs::histogram_record("lu.reta_len",
                          static_cast<double>(eta.entries.size()));
  }
  if (!eta.entries.empty()) {
    r_nonzeros_ += eta.entries.size();
    RetaSpan span;
    span.row = eta.row;
    span.begin = static_cast<std::uint32_t>(reta_pool_.size());
    reta_pool_.insert(reta_pool_.end(), eta.entries.begin(),
                      eta.entries.end());
    span.end = static_cast<std::uint32_t>(reta_pool_.size());
    retas_.push_back(span);
  }
  ++update_count_;
  return true;
}

void BasisLu::ensure_sparse_scratch() const {
  if (stamp_.size() != m_) {
    stamp_.assign(m_, 0);
    stamp2_.assign(m_, 0);
    result_.assign(m_, 0.0);
    epoch_ = 0;
  }
}

void BasisLu::stash_spike_sparse(
    const std::vector<double>& x,
    const std::vector<std::uint32_t>& pattern) const {
  if (spike_pattern_valid_ && spike_.size() == m_) {
    for (const std::uint32_t r : spike_pattern_) spike_[r] = 0.0;
  } else {
    spike_.assign(m_, 0.0);
  }
  spike_pattern_.assign(pattern.begin(), pattern.end());
  for (const std::uint32_t r : spike_pattern_) spike_[r] = x[r];
  spike_pattern_valid_ = true;
  spike_valid_ = true;
}

bool BasisLu::ftran_sparse(std::vector<double>& x,
                           std::vector<std::uint32_t>& pattern,
                           double density_threshold) const {
  WANPLACE_REQUIRE(x.size() == m_, "ftran dimension mismatch");
  if (m_ == 0) {
    ftran(x);
    return false;
  }
  const std::size_t cap = static_cast<std::size_t>(
      density_threshold * static_cast<double>(m_));
  if (pattern.size() > cap) {
    ftran(x);
    return false;
  }
  ensure_sparse_scratch();

  // --- L pass. Symbolic: each constraint row is retired by exactly one
  // elimination step, and a step can only produce nonzeros in the rows its
  // l_entries scatter into — the reachability closure over that graph is a
  // superset of every row the dense loop would touch with a nonzero z.
  ++epoch_;
  for (const std::uint32_t r : pattern) stamp_[r] = epoch_;
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    const std::uint32_t t = slot_of_row_[pattern[i]];
    const Entry* le = l_begin(t);
    const std::size_t ln = l_len(t);
    for (std::size_t k = 0; k < ln; ++k) {
      if (stamp_[le[k].index] != epoch_) {
        stamp_[le[k].index] = epoch_;
        pattern.push_back(le[k].index);
      }
    }
    if (pattern.size() > cap) {
      // Nothing mutated yet: the whole solve falls back to the dense path.
      ftran(x);
      return false;
    }
  }
  // Numeric: the dense loop's arithmetic over just the reachable steps, in
  // the same ascending step order (the z == 0 skip included).
  active_.clear();
  for (const std::uint32_t r : pattern) active_.push_back(slot_of_row_[r]);
  std::sort(active_.begin(), active_.end());
  for (const std::uint32_t t : active_) {
    const double z = x[step_row_[t]];
    if (z == 0) continue;
    scatter_axpy(x.data(), l_begin(t), l_len(t), z);
  }

  // --- R pass, oldest first. An eta whose entries all sit outside the
  // pattern accumulates an exact zero in the dense loop; skipping it (and
  // zero accumulations in general) can only change signs of zeros.
  for (const RetaSpan& eta : retas_) {
    bool hit = false;
    for (std::uint32_t i = eta.begin; i < eta.end; ++i) {
      if (stamp_[reta_pool_[i].index] == epoch_) {
        hit = true;
        break;
      }
    }
    if (!hit) continue;
    double acc = 0;
    for (std::uint32_t i = eta.begin; i < eta.end; ++i)
      acc += reta_pool_[i].value * x[reta_pool_[i].index];
    if (acc == 0) continue;
    x[eta.row] -= acc;
    if (stamp_[eta.row] != epoch_) {
      stamp_[eta.row] = epoch_;
      pattern.push_back(eta.row);
    }
  }

  // --- Spike stash + U back-substitution. Symbolic: slot s can compute a
  // nonzero only when its row's RHS is nonzero or some already-active slot
  // feeds the positions its row references; readers of position p are the
  // col_slots_[p] occupancy list (a lazily stale superset — false
  // activations compute exact zeros).
  bool dense_u = pattern.size() > cap;
  if (!dense_u) {
    stash_spike_sparse(x, pattern);
    ++epoch_;
    active_.clear();
    for (const std::uint32_t r : pattern) {
      const std::uint32_t s = slot_of_row_[r];
      if (stamp_[s] != epoch_) {
        stamp_[s] = epoch_;
        active_.push_back(s);
      }
    }
    for (std::size_t i = 0; i < active_.size() && !dense_u; ++i) {
      for (const std::uint32_t s2 : col_slots_[u_pos_[active_[i]]]) {
        if (stamp_[s2] != epoch_) {
          stamp_[s2] = epoch_;
          active_.push_back(s2);
        }
      }
      dense_u = active_.size() > cap;
    }
  } else {
    // Stash by swap; the dense U pass below reads spike_ in place.
    spike_.swap(x);
    spike_pattern_valid_ = false;
  }
  if (dense_u) {
    if (spike_pattern_valid_) {
      // The closure (not the stash) crossed the threshold: re-stash dense.
      // x is still the full partial result here (the sparse stash copied,
      // it did not consume).
      spike_ = x;
      spike_pattern_valid_ = false;
    }
    spike_valid_ = true;
    scratch_.assign(m_, 0.0);
    for (std::size_t i = m_; i-- > 0;) {
      const std::uint32_t s = pivot_order_[i];
      double val = spike_[u_row_[s]];
      for (const Entry& e : u_rows_[s]) val -= e.value * scratch_[e.index];
      scratch_[u_pos_[s]] = val / u_pivot_[s];
    }
    x.swap(scratch_);
    return false;
  }
  // Numeric: reverse pivot order over the active slots only. Entries whose
  // producing slot is inactive read an exact zero from result_, just as
  // the dense loop reads the zero it computed into scratch_.
  std::sort(active_.begin(), active_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return order_key_[a] > order_key_[b];
            });
  for (const std::uint32_t s : active_) {
    double val = x[u_row_[s]];
    for (const Entry& e : u_rows_[s]) val -= e.value * result_[e.index];
    result_[u_pos_[s]] = val / u_pivot_[s];
  }
  // Hand the result back through x: clear the consumed row-space values
  // first (row and position index ranges overlap), then move the position-
  // space result out of result_, restoring its all-zero invariant.
  for (const std::uint32_t r : pattern) x[r] = 0.0;
  pattern.clear();
  for (const std::uint32_t s : active_) {
    const std::uint32_t p = u_pos_[s];
    x[p] = result_[p];
    result_[p] = 0.0;
    pattern.push_back(p);
  }
  return true;
}

bool BasisLu::btran_sparse(std::vector<double>& x,
                           std::vector<std::uint32_t>& pattern,
                           double density_threshold) const {
  WANPLACE_REQUIRE(x.size() == m_, "btran dimension mismatch");
  if (m_ == 0) {
    btran(x);
    return false;
  }
  const std::size_t cap = static_cast<std::size_t>(
      density_threshold * static_cast<double>(m_));
  if (pattern.size() > cap) {
    btran(x);
    return false;
  }
  ensure_sparse_scratch();

  // --- U^T pass. Symbolic closure in position space: the slot owning an
  // active position scatters into the positions its row references.
  ++epoch_;
  worklist_.assign(pattern.begin(), pattern.end());
  for (const std::uint32_t p : pattern) stamp_[p] = epoch_;
  active_.clear();
  for (std::size_t i = 0; i < worklist_.size(); ++i) {
    const std::uint32_t s = slot_of_pos_[worklist_[i]];
    active_.push_back(s);
    for (const Entry& e : u_rows_[s]) {
      if (stamp_[e.index] != epoch_) {
        stamp_[e.index] = epoch_;
        worklist_.push_back(e.index);
      }
    }
    if (worklist_.size() > cap) {
      btran(x);  // nothing mutated yet
      return false;
    }
  }
  // Numeric: ascending pivot order over the active slots; identical
  // divide/scatter arithmetic, results landing in the zero-background
  // result_ in row space.
  std::sort(active_.begin(), active_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return order_key_[a] < order_key_[b];
            });
  for (const std::uint32_t s : active_) {
    const double vt = x[u_pos_[s]] / u_pivot_[s];
    result_[u_row_[s]] = vt;
    if (vt == 0) continue;
    scatter_axpy(x.data(), u_rows_[s].data(), u_rows_[s].size(), vt);
  }
  // x is consumed; return it to all-zero before the row-space result comes
  // back through it.
  for (const std::uint32_t p : worklist_) x[p] = 0.0;

  // --- R^T pass, newest first. A row outside the pattern holds an exact
  // zero, which the dense loop's own z == 0 check would skip too.
  ++epoch_;
  pattern.clear();
  for (const std::uint32_t s : active_) {
    const std::uint32_t r = u_row_[s];
    stamp_[r] = epoch_;
    pattern.push_back(r);
  }
  for (auto it = retas_.rbegin(); it != retas_.rend(); ++it) {
    if (stamp_[it->row] != epoch_) continue;
    const double z = result_[it->row];
    if (z == 0) continue;
    for (std::uint32_t i = it->begin; i < it->end; ++i) {
      const Entry& e = reta_pool_[i];
      result_[e.index] -= e.value * z;
      if (stamp_[e.index] != epoch_) {
        stamp_[e.index] = epoch_;
        pattern.push_back(e.index);
      }
    }
  }

  // --- L^T pass. Symbolic: a step participates when any of the rows its
  // l_entries read is active, and then its pivot row becomes active.
  active_.clear();
  bool dense_l = pattern.size() > cap;
  for (std::size_t i = 0; i < pattern.size() && !dense_l; ++i) {
    for (const std::uint32_t t : row_l_steps_[pattern[i]]) {
      if (stamp2_[t] != epoch_) {
        stamp2_[t] = epoch_;
        active_.push_back(t);
        const std::uint32_t pr = step_row_[t];
        if (stamp_[pr] != epoch_) {
          stamp_[pr] = epoch_;
          pattern.push_back(pr);
        }
      }
    }
    dense_l = pattern.size() > cap;
  }
  if (dense_l) {
    // result_ is a valid dense row-space vector: finish with the dense
    // L^T sweep, then swap it out through x (all-zero by now, so the swap
    // also restores result_'s invariant).
    for (std::size_t t = steps_.size(); t-- > 0;) {
      double acc = result_[step_row_[t]];
      const Entry* le = l_begin(t);
      const std::size_t ln = l_len(t);
      for (std::size_t i = 0; i < ln; ++i)
        acc -= le[i].value * result_[le[i].index];
      result_[step_row_[t]] = acc;
    }
    x.swap(result_);
    return false;
  }
  // Numeric: descending step order over the active steps. Skipped steps
  // subtract only exact-zero terms in the dense loop.
  std::sort(active_.begin(), active_.end(), std::greater<std::uint32_t>());
  for (const std::uint32_t t : active_) {
    double acc = result_[step_row_[t]];
    const Entry* le = l_begin(t);
    const std::size_t ln = l_len(t);
    for (std::size_t i = 0; i < ln; ++i)
      acc -= le[i].value * result_[le[i].index];
    result_[step_row_[t]] = acc;
  }
  for (const std::uint32_t r : pattern) {
    x[r] = result_[r];
    result_[r] = 0.0;
  }
  return true;
}

std::size_t BasisLu::factor_nonzeros() const {
  return l_nonzeros_ + u_nonzeros_ + m_;
}

}  // namespace wanplace::lp
