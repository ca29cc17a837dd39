// Layer probes shared by the workloads: LU kernel timings, set-up step
// medians and the metrics-export timing.
#include <sstream>

#include "lp/lu.h"
#include "obs/export.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace wp = wanplace;

LuKernels time_lu_kernels(const wp::lp::LpModel& model,
                          const wp::lp::BasisSnapshot& basis) {
  using Entry = wp::lp::BasisLu::Entry;
  LuKernels out;
  const std::size_t n = model.variable_count();
  const std::size_t m = model.row_count();
  if (!basis.compatible(n, m)) return out;

  std::vector<std::vector<Entry>> structural(n);
  for (std::size_t r = 0; r < m; ++r) {
    const auto& row = model.row(r);
    for (std::size_t t = 0; t < row.cols.size(); ++t)
      structural[row.cols[t]].push_back(
          {static_cast<std::uint32_t>(r), row.coeffs[t]});
  }
  std::vector<std::vector<Entry>> columns(m);
  std::vector<bool> in_basis(n, false);
  for (std::size_t p = 0; p < m; ++p) {
    const std::uint32_t j = basis.basis[p];
    if (j == wp::lp::BasisSnapshot::kArtificialBasic)
      columns[p] = {{static_cast<std::uint32_t>(p), 1.0}};
    else if (j < n) {
      columns[p] = structural[j];
      in_basis[j] = true;
    } else
      columns[p] = {{static_cast<std::uint32_t>(j - n), 1.0}};
  }

  constexpr int kFactorizeReps = 15;
  constexpr int kSolveReps = 64;
  wp::lp::BasisLu lu;
  std::vector<double> factorize_ms;
  for (int rep = 0; rep < kFactorizeReps; ++rep) {
    Timer timer;
    const bool ok =
        lu.factorize(m, columns, 0.1, wp::lp::BasisLu::UpdateMode::ForrestTomlin);
    factorize_ms.push_back(timer.ms());
    if (!ok) return out;
  }
  out.factorize_ms = median(factorize_ms);

  // FTRAN the columns of nonbasic structurals (the entering-column solve),
  // BTRAN unit vectors (the pivot-row solve), each from a fixed seed.
  std::vector<std::size_t> nonbasic;
  for (std::size_t j = 0; j < n; ++j)
    if (!in_basis[j] && !structural[j].empty()) nonbasic.push_back(j);
  wp::Rng rng(0xF7A5);
  std::vector<double> ftran_us, btran_us;
  std::vector<double> x(m);
  for (int rep = 0; rep < kSolveReps && !nonbasic.empty(); ++rep) {
    std::fill(x.begin(), x.end(), 0.0);
    for (const auto& e : structural[nonbasic[rng.uniform_index(nonbasic.size())]])
      x[e.index] = e.value;
    Timer ftran;
    lu.ftran(x);
    ftran_us.push_back(1e3 * ftran.ms());

    std::fill(x.begin(), x.end(), 0.0);
    x[rng.uniform_index(m)] = 1.0;
    Timer btran;
    lu.btran(x);
    btran_us.push_back(1e3 * btran.ms());
  }
  out.ftran_us = median(ftran_us);
  out.btran_us = median(btran_us);
  out.ok = true;
  return out;
}

void set_load_metrics(const std::vector<LoadTimes>& times, Sheet& sheet) {
  std::vector<double> topology, trace, events, aggregate;
  for (const auto& t : times) {
    topology.push_back(t.topology_ms);
    trace.push_back(t.trace_ms);
    events.push_back(t.events_ms);
    aggregate.push_back(t.aggregate_ms);
  }
  sheet.set("graph.load_topology_ms", median(topology), "ms");
  sheet.set("workload.load_trace_ms", median(trace), "ms");
  sheet.set("workload.load_events_ms", median(events), "ms");
  sheet.set("workload.aggregate_ms", median(aggregate), "ms");
}

double time_export_ms(int reps) {
  std::vector<double> ms;
  std::ostringstream sink;
  for (int rep = 0; rep < reps; ++rep) {
    sink.str(std::string());
    Timer timer;
    wp::obs::export_metrics(sink, wp::obs::MetricsFormat::Prometheus,
                            wp::obs::Registry::global().snapshot());
    ms.push_back(timer.ms());
  }
  return median(ms);
}

}  // namespace perfbench
