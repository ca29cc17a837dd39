// The benchmark's workloads and the layer probes they share.
#pragma once

#include "common.h"
#include "inputs.h"
#include "lp/model.h"

namespace perfbench {

/// select-q99: HeuristicSelector::select on the case study at tqos 0.99.
void run_select(const Args& args, const WorkloadSpec& spec,
                const InputFiles& files, Sheet& sheet);

/// serve-demand / serve-churn: a PlacementDaemon fed the events script
/// through on_event (demand) or on_batch in bursts (churn).
void run_serve(const Args& args, const WorkloadSpec& spec,
               const InputFiles& files, Sheet& sheet);

/// Kernel timings of lp::BasisLu on an optimal basis of `model`: the basis
/// matrix is assembled from `basis` and the model's columns exactly as the
/// simplex assembles it (structural columns, +1 slacks, +1 artificials),
/// then factorized and solved against repeatedly. Medians.
struct LuKernels {
  double factorize_ms = 0;
  double ftran_us = 0;
  double btran_us = 0;
  bool ok = false;  // the basis factorized (it is optimal, so it must)
};
LuKernels time_lu_kernels(const wanplace::lp::LpModel& model,
                          const wanplace::lp::BasisSnapshot& basis);

/// Median set-up step times over the measured set-up repetitions.
void set_load_metrics(const std::vector<LoadTimes>& times, Sheet& sheet);

/// Median wall time of a Prometheus export of the registry's current
/// snapshot, in milliseconds.
double time_export_ms(int reps);

}  // namespace perfbench
