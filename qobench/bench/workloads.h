// The three qobench workloads. Each builds its inputs from the seed, drives
// the program through its public entry points, checks the outputs and fills
// a Result (end-to-end metrics untraced, per-layer metrics when tracing).
#ifndef QOBENCH_WORKLOADS_H_
#define QOBENCH_WORKLOADS_H_

#include "common.h"

namespace qobench {

Result RunPipelineRecurring(const Options& options);
Result RunPipelineAdhoc(const Options& options);
Result RunServiceMixed(const Options& options);

/// Adds the registry series that the live engines' and pipelines'
/// collectors export (cache, memo, exec and SIS counters) to `counts`.
/// Call before the round's objects are destroyed: the counters die with
/// them.
void AddSeriesCounts(std::map<std::string, double>* counts);

/// Per-layer metrics shared by every workload: the self-time ledger from the
/// trace, normalized per round, plus `counts` (already per round).
void ReportLedger(double timed_cpu_s,
                  const std::map<std::string, double>& counts,
                  Result* result);

}  // namespace qobench

#endif  // QOBENCH_WORKLOADS_H_
