// qobench: one workload per run, selected by name.
//
//   qobench --workload <pipeline_recurring|pipeline_adhoc|service_mixed>
//           --seed <n> --seconds <s> [--rounds <n>]
//
// Prints one JSON line: correctness, attempted/failed operations, rounds,
// the host stamp and the metrics. QO_METRICS selects the untraced
// (end-to-end) or traced (per-layer, needs QO_TRACE) report; no other QO_*
// variable may be set, so the program measured is always the default one.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads.h"

extern char** environ;

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "qobench: %s\nusage: qobench --workload <name> --seed <n> "
               "--seconds <s> [--rounds <n>]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string var = *env;
    if (var.rfind("QO_", 0) == 0 && var.rfind("QO_METRICS=", 0) != 0 &&
        var.rfind("QO_TRACE=", 0) != 0) {
      return Usage(("refusing to run with " + var).c_str());
    }
  }
  qobench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--rounds") {
      options.rounds = std::atoi(value);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  options.trace = qo::obs::TraceEnabled();
  if (qo::obs::MetricsEnabled() && !options.trace) {
    return Usage("QO_METRICS=1 needs QO_TRACE (the per-layer report)");
  }

  qobench::Result result;
  if (options.workload == "pipeline_recurring") {
    result = qobench::RunPipelineRecurring(options);
  } else if (options.workload == "pipeline_adhoc") {
    result = qobench::RunPipelineAdhoc(options);
  } else if (options.workload == "service_mixed") {
    result = qobench::RunServiceMixed(options);
  } else {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}
