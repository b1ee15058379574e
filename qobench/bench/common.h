// Shared pieces of the qobench program: clocks, exact quantiles, the result
// record every workload fills, the benchmark's own trace spans, and the
// self-time ledger computed from the program's Chrome trace.
#ifndef QOBENCH_COMMON_H_
#define QOBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qobench {

// ---------------------------------------------------------------------------
// Clocks. Wall time is std::chrono::steady_clock, CPU time is the process
// CPU clock (all threads).
// ---------------------------------------------------------------------------
uint64_t NowNs();
double ProcessCpuS();
double PeakRssMb();

/// Exact order statistics over the samples the benchmark took itself.
double Median(std::vector<double> v);
/// Nearest-rank quantile, q in (0, 1].
double Quantile(std::vector<double> v, double q);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// > 0: run exactly this many rounds instead of filling `seconds`.
  int rounds = 0;
  /// True when QO_METRICS=1 and QO_TRACE point the program at a trace file.
  bool trace = false;
};

/// What one workload run reports. Metrics are (value, unit) by name.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int rounds = 0;
  double timed_wall_s = 0.0;
  /// Wall time of the measured work alone (days or serving), all rounds.
  double work_wall_s = 0.0;
  std::vector<std::string> errors;  ///< first few failed checks
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::string> stamp;

  /// Records a failed output check (keeps going; `correct` turns false).
  void Check(bool ok, const std::string& what);
  void Metric(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;
};

// ---------------------------------------------------------------------------
// The benchmark's own spans: recorded into the program's trace (same clock,
// same per-thread ids) only while tracing, so the ledger can nest the
// program's spans under the public calls the benchmark made. Names must be
// string literals.
// ---------------------------------------------------------------------------
bool Tracing();

class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t start_ns_ = 0;
};

/// Exclusive ("self") time per span name from the trace file, restricted to
/// the interval of the "bench.timed" span. Children are the spans nested
/// inside a span on the same thread. The thread that recorded
/// "bench.timed" is the caller: its exclusive time that overlaps work on
/// any other thread is taken as waiting for that work (the parallel
/// runtime's caller blocks while its pool runs) and is reported apart from
/// busy time.
struct Ledger {
  std::map<std::string, double> self_s;   ///< busy self time by span name
  std::map<std::string, uint64_t> count;  ///< spans by name
  double caller_wait_s = 0.0;
  double busy_s = 0.0;  ///< all busy self time, summed across threads
  size_t events = 0;
  bool ok = false;
};
Ledger ReadLedger(const std::string& trace_path);

/// Host and build stamp (nproc, CPU model, compiler, build type).
void StampHost(Result* result);

}  // namespace qobench

#endif  // QOBENCH_COMMON_H_
