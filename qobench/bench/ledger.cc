// The per-layer report: self times from the trace, grouped by layer, plus
// the layers' work counts. Every workload prints the same list (zero where
// a layer does no work on that workload).
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "workloads.h"

namespace qobench {
namespace {

/// Self-time metric <- the span names whose exclusive time it sums. Names
/// starting "bench." are the benchmark's own spans around public calls;
/// the rest are the program's existing spans.
const std::pair<const char*, std::vector<const char*>> kSelfTimes[] = {
    {"workload.day_jobs_s", {"bench.day_jobs"}},
    {"sis.lookup_s", {"bench.sis_lookup"}},
    {"telemetry.view_row_s", {"bench.view_row"}},
    {"engine.run_s", {"bench.engine_run"}},
    {"scope.parse_s", {"parse"}},
    {"optimizer.search_s", {"optimize"}},
    {"cache.self_s", {"compile"}},
    {"exec.execute_s", {"execute", "exec.run_batch", "exec.prepare"}},
    {"core.run_day_s", {"run_day", "bench.run_day"}},
    {"core.feature_gen_s", {"feature_gen"}},
    {"core.recommend_s", {"recommend"}},
    {"core.validate_s", {"validate"}},
    {"core.hint_gen_s", {"hint_gen"}},
    {"bandit.rank_s", {"rank"}},
    {"bandit.reward_s", {"reward"}},
    {"bandit.retrain_s", {"retrain"}},
    {"flighting.flight_s", {"flight"}},
    {"service.compile_s", {"bench.svc_compile"}},
    {"service.rank_s", {"bench.svc_rank"}},
    {"service.reward_s", {"bench.svc_reward"}},
    {"service.upload_s", {"bench.svc_upload"}},
    {"service.train_publish_s", {"bench.svc_train"}},
    {"bench.self_s",
     {"bench.setup", "bench.day", "bench.production", "bench.ab_eval",
      "bench.teardown"}},
};

/// Count metric <- the span whose occurrences it counts.
const std::pair<const char*, const char*> kSpanCounts[] = {
    {"sis.lookups", "bench.sis_lookup"},
    {"engine.run_calls", "bench.engine_run"},
    {"engine.compile_calls", "compile"},
    {"scope.parses", "parse"},
    {"optimizer.searches", "optimize"},
    {"bandit.ranks", "rank"},
    {"bandit.rewards", "reward"},
    {"bandit.retrains", "retrain"},
};

/// Every per-layer metric with its unit, in report order. Counts and times
/// are per round.
const std::pair<const char*, const char*> kPerLayer[] = {
    {"workload.day_jobs_s", "s"},
    {"sis.lookups", "count"},
    {"sis.lookup_s", "s"},
    {"sis.uploads", "count"},
    {"telemetry.view_row_s", "s"},
    {"engine.run_calls", "count"},
    {"engine.run_s", "s"},
    {"engine.compile_calls", "count"},
    {"engine.compile_p99_us", "us"},
    {"scope.parses", "count"},
    {"scope.parse_s", "s"},
    {"optimizer.searches", "count"},
    {"optimizer.search_s", "s"},
    {"optimizer.memo_full_hits", "count"},
    {"optimizer.memo_norm_hits", "count"},
    {"optimizer.memo_misses", "count"},
    {"cache.self_s", "s"},
    {"cache.l1_hits", "count"},
    {"cache.l1_misses", "count"},
    {"cache.l1_evictions", "count"},
    {"cache.l2_hits", "count"},
    {"cache.l2_misses", "count"},
    {"cache.l2_evictions", "count"},
    {"cache.l2_lookups", "count"},
    {"cache.l2_hit_ratio", "ratio"},
    {"cache.l2_entries", "count"},
    {"exec.runs", "count"},
    {"exec.prepares", "count"},
    {"exec.profile_hits", "count"},
    {"exec.execute_s", "s"},
    {"core.run_day_s", "s"},
    {"core.feature_gen_s", "s"},
    {"core.recommend_s", "s"},
    {"core.validate_s", "s"},
    {"core.hint_gen_s", "s"},
    {"core.features_emitted", "count"},
    {"core.recompiles", "count"},
    {"core.recompile_failures", "count"},
    {"core.forwarded", "count"},
    {"core.hints_uploaded", "count"},
    {"core.hints_per_flight", "ratio"},
    {"bandit.ranks", "count"},
    {"bandit.rank_s", "s"},
    {"bandit.rewards", "count"},
    {"bandit.reward_s", "s"},
    {"bandit.retrains", "count"},
    {"bandit.retrain_s", "s"},
    {"flighting.requests", "count"},
    {"flighting.flights", "count"},
    {"flighting.flight_s", "s"},
    {"flighting.budget_hours", "h"},
    {"guard.reverts", "count"},
    {"guard.blocked", "count"},
    {"pipeline.pn_hours_saved", "PNh"},
    {"pipeline.ab_pairs", "count"},
    {"pipeline.hint_fallbacks", "count"},
    {"runtime.cpu_per_wall", "ratio"},
    {"runtime.busy_s", "s"},
    {"runtime.caller_wait_s", "s"},
    {"service.compile_s", "s"},
    {"service.rank_s", "s"},
    {"service.reward_s", "s"},
    {"service.upload_s", "s"},
    {"service.train_publish_s", "s"},
    {"service.compiles_hinted", "count"},
    {"service.publications", "count"},
    {"service.hint_fallbacks", "count"},
    {"service.qps", "1/s"},
    {"service.rank_p50_us", "us"},
    {"service.rank_p99_us", "us"},
    {"service.reward_p50_us", "us"},
    {"service.publish_p50_us", "us"},
    {"bench.self_s", "s"},
    {"other.self_s", "s"},
    {"process.cpu_s", "s"},
    {"trace.events", "count"},
};

}  // namespace

void AddSeriesCounts(std::map<std::string, double>* counts) {
  const qo::obs::MetricsSnapshot snap = qo::obs::Registry::Get().Snapshot();
  const std::pair<const char*, const char*> series[] = {
      {"cache.l1_hits", "cache.front_end.hits"},
      {"cache.l1_misses", "cache.front_end.misses"},
      {"cache.l1_evictions", "cache.front_end.evictions"},
      {"cache.l2_hits", "cache.compilations.hits"},
      {"cache.l2_misses", "cache.compilations.misses"},
      {"cache.l2_evictions", "cache.compilations.evictions"},
      {"cache.l2_entries", "cache.compilations.entries"},
      {"optimizer.memo_full_hits", "optimizer.memo.full_hits"},
      {"optimizer.memo_norm_hits", "optimizer.memo.norm_hits"},
      {"optimizer.memo_misses", "optimizer.memo.misses"},
      {"exec.prepares", "exec.prepares"},
      {"exec.profile_hits", "exec.profile_hits"},
      {"exec.runs", "exec.prepared_runs"},
      {"exec.runs", "exec.unprepared_runs"},
      {"sis.uploads", "sis.version"},
  };
  for (const auto& [name, source] : series) {
    (*counts)[name] += snap.SeriesValue(source);
  }
}

void ReportLedger(double timed_cpu_s,
                  const std::map<std::string, double>& counts,
                  Result* result) {
  qo::obs::FlushTraceNow();
  const Ledger ledger = ReadLedger(qo::obs::TracePath());
  result->Check(ledger.ok, "could not read the trace " + qo::obs::TracePath());
  const double rounds = result->rounds > 0 ? result->rounds : 1;

  std::map<std::string, double> values = counts;
  double attributed = 0.0;
  for (const auto& [metric, spans] : kSelfTimes) {
    double s = 0.0;
    for (const char* span : spans) {
      auto it = ledger.self_s.find(span);
      if (it != ledger.self_s.end()) s += it->second;
    }
    attributed += s;
    values[metric] = s / rounds;
  }
  for (const auto& [metric, span] : kSpanCounts) {
    auto it = ledger.count.find(span);
    values[metric] =
        it == ledger.count.end() ? 0.0 : static_cast<double>(it->second) / rounds;
  }
  const double l2 = values["cache.l2_hits"] + values["cache.l2_misses"];
  values["cache.l2_lookups"] = l2;
  values["cache.l2_hit_ratio"] = l2 > 0 ? values["cache.l2_hits"] / l2 : 0.0;
  const double requests = values["flighting.requests"];
  values["core.hints_per_flight"] =
      requests > 0 ? values["core.hints_uploaded"] / requests : 0.0;
  values["runtime.cpu_per_wall"] =
      result->timed_wall_s > 0 ? timed_cpu_s / result->timed_wall_s : 0.0;
  values["runtime.busy_s"] = ledger.busy_s / rounds;
  values["runtime.caller_wait_s"] = ledger.caller_wait_s / rounds;
  // Spans the table above does not name count as "other" too.
  values["other.self_s"] = (timed_cpu_s - attributed) / rounds;
  values["process.cpu_s"] = timed_cpu_s / rounds;
  values["trace.events"] = static_cast<double>(ledger.events) / rounds;

  for (const auto& [name, unit] : kPerLayer) {
    auto it = values.find(name);
    result->Metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

}  // namespace qobench
