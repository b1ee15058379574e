// pipeline_recurring and pipeline_adhoc: production days (every submitted
// job compiled under the published hints and executed) feeding the daily
// QO-Advisor pipeline, followed on evaluation days by a paired
// default/hinted A/B of every hint-matched job.
//
// One round runs a fixed number of virtual clusters one after another. Each
// cluster has its own seeded workload (its own template population), SCOPE
// engine, SIS and pipeline, and runs a fixed schedule of training days and
// evaluation days. Rounds repeat until the run's time is used, so every run
// does whole rounds of identical work and every round must reproduce the
// first round's outputs exactly.
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "engine/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/rules.h"
#include "runtime/runtime.h"
#include "sis/sis.h"
#include "telemetry/workload_view.h"
#include "workload/workload.h"
#include "workloads.h"

namespace qobench {
namespace {

namespace opt = qo::opt;
namespace workload = qo::workload;

struct PipelineSpec {
  const char* name;
  int threads;
  int clusters;
  workload::WorkloadConfig inputs;  ///< seed is filled from the run's seed
  int train_days;
  int eval_days;
  /// Some cluster must publish a hint. Holds for the recurring traffic on
  /// every seed; mostly one-off traffic publishes none on some seeds (the
  /// flights validate no gain), which is an outcome of the method.
  bool expect_hints;
};

/// One production run: the SCOPE compile (under the template's hint, falling
/// back to the default configuration when the hinted one cannot compile)
/// and one execution.
struct ProductionRun {
  std::shared_ptr<const opt::CompilationOutput> compilation;
  qo::exec::JobMetrics metrics;
  opt::RuleConfig config = opt::RuleConfig::Default();
  double compile_us = 0.0;
  bool fallback = false;
  bool ok = false;
};

/// Paired A/B of one hint-matched job on an evaluation day.
struct AbPair {
  workload::JobInstance job;
  opt::RuleConfig hinted = opt::RuleConfig::Default();
  uint64_t salt = 0;
  qo::exec::JobMetrics base;
  qo::exec::JobMetrics cand;
  bool ok = false;
};

void RunAb(const qo::engine::ScopeEngine& engine, AbPair* pair) {
  Span span("bench.engine_run");
  auto base = engine.Run(pair->job, opt::RuleConfig::Default(),
                         pair->salt * 2 + 1);
  auto cand = engine.Run(pair->job, pair->hinted, pair->salt * 2 + 2);
  pair->ok = base.ok() && cand.ok();
  if (pair->ok) {
    pair->base = base->metrics;
    pair->cand = cand->metrics;
  }
}

/// What one cluster's schedule produced; repeated rounds and the serial
/// rerun must reproduce it exactly.
struct ClusterOutput {
  std::vector<std::string> report_lines;
  std::string hint_set;
  double pn_saved = 0.0;
  size_t ab_pairs = 0;
  size_t ab_skipped = 0;  ///< hinted configuration cannot compile this job

  bool operator==(const ClusterOutput&) const = default;
};

/// Everything one round produced.
struct RoundOutput {
  std::vector<double> setup_s;  ///< one per cluster
  std::vector<double> day_wall_s;
  std::vector<double> day_jobs_per_s;
  double day_cpu_s = 0.0;
  double day_wall_total_s = 0.0;
  std::vector<ClusterOutput> clusters;
  uint64_t jobs = 0;
  uint64_t jobs_failed = 0;
  uint64_t fallbacks = 0;
  uint64_t days = 0;
  uint64_t days_failed = 0;
  std::vector<double> compile_us;
  std::map<std::string, double> counts;  ///< per-layer counts of the round
};

std::string HintSet(const qo::sis::StatsInsightService& sis) {
  std::string out;
  const auto view = sis.BuildSnapshotView();
  for (const qo::sis::HintEntry& e : view->entries()) {
    out += e.template_name + ":" + std::to_string(e.rule_id) +
           (e.enable ? ":on;" : ":off;");
  }
  return out;
}

void AddReportCounts(const qo::advisor::PipelineDayReport& r,
                     std::map<std::string, double>* c) {
  const auto& rec = r.recommender;
  (*c)["core.features_emitted"] += static_cast<double>(r.feature_gen.emitted);
  (*c)["core.recompiles"] += static_cast<double>(
      rec.lower_cost + rec.higher_cost + rec.recompile_failures +
      (rec.equal_cost - rec.noop_chosen));
  (*c)["core.recompile_failures"] +=
      static_cast<double>(rec.recompile_failures);
  (*c)["core.forwarded"] += static_cast<double>(rec.forwarded);
  (*c)["core.hints_uploaded"] += static_cast<double>(r.hints_uploaded);
  (*c)["flighting.requests"] += static_cast<double>(r.flight_requests);
  (*c)["flighting.flights"] += static_cast<double>(
      r.flights_success + r.flights_failure + r.flights_timeout);
  (*c)["flighting.budget_hours"] += r.flight_budget_used_hours;
  (*c)["guard.reverts"] += static_cast<double>(r.hints_reverted);
  (*c)["guard.blocked"] +=
      static_cast<double>(r.quarantine_blocked + r.breaker_blocked);
}

/// Compilations of a seeded sample of production jobs, compared against a
/// fresh engine built with the compile cache off.
struct CompileSample {
  workload::JobInstance job;
  opt::RuleConfig config = opt::RuleConfig::Default();
};

/// Each cluster's workload has its own template population.
uint64_t ClusterSeed(uint64_t seed, int cluster) {
  return seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(cluster) + 1;
}

/// One virtual cluster: its workload, its SCOPE engine (with its compile
/// cache), its SIS and its daily pipeline. The round's thread pool is shared
/// by every cluster.
struct Cluster {
  std::unique_ptr<workload::WorkloadDriver> driver;
  std::unique_ptr<qo::engine::ScopeEngine> engine;
  std::unique_ptr<qo::sis::StatsInsightService> sis;
  std::unique_ptr<qo::advisor::QoAdvisorPipeline> pipeline;
};

class PipelineRound {
 public:
  /// `only_cluster` >= 0 runs that one cluster alone (the serial rerun).
  PipelineRound(const PipelineSpec& spec, uint64_t seed, int threads,
                bool collect_counts, int only_cluster = -1)
      : spec_(spec), seed_(seed), threads_(threads),
        collect_counts_(collect_counts), only_cluster_(only_cluster) {}

  /// Runs the whole round. `checks` (may be null) receives the output checks
  /// that need the round's live engine and pipelines.
  RoundOutput Run(Result* checks) {
    RoundOutput out;
    runtime_ = std::make_unique<qo::runtime::ParallelRuntime>(
        qo::runtime::RuntimeOptions{.num_threads = threads_});
    config_.runtime.num_threads = threads_;
    config_.guard = qo::guard::GuardConfig{};
    config_.guard.enabled = true;
    for (int k = 0; k < spec_.clusters; ++k) {
      if (only_cluster_ >= 0 && k != only_cluster_) continue;
      const uint64_t setup_start = NowNs();
      Cluster c;
      {
        Span span("bench.setup");
        workload::WorkloadConfig inputs = spec_.inputs;
        inputs.seed = ClusterSeed(seed_, k);
        c.driver = std::make_unique<workload::WorkloadDriver>(inputs);
        // Every option is passed explicitly: nothing here reads QO_* knobs.
        c.engine = std::make_unique<qo::engine::ScopeEngine>(
            opt::OptimizerOptions{}, qo::exec::ClusterConfig{},
            qo::cache::CompileCacheOptions{}, qo::engine::ExecOptions{},
            opt::CrossConfigMemoOptions{});
        c.sis = std::make_unique<qo::sis::StatsInsightService>();
        c.pipeline = std::make_unique<qo::advisor::QoAdvisorPipeline>(
            c.engine.get(), c.sis.get(), config_, runtime_.get());
      }
      out.setup_s.push_back(static_cast<double>(NowNs() - setup_start) *
                            1e-9);
      out.clusters.push_back(RunCluster(c, checks, &out));
      if (collect_counts_) AddSeriesCounts(&out.counts);
      if (checks != nullptr) CheckCluster(c, checks);
      Span span("bench.teardown");
      c.pipeline.reset();  // borrows the engine and SIS: release it first
      c.sis.reset();
      c.engine.reset();
    }
    if (checks != nullptr && spec_.expect_hints) {
      checks->Check(any_hints_, "no pipeline published a hint");
    }
    runtime_.reset();
    return out;
  }

 private:
  ClusterOutput RunCluster(Cluster& c, Result* checks, RoundOutput* out) {
    ClusterOutput result;
    const int days = spec_.train_days + spec_.eval_days;
    for (int day = 0; day < days; ++day) {
      const uint64_t day_start = NowNs();
      const double cpu_start = ProcessCpuS();
      Span day_span("bench.day");
      std::vector<workload::JobInstance> jobs;
      {
        Span span("bench.day_jobs");
        jobs = c.driver->DayJobs(day);
      }
      // --- Production: every job compiled under its hint and executed. ---
      qo::telemetry::WorkloadView view;
      view.day = day;
      {
        Span span("bench.production");
        qo::runtime::ForEachOrdered<ProductionRun>(
            runtime_.get(), jobs.size(),
            [&](size_t i) { return static_cast<uint64_t>(jobs[i].template_id); },
            [](size_t i) { return static_cast<double>(i); },
            [&](size_t i) { return Produce(*c.engine, *c.sis, jobs[i], day); },
            [&](size_t i, ProductionRun&& run) {
              Span row_span("bench.view_row");
              ++out->jobs;
              if (!run.ok) {
                ++out->jobs_failed;
                return;
              }
              if (run.fallback) ++out->fallbacks;
              out->compile_us.push_back(run.compile_us);
              view.rows.push_back(qo::telemetry::MakeViewRow(
                  jobs[i], *run.compilation, run.metrics));
              if (checks != nullptr && i % 128 == 0) {
                compile_samples_.push_back({jobs[i], run.config});
              }
            });
      }
      // --- Evaluation days: paired A/B of every hint-matched job, under the
      // same hints production just ran with. ---
      if (day >= spec_.train_days) {
        Span span("bench.ab_eval");
        std::vector<AbPair> pairs;
        for (size_t i = 0; i < jobs.size(); ++i) {
          std::optional<qo::sis::HintEntry> hint;
          {
            Span lookup("bench.sis_lookup");
            hint = c.sis->LookupHint(jobs[i].template_name);
          }
          if (!hint.has_value()) continue;
          AbPair pair;
          pair.job = jobs[i];
          pair.hinted = hint->ToConfig();
          pair.salt = (seed_ * 1000003ULL + static_cast<uint64_t>(day)) *
                          4099ULL + i;
          pairs.push_back(std::move(pair));
        }
        qo::runtime::ForEachOrdered<int>(
            runtime_.get(), pairs.size(),
            [&](size_t i) {
              return static_cast<uint64_t>(pairs[i].job.template_id);
            },
            [](size_t i) { return static_cast<double>(i); },
            [&](size_t i) {
              RunAb(*c.engine, &pairs[i]);
              return 0;
            },
            [](size_t, int&&) {});
        for (const AbPair& pair : pairs) {
          if (!pair.ok) {
            ++result.ab_skipped;
            continue;
          }
          ++result.ab_pairs;
          result.pn_saved += pair.base.pn_hours - pair.cand.pn_hours;
          if (checks != nullptr && ab_samples_.size() < 8 &&
              sample_rng_.UniformInt(8) == 0) {
            ab_samples_.push_back(pair);
          }
        }
      }
      // --- The daily QO-Advisor pipeline over the day's view. ---
      ++out->days;
      qo::Result<qo::advisor::PipelineDayReport> report = [&] {
        Span span("bench.run_day");
        return c.pipeline->RunDay(view);
      }();
      if (!report.ok()) {
        ++out->days_failed;
        result.report_lines.push_back("day failed: " +
                                      report.status().ToString());
      } else {
        result.report_lines.push_back(report->ToString());
        if (collect_counts_) AddReportCounts(*report, &out->counts);
        if (checks != nullptr) {
          checks->Check(
              report->flight_requests <= config_.max_flights_per_day,
              "flights per day above max_flights_per_day");
        }
      }
      const double wall = static_cast<double>(NowNs() - day_start) * 1e-9;
      out->day_wall_s.push_back(wall);
      out->day_jobs_per_s.push_back(static_cast<double>(jobs.size()) / wall);
      out->day_wall_total_s += wall;
      out->day_cpu_s += ProcessCpuS() - cpu_start;
    }
    result.hint_set = HintSet(*c.sis);
    return result;
  }

  static ProductionRun Produce(const qo::engine::ScopeEngine& engine,
                               const qo::sis::StatsInsightService& sis,
                               const workload::JobInstance& job, int day) {
    Span span("bench.engine_run");
    ProductionRun run;
    {
      Span lookup("bench.sis_lookup");
      run.config = sis.ConfigForTemplate(job.template_name);
    }
    uint64_t start = NowNs();
    auto compiled = engine.CompileShared(job, run.config);
    if (!compiled.ok() &&
        !(run.config.bits() == opt::RuleConfig::Default().bits())) {
      // SCOPE falls back to the default plan when a hint cannot compile.
      run.fallback = true;
      run.config = opt::RuleConfig::Default();
      compiled = engine.CompileShared(job, run.config);
    }
    run.compile_us = static_cast<double>(NowNs() - start) * 1e-3;
    if (!compiled.ok()) return run;
    run.compilation = *compiled;
    run.metrics = engine.Execute(job, *run.compilation,
                                 static_cast<uint64_t>(day));
    run.ok = true;
    return run;
  }

  /// Output checks that need the cluster's live engine and pipeline.
  void CheckCluster(const Cluster& c, Result* checks) {
    // Every active hint flips a non-required rule away from its default, on
    // a recurring template this cluster's workload generated.
    std::set<std::string> templates;
    for (const workload::JobTemplate& t : c.driver->templates()) {
      if (t.recurring) templates.insert(t.name);
    }
    const opt::RuleConfig defaults = opt::RuleConfig::Default();
    const auto view = c.sis->BuildSnapshotView();
    any_hints_ |= view->active_hints() > 0;
    for (const qo::sis::HintEntry& e : view->entries()) {
      checks->Check(templates.count(e.template_name) == 1,
                    "hint on a template the workload did not generate: " +
                        e.template_name);
      checks->Check(opt::RuleRegistry::Get().category(e.rule_id) !=
                        opt::RuleCategory::kRequired,
                    "hint flips a required rule");
      checks->Check(defaults.IsEnabled(e.rule_id) != e.enable,
                    "hint matches the default configuration");
    }
    // Flight spend stays within the configured machine-hour budget.
    const double spent = c.pipeline->flighting().budget_used_hours();
    checks->Check(spent <= config_.flighting.total_budget_machine_hours,
                  "flight hours " + std::to_string(spent) +
                      " exceed the budget");
    // Cached compilations equal those of an engine with the cache off.
    qo::engine::ScopeEngine uncached(
        opt::OptimizerOptions{}, qo::exec::ClusterConfig{},
        qo::cache::CompileCacheOptions{.enabled = false},
        qo::engine::ExecOptions{}, opt::CrossConfigMemoOptions{});
    checks->Check(!compile_samples_.empty(), "no compile samples drawn");
    for (const CompileSample& s : compile_samples_) {
      auto cached = c.engine->CompileShared(s.job, s.config);
      auto fresh = uncached.Compile(s.job, s.config);
      checks->Check(cached.ok() && fresh.ok() &&
                        (*cached)->est_cost == fresh->est_cost &&
                        (*cached)->signature == fresh->signature,
                    "cached compilation differs from uncached for " +
                        s.job.job_id);
    }
    // Repeating an A/B pair with the same salt reproduces its metrics.
    for (const AbPair& sample : ab_samples_) {
      AbPair again = sample;
      RunAb(*c.engine, &again);
      checks->Check(again.ok &&
                        again.base.ToString() == sample.base.ToString() &&
                        again.cand.ToString() == sample.cand.ToString(),
                    "A/B pair not reproducible for " + sample.job.job_id);
    }
    compile_samples_.clear();
    ab_samples_.clear();
  }

  const PipelineSpec& spec_;
  uint64_t seed_;
  int threads_;
  bool collect_counts_;
  int only_cluster_;
  std::unique_ptr<qo::runtime::ParallelRuntime> runtime_;
  qo::advisor::PipelineConfig config_;
  bool any_hints_ = false;
  qo::Rng sample_rng_{seed_ ^ 0x5eedULL};
  std::vector<CompileSample> compile_samples_;
  std::vector<AbPair> ab_samples_;
};

Result RunPipeline(const PipelineSpec& spec, const Options& options) {
  Result result;
  StampHost(&result);
  result.stamp["workload"] = spec.name;
  result.stamp["threads"] = std::to_string(spec.threads);
  result.stamp["seed"] = std::to_string(options.seed);

  std::vector<RoundOutput> rounds;
  const uint64_t timed_start = qo::obs::MonotonicNowNs();
  const uint64_t wall_start = NowNs();
  const double cpu_start = ProcessCpuS();
  const uint64_t budget_ns = static_cast<uint64_t>(options.seconds * 1e9);
  while (options.rounds > 0 ? static_cast<int>(rounds.size()) < options.rounds
                            : (rounds.empty() ||
                               NowNs() - wall_start < budget_ns)) {
    PipelineRound round(spec, options.seed, spec.threads, options.trace);
    // The first round checks its outputs against fresh uncached engines;
    // a traced run leaves that work out of the trace it reports.
    const bool check = rounds.empty() && !options.trace;
    rounds.push_back(round.Run(check ? &result : nullptr));
  }
  const double timed_cpu_s = ProcessCpuS() - cpu_start;
  result.timed_wall_s = static_cast<double>(NowNs() - wall_start) * 1e-9;
  for (const RoundOutput& r : rounds) result.work_wall_s += r.day_wall_total_s;
  if (Tracing()) {
    qo::obs::TraceRecordSpan("bench.timed", timed_start,
                             qo::obs::MonotonicNowNs());
  }
  result.rounds = static_cast<int>(rounds.size());

  // Every round repeats the first round's outputs exactly.
  const RoundOutput& first = rounds.front();
  double pn_saved = 0.0;
  size_t ab_pairs = 0;
  for (const ClusterOutput& c : first.clusters) {
    pn_saved += c.pn_saved;
    ab_pairs += c.ab_pairs;
  }
  for (const RoundOutput& r : rounds) {
    result.Check(r.clusters == first.clusters,
                 "a repeated round diverged from the first");
    result.attempted += r.jobs + r.days;
    result.failed += r.jobs_failed + r.days_failed;
    for (const ClusterOutput& c : r.clusters) {
      result.attempted += c.ab_pairs + c.ab_skipped;
    }
  }
  // A serial rerun of one cluster, alone on a fresh engine, gives identical
  // day reports and the same final hints. A serial workload with repeated
  // rounds has already made that comparison above.
  if (spec.threads > 1 || rounds.size() < 2) {
    const int k = static_cast<int>(options.seed % spec.clusters);
    PipelineRound serial(spec, options.seed, 1, false, k);
    const ClusterOutput again = serial.Run(nullptr).clusters.front();
    result.Check(again.report_lines == first.clusters[k].report_lines,
                 "day reports differ between the timed run and a 1-thread "
                 "rerun");
    result.Check(again.hint_set == first.clusters[k].hint_set,
                 "final SIS hint set differs in a 1-thread rerun");
  }

  if (!options.trace) {
    std::vector<double> setup, day_wall, jobs_per_s, cpu, compile_us;
    for (const RoundOutput& r : rounds) {
      setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
      day_wall.insert(day_wall.end(), r.day_wall_s.begin(), r.day_wall_s.end());
      jobs_per_s.insert(jobs_per_s.end(), r.day_jobs_per_s.begin(),
                        r.day_jobs_per_s.end());
      cpu.push_back(r.day_cpu_s);
      compile_us.insert(compile_us.end(), r.compile_us.begin(),
                        r.compile_us.end());
    }
    result.Metric("setup_s", Median(setup), "s");
    result.Metric("day_s", Median(day_wall), "s");
    result.Metric("jobs_per_s", Median(jobs_per_s), "1/s");
    result.Metric("cpu_s", Median(cpu), "s");
    result.Metric("peak_rss_mb", PeakRssMb(), "MB");
    result.Metric("compile_p50_us", Quantile(compile_us, 0.50), "us");
  } else {
    std::map<std::string, double> counts;
    const double n = static_cast<double>(rounds.size());
    for (const RoundOutput& r : rounds) {
      for (const auto& [k, v] : r.counts) counts[k] += v / n;
    }
    counts["pipeline.pn_hours_saved"] = pn_saved;
    counts["pipeline.ab_pairs"] = static_cast<double>(ab_pairs);
    counts["pipeline.hint_fallbacks"] = static_cast<double>(first.fallbacks);
    counts["engine.compile_p99_us"] = Quantile(first.compile_us, 0.99);
    ReportLedger(timed_cpu_s, counts, &result);
  }
  return result;
}

}  // namespace

Result RunPipelineRecurring(const Options& options) {
  static const PipelineSpec spec{
      .name = "pipeline_recurring",
      .threads = 4,
      .clusters = 6,
      .inputs = {.num_templates = 90,
                 .jobs_per_day = 150,
                 .recurring_fraction = 0.85,
                 .template_skew = 0.5},
      .train_days = 12,
      .eval_days = 6,
      .expect_hints = true,
  };
  return RunPipeline(spec, options);
}

Result RunPipelineAdhoc(const Options& options) {
  static const PipelineSpec spec{
      .name = "pipeline_adhoc",
      .threads = 1,
      .clusters = 1,
      .inputs = {.num_templates = 90,
                 .jobs_per_day = 2000,
                 .recurring_fraction = 0.15,
                 .template_skew = 0.5},
      .train_days = 8,
      .eval_days = 2,
      .expect_hints = false,
  };
  return RunPipeline(spec, options);
}

}  // namespace qobench
