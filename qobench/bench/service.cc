// service_mixed: the always-on advisor service under a closed loop of four
// tenant clients, each waiting for every reply before sending its next
// request. A client walks successive days of its own recurring workload;
// every operation is a hint-aware Compile, a Rank and a Reward, with a hint
// upload (a valid flip of the ranked rule, verified by the next Compile)
// and a synchronous TrainAndPublish at fixed points of the stream.
//
// One round = a fresh service with four tenants serving a fixed number of
// days; clients meet at a barrier at the end of each day. Rounds repeat
// until the run's time is used; every round must reproduce the first
// round's per-tenant transcripts, and a serial replay must too.
#include <barrier>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/rules.h"
#include "service/advisor_service.h"
#include "workload/workload.h"
#include "workloads.h"

namespace qobench {
namespace {

namespace opt = qo::opt;
namespace service = qo::service;
namespace workload = qo::workload;

constexpr int kTenants = 4;
constexpr int kDays = 8;
/// Each day's jobs are served this many times over, so later passes hit the
/// tenant's compile cache (or miss after a hint changed the configuration).
constexpr int kPassesPerDay = 3;
constexpr int kUploadEvery = 24;
constexpr int kTrainEvery = 32;

/// The rule flips the tenants rank. Rules 41 and 44 are on by default and
/// 160 and 164 off, so a valid hint turns the first two off and the last
/// two on.
constexpr int kActionRules[] = {opt::rules::kFilterPushdownIntoJoinLeft,
                                opt::rules::kFilterIntoScan,
                                opt::rules::kEagerAggregationLeft,
                                opt::rules::kBroadcastJoinAggressive};

workload::WorkloadConfig TenantInputs(uint64_t seed, int tenant) {
  return {.num_templates = 40,
          .jobs_per_day = 48,
          .recurring_fraction = 0.9,
          .template_skew = 0.5,
          .seed = seed * 7919ULL + static_cast<uint64_t>(tenant)};
}

std::string TenantName(int tenant) { return "tenant_" + std::to_string(tenant); }

/// One client's latency samples (microseconds, the benchmark's own clock).
struct Samples {
  std::vector<double> compile, rank, reward, publish;
  uint64_t requests = 0;
  uint64_t compiles = 0;
  uint64_t compiles_hinted = 0;
  uint64_t fallbacks = 0;
  uint64_t uploads = 0;
  uint64_t ops = 0;
  uint64_t ops_failed = 0;
};

double SinceUs(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-3;
}

/// One tenant's client. ServeDay() runs one day of its stream; the
/// transcript holds every scheduling-independent response field.
class Client {
 public:
  Client(service::TenantSession session, uint64_t seed, int tenant)
      : session_(std::move(session)),
        driver_(TenantInputs(seed, tenant)),
        reward_rng_(seed * 31ULL + static_cast<uint64_t>(tenant)) {}

  void ServeDay(int day, Result* checks) {
    std::vector<workload::JobInstance> jobs;
    {
      Span span("bench.day_jobs");
      jobs = driver_.DayJobs(day);
    }
    const size_t n = jobs.size() * kPassesPerDay;
    for (size_t k = 0; k < n; ++k) {
      ++samples_.ops;
      if (!Op(jobs[k % jobs.size()], day, checks)) ++samples_.ops_failed;
    }
  }

  const std::string& transcript() const { return transcript_; }
  Samples& samples() { return samples_; }

 private:
  /// Hint-aware Compile with the SCOPE fallback to the default plan.
  bool Compile(const workload::JobInstance& job, service::CompileResponse* out,
               bool* fell_back) {
    const uint64_t start = NowNs();
    Span span("bench.svc_compile");
    auto compiled = session_.Compile(job);
    *fell_back = false;
    if (!compiled.ok()) {
      *fell_back = true;
      compiled = session_.Compile(job, /*apply_hints=*/false);
    }
    samples_.compile.push_back(SinceUs(start));
    ++samples_.requests;
    ++samples_.compiles;
    if (!compiled.ok()) return false;
    if (compiled->hint_applied) ++samples_.compiles_hinted;
    if (*fell_back) ++samples_.fallbacks;
    *out = *std::move(compiled);
    return true;
  }

  bool Op(const workload::JobInstance& job, int day, Result* checks) {
    const uint64_t i = op_index_++;
    char line[256];
    service::CompileResponse compiled;
    bool fell_back = false;
    if (!Compile(job, &compiled, &fell_back)) {
      transcript_ += "compile-failed\n";
      return false;
    }
    std::snprintf(line, sizeof(line), "c %llu %.6f %d %d %d %d\n",
                  static_cast<unsigned long long>(i),
                  compiled.compilation->est_cost, compiled.hint_applied ? 1 : 0,
                  compiled.rule_id, compiled.sis_version, fell_back ? 1 : 0);
    transcript_ += line;

    service::RankRequest rank;
    rank.event_id = session_.tenant() + "-e" + std::to_string(i);
    rank.context.AddNamed("tpl:" + job.template_name, 1.0);
    rank.context.AddNamed("day:" + std::to_string(day), 1.0);
    for (int rule : kActionRules) {
      qo::bandit::RankableAction action;
      action.action_id = "flip_" + std::to_string(rule);
      action.features.AddNamed("rule:" + std::to_string(rule), 1.0);
      rank.actions.push_back(std::move(action));
    }
    const size_t num_actions = rank.actions.size();
    const std::string want_ids[] = {rank.actions[0].action_id,
                                    rank.actions[1].action_id,
                                    rank.actions[2].action_id,
                                    rank.actions[3].action_id};
    uint64_t start = NowNs();
    auto ranked = [&] {
      Span span("bench.svc_rank");
      return session_.Rank(std::move(rank));
    }();
    samples_.rank.push_back(SinceUs(start));
    ++samples_.requests;
    if (!ranked.ok()) {
      transcript_ += "rank-failed\n";
      return false;
    }
    checks->Check(ranked->chosen_index < num_actions &&
                      ranked->chosen_action_id == want_ids[ranked->chosen_index] &&
                      ranked->probability > 0.0 && ranked->probability <= 1.0,
                  "Rank returned an invalid choice or propensity");
    std::snprintf(line, sizeof(line), "r %llu %zu %.6f %llu\n",
                  static_cast<unsigned long long>(i), ranked->chosen_index,
                  ranked->probability,
                  static_cast<unsigned long long>(ranked->snapshot_sequence));
    transcript_ += line;

    start = NowNs();
    auto rewarded = [&] {
      Span span("bench.svc_reward");
      return session_.Reward(ranked->event, reward_rng_.Uniform());
    }();
    samples_.reward.push_back(SinceUs(start));
    ++samples_.requests;
    if (!rewarded.ok()) {
      transcript_ += "reward-failed\n";
      return false;
    }
    checks->Check(rewarded->rewarded_events == rewarded_ + 1,
                  "Reward did not join exactly one event");
    rewarded_ = rewarded->rewarded_events;
    std::snprintf(line, sizeof(line), "w %llu %zu\n",
                  static_cast<unsigned long long>(i), rewarded->rewarded_events);
    transcript_ += line;

    if (i % kUploadEvery == kUploadEvery - 1 &&
        !Upload(job, kActionRules[ranked->chosen_index], day, checks)) {
      return false;
    }
    if (i % kTrainEvery == kTrainEvery - 1) {
      start = NowNs();
      bool published = [&] {
        Span span("bench.svc_train");
        return session_.TrainAndPublish();
      }();
      samples_.publish.push_back(SinceUs(start));
      ++samples_.requests;
      std::snprintf(line, sizeof(line), "t %llu %d\n",
                    static_cast<unsigned long long>(i), published ? 1 : 0);
      transcript_ += line;
    }
    return true;
  }

  /// Publishes the ranked flip for the job's template: the rule goes to the
  /// opposite of its default. Checks the version bump and that the next
  /// Compile of the template applies it at the cost CompileShared gives
  /// under the snapshot's ConfigForTemplate.
  bool Upload(const workload::JobInstance& job, int rule, int day,
              Result* checks) {
    qo::sis::HintFile file;
    file.day = day;
    file.entries.push_back(
        {.template_name = job.template_name,
         .rule_id = rule,
         .enable = !opt::RuleConfig::Default().IsEnabled(rule)});
    const uint64_t start = NowNs();
    auto uploaded = [&] {
      Span span("bench.svc_upload");
      return session_.UploadHints(file);
    }();
    samples_.publish.push_back(SinceUs(start));
    ++samples_.requests;
    ++samples_.uploads;
    if (!uploaded.ok()) {
      transcript_ += "upload-failed " + uploaded.status().ToString() + "\n";
      return false;
    }
    checks->Check(uploaded->version == sis_version_ + 1,
                  "an accepted upload did not raise the SIS version by one");
    sis_version_ = uploaded->version;
    char line[160];
    std::snprintf(line, sizeof(line), "u %d %zu %llu\n", uploaded->version,
                  uploaded->active_hints,
                  static_cast<unsigned long long>(uploaded->snapshot_sequence));
    transcript_ += line;

    service::CompileResponse next;
    bool fell_back = false;
    if (!Compile(job, &next, &fell_back)) return false;
    const opt::RuleConfig config =
        session_.snapshot()->hints->ConfigForTemplate(job.template_name);
    auto reference = session_.engine().CompileShared(job, config);
    checks->Check(!fell_back && next.hint_applied && next.rule_id == rule &&
                      next.sis_version == uploaded->version &&
                      reference.ok() &&
                      (*reference)->est_cost == next.compilation->est_cost,
                  "the Compile after an upload did not apply the new hint");
    return true;
  }

  service::TenantSession session_;
  workload::WorkloadDriver driver_;
  qo::Rng reward_rng_;
  uint64_t op_index_ = 0;
  size_t rewarded_ = 0;
  int sis_version_ = 0;
  std::string transcript_;
  Samples samples_;
};

struct RoundOutput {
  double setup_s = 0.0;
  double serve_wall_s = 0.0;
  double serve_cpu_s = 0.0;
  std::vector<double> day_wall_s;
  std::vector<std::string> transcripts;
  Samples merged;
  uint64_t publications = 0;
  std::map<std::string, double> counts;  ///< per-layer counts of the round
};

/// Runs one round: `threads` = kTenants serves every client on its own
/// thread; 1 serves the tenants one after another on the calling thread.
RoundOutput RunRound(uint64_t seed, int threads, bool collect_counts,
                     Result* checks) {
  RoundOutput out;
  const uint64_t setup_start = NowNs();
  std::unique_ptr<service::AdvisorService> advisor;
  std::vector<std::unique_ptr<Client>> clients;
  {
    Span span("bench.setup");
    // Defaults() reads no QO_* knob; the background trainer stays off.
    advisor = std::make_unique<service::AdvisorService>(
        service::AdvisorOptions::Defaults());
    for (int t = 0; t < kTenants; ++t) {
      auto session = advisor->OpenTenant(TenantName(t));
      checks->Check(session.ok(), "OpenTenant failed");
      if (!session.ok()) return out;
      clients.push_back(std::make_unique<Client>(*session, seed, t));
    }
  }
  out.setup_s = static_cast<double>(NowNs() - setup_start) * 1e-9;

  const uint64_t serve_start = NowNs();
  const double cpu_start = ProcessCpuS();
  uint64_t day_start = serve_start;
  if (threads <= 1) {
    for (int day = 0; day < kDays; ++day) {
      for (auto& client : clients) client->ServeDay(day, checks);
      out.day_wall_s.push_back(SinceUs(day_start) * 1e-6);
      day_start = NowNs();
    }
  } else {
    std::vector<Result> client_checks(clients.size());
    auto day_done = [&]() noexcept {
      out.day_wall_s.push_back(SinceUs(day_start) * 1e-6);
      day_start = NowNs();
    };
    std::barrier day_barrier(static_cast<std::ptrdiff_t>(clients.size()),
                             day_done);
    std::vector<std::thread> workers;
    for (size_t c = 0; c < clients.size(); ++c) {
      workers.emplace_back([&, c] {
        for (int day = 0; day < kDays; ++day) {
          clients[c]->ServeDay(day, &client_checks[c]);
          day_barrier.arrive_and_wait();
        }
      });
    }
    for (std::thread& t : workers) t.join();
    for (const Result& r : client_checks) {
      for (const std::string& e : r.errors) checks->Check(false, e);
    }
  }
  out.serve_wall_s = static_cast<double>(NowNs() - serve_start) * 1e-9;
  out.serve_cpu_s = ProcessCpuS() - cpu_start;

  for (auto& client : clients) {
    out.transcripts.push_back(client->transcript());
    Samples& s = client->samples();
    Samples& m = out.merged;
    m.compile.insert(m.compile.end(), s.compile.begin(), s.compile.end());
    m.rank.insert(m.rank.end(), s.rank.begin(), s.rank.end());
    m.reward.insert(m.reward.end(), s.reward.begin(), s.reward.end());
    m.publish.insert(m.publish.end(), s.publish.begin(), s.publish.end());
    m.requests += s.requests;
    m.compiles += s.compiles;
    m.compiles_hinted += s.compiles_hinted;
    m.fallbacks += s.fallbacks;
    m.uploads += s.uploads;
    m.ops += s.ops;
    m.ops_failed += s.ops_failed;
  }
  for (int t = 0; t < kTenants; ++t) {
    out.publications += advisor->CurrentSnapshot(TenantName(t))->sequence;
  }
  if (collect_counts) AddSeriesCounts(&out.counts);
  {
    Span span("bench.teardown");
    clients.clear();
    advisor.reset();
  }
  return out;
}

}  // namespace

Result RunServiceMixed(const Options& options) {
  Result result;
  StampHost(&result);
  result.stamp["workload"] = "service_mixed";
  result.stamp["threads"] = std::to_string(kTenants) + " clients";
  result.stamp["seed"] = std::to_string(options.seed);

  std::vector<RoundOutput> rounds;
  const uint64_t timed_start = qo::obs::MonotonicNowNs();
  const uint64_t wall_start = NowNs();
  const double cpu_start = ProcessCpuS();
  const uint64_t budget_ns = static_cast<uint64_t>(options.seconds * 1e9);
  while (options.rounds > 0 ? static_cast<int>(rounds.size()) < options.rounds
                            : (rounds.empty() ||
                               NowNs() - wall_start < budget_ns)) {
    rounds.push_back(RunRound(options.seed, kTenants, options.trace, &result));
  }
  const double timed_cpu_s = ProcessCpuS() - cpu_start;
  result.timed_wall_s = static_cast<double>(NowNs() - wall_start) * 1e-9;
  for (const RoundOutput& r : rounds) result.work_wall_s += r.serve_wall_s;
  if (Tracing()) {
    qo::obs::TraceRecordSpan("bench.timed", timed_start,
                             qo::obs::MonotonicNowNs());
  }
  result.rounds = static_cast<int>(rounds.size());

  const RoundOutput& first = rounds.front();
  for (const RoundOutput& r : rounds) {
    result.Check(r.transcripts == first.transcripts,
                 "a repeated round's transcripts diverged from the first");
    result.attempted += r.merged.ops;
    result.failed += r.merged.ops_failed;
  }
  RoundOutput serial = RunRound(options.seed, 1, false, &result);
  result.Check(serial.transcripts == first.transcripts,
               "per-tenant transcripts differ from a serial replay");
  result.Check(first.merged.compiles_hinted > 0,
               "no Compile applied a published hint");

  std::vector<double> setup, day_wall, jobs_per_s, cpu, compile, rank, reward,
      publish;
  double wall = 0.0, requests = 0.0;
  for (const RoundOutput& r : rounds) {
    setup.push_back(r.setup_s);
    day_wall.insert(day_wall.end(), r.day_wall_s.begin(), r.day_wall_s.end());
    const Samples& m = r.merged;
    jobs_per_s.push_back(static_cast<double>(m.compiles) / r.serve_wall_s);
    cpu.push_back(r.serve_cpu_s);
    compile.insert(compile.end(), m.compile.begin(), m.compile.end());
    rank.insert(rank.end(), m.rank.begin(), m.rank.end());
    reward.insert(reward.end(), m.reward.begin(), m.reward.end());
    publish.insert(publish.end(), m.publish.begin(), m.publish.end());
    wall += r.serve_wall_s;
    requests += static_cast<double>(m.requests);
  }
  const double n = static_cast<double>(rounds.size());
  if (!options.trace) {
    result.Metric("setup_s", Median(setup), "s");
    result.Metric("day_s", Median(day_wall), "s");
    result.Metric("jobs_per_s", Median(jobs_per_s), "1/s");
    result.Metric("cpu_s", Median(cpu), "s");
    result.Metric("peak_rss_mb", PeakRssMb(), "MB");
    result.Metric("compile_p50_us", Quantile(compile, 0.50), "us");
  } else {
    std::map<std::string, double> counts;
    for (const RoundOutput& r : rounds) {
      for (const auto& [k, v] : r.counts) counts[k] += v / n;
    }
    counts["service.qps"] = requests / wall;
    counts["engine.compile_p99_us"] = Quantile(compile, 0.99);
    counts["service.rank_p50_us"] = Quantile(rank, 0.50);
    counts["service.rank_p99_us"] = Quantile(rank, 0.99);
    counts["service.reward_p50_us"] = Quantile(reward, 0.50);
    counts["service.publish_p50_us"] = Quantile(publish, 0.50);
    counts["service.compiles_hinted"] =
        static_cast<double>(first.merged.compiles_hinted);
    counts["service.publications"] = static_cast<double>(first.publications);
    counts["service.hint_fallbacks"] =
        static_cast<double>(first.merged.fallbacks);
    counts["sis.uploads"] = static_cast<double>(first.merged.uploads);
    ReportLedger(timed_cpu_s, counts, &result);
  }
  return result;
}

}  // namespace qobench
