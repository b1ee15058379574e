#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace qobench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1), v.end());
  return v[rank - 1];
}

void Result::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (errors.size() < 8) errors.push_back(what);
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics[name] = {value, unit};
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

}  // namespace

std::string Result::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\":" << (correct ? "true" : "false")
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",\"rounds\":" << rounds << ",\"timed_wall_s\":";
  char num[64];
  std::snprintf(num, sizeof(num), "%.9g", timed_wall_s);
  out << num << ",\"work_wall_s\":";
  std::snprintf(num, sizeof(num), "%.9g", work_wall_s);
  out << num << ",\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    out << (i ? "," : "") << JsonString(errors[i]);
  }
  out << "],\"stamp\":{";
  bool first = true;
  for (const auto& [k, v] : stamp) {
    out << (first ? "" : ",") << JsonString(k) << ":" << JsonString(v);
    first = false;
  }
  out << "},\"metrics\":{";
  first = true;
  for (const auto& [name, vu] : metrics) {
    double value = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(num, sizeof(num), "%.10g", value);
    out << (first ? "" : ",") << JsonString(name) << ":{\"value\":" << num
        << ",\"unit\":" << JsonString(vu.second) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

bool Tracing() { return qo::obs::TraceEnabled(); }

Span::Span(const char* name) : name_(name) {
  if (Tracing()) start_ns_ = qo::obs::MonotonicNowNs();
}

Span::~Span() {
  if (start_ns_ != 0) {
    qo::obs::TraceRecordSpan(name_, start_ns_, qo::obs::MonotonicNowNs());
  }
}

namespace {

struct Event {
  std::string name;
  uint32_t tid = 0;
  double start = 0.0;  ///< ns
  double end = 0.0;    ///< ns
};

/// Parses the program's Chrome-trace output (one flat "traceEvents" array
/// of complete events, as obs/trace.cc writes it).
bool ParseTrace(const std::string& path, std::vector<Event>* events) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  const char* p = text.c_str();
  while ((p = std::strstr(p, "{\"name\":\"")) != nullptr) {
    p += 9;
    const char* name_end = std::strchr(p, '"');
    if (name_end == nullptr) return false;
    Event ev;
    ev.name.assign(p, name_end);
    const char* tid = std::strstr(name_end, "\"tid\":");
    const char* ts = std::strstr(name_end, "\"ts\":");
    const char* dur = std::strstr(name_end, "\"dur\":");
    if (tid == nullptr || ts == nullptr || dur == nullptr) return false;
    ev.tid = static_cast<uint32_t>(std::strtoul(tid + 6, nullptr, 10));
    ev.start = std::strtod(ts + 5, nullptr) * 1e3;
    ev.end = ev.start + std::strtod(dur + 6, nullptr) * 1e3;
    events->push_back(std::move(ev));
    p = dur;
  }
  return true;
}

using Interval = std::pair<double, double>;

/// Sorted, merged union of intervals.
std::vector<Interval> Union(std::vector<Interval> v) {
  std::sort(v.begin(), v.end());
  std::vector<Interval> out;
  for (const Interval& iv : v) {
    if (!out.empty() && iv.first <= out.back().second) {
      out.back().second = std::max(out.back().second, iv.second);
    } else {
      out.push_back(iv);
    }
  }
  return out;
}

/// Length of [a, b] covered by the merged union `u`.
double Overlap(const std::vector<Interval>& u, double a, double b) {
  if (b <= a) return 0.0;
  auto it = std::lower_bound(u.begin(), u.end(), Interval{a, a},
                             [](const Interval& x, const Interval& y) {
                               return x.second < y.first;
                             });
  double covered = 0.0;
  for (; it != u.end() && it->first < b; ++it) {
    covered += std::max(0.0, std::min(b, it->second) - std::max(a, it->first));
  }
  return covered;
}

}  // namespace

Ledger ReadLedger(const std::string& trace_path) {
  Ledger ledger;
  std::vector<Event> all;
  if (!ParseTrace(trace_path, &all)) return ledger;
  const Event* window = nullptr;
  for (const Event& ev : all) {
    if (ev.name == "bench.timed") window = &ev;
  }
  if (window == nullptr) return ledger;
  const double w0 = window->start;
  const double w1 = window->end;
  const uint32_t caller = window->tid;

  std::map<uint32_t, std::vector<Event>> by_thread;
  std::vector<Interval> other_activity;
  for (const Event& ev : all) {
    if (&ev == window || ev.start < w0 || ev.end > w1) continue;
    if (ev.tid != caller) other_activity.emplace_back(ev.start, ev.end);
    by_thread[ev.tid].push_back(ev);
    ++ledger.events;
  }
  const std::vector<Interval> others = Union(std::move(other_activity));

  for (auto& [tid, events] : by_thread) {
    std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
      return a.start != b.start ? a.start < b.start : a.end > b.end;
    });
    // Direct children per event, by interval nesting on this thread.
    std::vector<std::vector<size_t>> children(events.size());
    std::vector<size_t> stack;
    for (size_t i = 0; i < events.size(); ++i) {
      while (!stack.empty() && events[stack.back()].end <= events[i].start) {
        stack.pop_back();
      }
      if (!stack.empty()) children[stack.back()].push_back(i);
      stack.push_back(i);
    }
    for (size_t i = 0; i < events.size(); ++i) {
      const Event& ev = events[i];
      // Exclusive segments: the span minus its direct children.
      double exclusive = 0.0;
      double waited = 0.0;
      double cursor = ev.start;
      auto segment = [&](double a, double b) {
        if (b <= a) return;
        exclusive += b - a;
        if (tid == caller) waited += Overlap(others, a, b);
      };
      for (size_t c : children[i]) {
        const Event& child = events[c];
        segment(cursor, std::min(child.start, ev.end));
        cursor = std::max(cursor, std::min(child.end, ev.end));
      }
      segment(cursor, ev.end);
      ledger.self_s[ev.name] += (exclusive - waited) * 1e-9;
      ledger.count[ev.name] += 1;
      ledger.caller_wait_s += waited * 1e-9;
      ledger.busy_s += (exclusive - waited) * 1e-9;
    }
  }
  ledger.ok = true;
  return ledger;
}

void StampHost(Result* result) {
  result->stamp["nproc"] = std::to_string(std::thread::hardware_concurrency());
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  result->stamp["cpu_model"] = model;
#if defined(__clang__)
  result->stamp["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  result->stamp["compiler"] = std::string("gcc ") + __VERSION__;
#endif
  result->stamp["build_type"] = QOBENCH_BUILD_TYPE;
}

}  // namespace qobench
