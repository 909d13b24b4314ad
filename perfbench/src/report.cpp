#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>

namespace fsr::perfbench {

Time mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double cpu_clock_us(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

}  // namespace

double process_cpu_us() { return cpu_clock_us(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_us() { return cpu_clock_us(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

LatencyHist::LatencyHist() : buckets_(static_cast<std::size_t>(kSub) * (kMaxExp - 5), 0) {}

void LatencyHist::add(Time ns) {
  auto v = static_cast<std::uint64_t>(std::max<Time>(ns, 0));
  std::size_t idx = 0;
  if (v < kSub) {
    idx = static_cast<std::size_t>(v);
  } else {
    int exp = 63 - std::countl_zero(v);  // >= 7
    exp = std::min(exp, kMaxExp - 1);
    std::uint64_t sub = (v >> (exp - 7)) & (kSub - 1);
    idx = static_cast<std::size_t>(exp - 6) * kSub + static_cast<std::size_t>(sub);
    idx = std::min(idx, buckets_.size() - 1);
  }
  ++buckets_[idx];
  ++count_;
}

void LatencyHist::merge(const LatencyHist& other) {
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHist::quantile_ms(double q) const {
  if (count_ == 0) return 0;
  const double rank = q * static_cast<double>(count_ - 1);
  double before = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const auto c = static_cast<double>(buckets_[i]);
    if (c == 0) continue;
    if (before + c > rank) {
      double lo = 0;
      double width = 1;
      if (i >= kSub) {
        const int exp = static_cast<int>(i / kSub) + 6;
        const double sub = static_cast<double>(i % kSub);
        width = std::ldexp(1.0, exp - 7);
        lo = (kSub + sub) * width;
      } else {
        lo = static_cast<double>(i);
      }
      const double frac = (rank - before + 0.5) / c;
      return (lo + frac * width) / 1e6;
    }
    before += c;
  }
  return 0;
}

void write_spans(const std::string& dir, const std::string& workload, std::uint64_t seed,
                 const std::vector<std::string>& lines) {
  if (dir.empty()) return;
  std::ofstream out(dir + "/" + workload + "-seed" + std::to_string(seed) + ".spans.jsonl");
  for (const auto& line : lines) out << line << '\n';
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double calm(std::vector<double> v, bool higher_is_better) {
  return quantile(std::move(v), higher_is_better ? 0.9 : 0.1);
}

namespace {

struct NameUnit {
  const char* name;
  const char* unit;
};

// BENCHMARK.json's end_to_end list: every one is measured on every workload.
const NameUnit kE2e[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"write_p50_ms", "ms"},
    {"write_p90_ms", "ms"},
    {"deliver_p50_ms", "ms"},
    {"deliver_p90_ms", "ms"},
    {"goodput_mbps", "Mb/s"},
    {"cpu_us_per_op", "us"},
    {"peak_rss_mb", "MB"},
};

// BENCHMARK.json's per_layer list, printed by every traced run.
const NameUnit kLayers[] = {
    {"gateway.admit_p50_ms", "ms"},
    {"gateway.admit_p99_ms", "ms"},
    {"gateway.reply_p50_ms", "ms"},
    {"gateway.reply_p99_ms", "ms"},
    {"gateway.batch_envelopes", "count"},
    {"gateway.reject_frac", "ratio"},
    {"gateway.failover_attempts_per_op", "count"},
    {"fsr.order_p50_ms", "ms"},
    {"fsr.order_p99_ms", "ms"},
    {"fsr.piggyback_frac", "ratio"},
    {"fsr.pooled_frac", "ratio"},
    {"fsr.window_grows", "count"},
    {"transport.syscalls_per_op", "count"},
    {"transport.iov_per_sendmsg", "count"},
    {"transport.copies_per_op", "count"},
    {"transport.wire_bytes_per_op", "B"},
    {"app.apply_us_p50", "us"},
    {"app.busy_frac", "ratio"},
    {"vsc.view_install_ms", "ms"},
    {"vsc.views_installed", "count"},
    {"net.wire_efficiency", "ratio"},
    {"sim.events_per_op", "count"},
    {"sim.cpu_us_per_event", "us"},
    {"client.late_p99_ms", "ms"},
    {"client.read_p50_ms", "ms"},
    {"client.read_p99_ms", "ms"},
    {"client.outage_ms", "ms"},
    {"client.cpu_us_per_op", "us"},
    {"trace.ops_per_s", "1/s"},
    {"trace.write_p50_ms", "ms"},
    {"trace.covered_frac", "ratio"},
    {"trace.requests", "count"},
};

std::vector<std::string> names_of(const auto& table) {
  std::vector<std::string> out;
  for (const auto& e : table) out.emplace_back(e.name);
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    if (!m.applies) {
      std::printf("  %-34s %14s %-6s\n", m.name.c_str(), "n/a", m.unit.c_str());
    } else if (m.samples) {
      std::printf("  %-34s %14.6g %-6s n=%llu\n", m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    } else {
      std::printf("  %-34s %14.6g %-6s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
}

}  // namespace

const std::vector<std::string>& e2e_metric_names() {
  static const std::vector<std::string> names = names_of(kE2e);
  return names;
}

const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = names_of(kLayers);
  return names;
}

std::vector<Metric> default_layer_metrics() {
  std::vector<Metric> out;
  for (const auto& e : kLayers) out.push_back(Metric{e.name, e.unit, 0, 0, false});
  return out;
}

Metric* find_metric(std::vector<Metric>& ms, const std::string& name) {
  for (Metric& m : ms) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void set_metric(std::vector<Metric>& ms, const std::string& name, double value,
                std::uint64_t samples) {
  Metric* m = find_metric(ms, name);
  if (!m) {
    std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
    std::abort();
  }
  m->value = value;
  m->samples = samples;
  m->applies = true;
}

Metric latency_metric(const LatencyHist& h, const std::string& name, double q) {
  return Metric{name, "ms", h.quantile_ms(q), h.count(), h.count() > 0 && h.supports(q)};
}

void set_latency(std::vector<Metric>& ms, const std::string& p50_name,
                 const std::string& p99_name, const LatencyHist& h) {
  if (h.count() == 0) return;
  set_metric(ms, p50_name, h.quantile_ms(0.5), h.count());
  if (h.supports(0.99)) set_metric(ms, p99_name, h.quantile_ms(0.99), h.count());
}

int print_report(const std::string& workload, const RunResult& r, bool traced) {
  std::printf("== perfbench %s (%s run) ==\n", workload.c_str(),
              traced ? "traced" : "untraced");
  if (!r.invalid_reason.empty()) {
    std::printf("INVALID RUN: %s\n", r.invalid_reason.c_str());
    std::fflush(stdout);
    return 3;
  }
  const double failed_frac =
      r.attempted ? static_cast<double>(r.failed) / static_cast<double>(r.attempted) : 0;
  std::printf("ops attempted %llu, failed %llu (failed_frac %.6g)\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), failed_frac);
  std::vector<Metric> e2e = r.e2e;
  if (!traced) {
    print_table("end-to-end:", e2e);
    std::vector<Metric> extra = r.extra;
    extra.push_back(Metric{"failed_frac", "ratio", failed_frac, 0, true});
    print_table("workload-specific end-to-end (not in the JSON line):", extra);
  } else {
    print_table("per-layer:", r.layers);
  }
  for (const std::string& f : r.failed_checks) std::printf("CHECK FAILED: %s\n", f.c_str());

  std::string json = "{\"correct\": ";
  json += r.failed_checks.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  const std::vector<Metric>& ms = traced ? r.layers : e2e;
  bool first = true;
  for (const Metric& m : ms) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.applies ? m.value : 0) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.failed_checks.empty() ? 0 : 1;
}

}  // namespace fsr::perfbench
