// Measurement plumbing shared by every workload: a fixed-memory latency
// histogram, the named-metric result a run produces, host resource probes,
// and the final report printer (a human-readable table followed by the one
// JSON line the benchmark contract asks for).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace fsr::perfbench {

/// Monotonic wall clock in nanoseconds (the same clock TcpTransport::now()
/// reads, so timestamps taken on any thread compare directly).
Time mono_ns();

/// Process user+sys CPU time so far, in microseconds. The same quantity
/// getrusage() reports, read from CLOCK_PROCESS_CPUTIME_ID, which is exact
/// rather than sampled at scheduler ticks.
double process_cpu_us();

/// Calling thread's CPU time so far, in microseconds.
double thread_cpu_us();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Log-linear latency histogram: exact below 128 ns, 128 linear sub-buckets
/// per power of two above (under 0.8 % relative bucket width). Memory is
/// fixed, so recording millions of samples does not grow the process RSS
/// that the benchmark itself reports. Quantiles interpolate by rank inside
/// the bucket, so they vary continuously with the samples.
class LatencyHist {
 public:
  LatencyHist();
  void add(Time ns);
  void merge(const LatencyHist& other);
  std::uint64_t count() const { return count_; }
  /// q in [0, 1]; 0 when empty.
  double quantile_ms(double q) const;
  /// A percentile is reportable only with at least ten samples beyond it.
  bool supports(double q) const {
    return static_cast<double>(count_) * (1.0 - q) >= 10.0;
  }

 private:
  static constexpr int kSub = 128;
  static constexpr int kMaxExp = 44;  // ~4.9 hours in ns: never reached
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  /// Sample count behind a latency figure (0 for counts and ratios).
  std::uint64_t samples = 0;
  /// False when the quantity does not exist on this workload; the value is
  /// then reported as 0 and the table says "n/a".
  bool applies = true;
};

struct RunResult {
  /// Failed correctness checks, each "name: detail". Empty = correct.
  std::vector<std::string> failed_checks;
  /// Set when the run cannot be reported (open-loop generator fell
  /// behind): the harness, not the system, was too slow.
  std::string invalid_reason;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The end-to-end metrics, in BENCHMARK.json order.
  std::vector<Metric> e2e;
  /// End-to-end figures that exist only on some workloads (read latency,
  /// outage); printed in the table, not in the JSON line.
  std::vector<Metric> extra;
  /// Per-layer metrics (traced runs only).
  std::vector<Metric> layers;

  void fail(const std::string& check, const std::string& detail) {
    failed_checks.push_back(check + ": " + detail);
  }
};

/// The q-quantile of a histogram as a latency metric, marked applicable
/// only when the histogram supports it.
Metric latency_metric(const LatencyHist& h, const std::string& name, double q);

/// Set a p50/p99 pair of layer metrics from a histogram; the p99 stays n/a
/// unless the histogram supports it.
void set_latency(std::vector<Metric>& ms, const std::string& p50_name,
                 const std::string& p99_name, const LatencyHist& h);

/// Print the table and the final JSON line. `traced` selects which metric
/// list the JSON carries. Returns the process exit code: 0 when correct,
/// 1 when a check failed, 3 when the run was invalid (no JSON then).
int print_report(const std::string& workload, const RunResult& r, bool traced);

/// The names every untraced / traced run must carry, in JSON order.
const std::vector<std::string>& e2e_metric_names();
const std::vector<std::string>& layer_metric_names();

/// Fill `out` with every layer metric name, unit and "n/a" default; the
/// workloads then overwrite the ones they measure.
std::vector<Metric> default_layer_metrics();
Metric* find_metric(std::vector<Metric>& ms, const std::string& name);
void set_metric(std::vector<Metric>& ms, const std::string& name, double value,
                std::uint64_t samples = 0);

/// num / den, or 0 when den is 0.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Write a traced run's spans (one JSON object per line) to
/// <dir>/<workload>-seed<seed>.spans.jsonl; no-op when `dir` is empty.
void write_spans(const std::string& dir, const std::string& workload, std::uint64_t seed,
                 const std::vector<std::string>& lines);

double median(std::vector<double> v);

/// Linear-interpolated q-quantile (q in [0, 1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);

/// The figure of the least-disturbed tenth of a run's samples: the 10th
/// percentile of a cost or latency, the 90th of a rate. On a shared host,
/// interference from other tenants only ever adds time, and the host
/// switches between fast and slow stretches that last from a second to
/// minutes, so this is the steadiest estimate of what the code itself
/// costs. A change that slows the code moves every sample, this one
/// included.
double calm(std::vector<double> v, bool higher_is_better);

}  // namespace fsr::perfbench
