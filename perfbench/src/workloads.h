// The benchmark's four workloads. Each runs in its own process, measures
// for `seconds` of wall time, checks its outputs and returns named metrics.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace fsr::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the traced run writes its spans to ("" = do not write).
  std::string trace_dir;
  /// Planted fault for the self-test: "" (none), "drop-delivery" (one
  /// replica's DeliverFn wrapper swallows a delivery), "corrupt-get" (the
  /// generator alters one GET answer before checking it) or
  /// "stall-generator" (the open-loop generator sleeps 300 ms mid-window).
  std::string plant;
};

RunResult run_kv_tcp(const Options& opt);  // kv-saturate, kv-paced
RunResult run_ring_paper(const Options& opt);
RunResult run_kv_failover(const Options& opt);

}  // namespace fsr::perfbench
