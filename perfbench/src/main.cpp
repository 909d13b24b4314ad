// Benchmark entry point: one workload per process.
//
//   fsr_perfbench --workload <kv-saturate|kv-paced|ring-paper|kv-failover>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--trace-dir <dir>]
//                 [--plant <drop-delivery|corrupt-get|stall-generator>]
//   fsr_perfbench --speed-probe <cpu>    (host_speed.h)
//
// Prints a metric table and, as the last line, one JSON object. Exit code 0
// when every correctness check passed, 1 when one failed (the table names
// it), 2 on bad arguments, 3 when the run is invalid (the open-loop
// generator could not keep its schedule), 4 on an internal metric-list bug.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/log.h"
#include "host_speed.h"
#include "workloads.h"

using namespace fsr::perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fsr_perfbench --workload <kv-saturate|kv-paced|ring-paper|"
               "kv-failover> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>] "
               "[--plant <drop-delivery|corrupt-get|stall-generator>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--speed-probe") == 0) {
    return run_speed_probe(std::atoi(argv[2]));
  }
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(val);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--trace-dir") {
      opt.trace_dir = val;
    } else if (key == "--plant") {
      opt.plant = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0) return usage();
  if (!opt.plant.empty() && opt.plant != "drop-delivery" && opt.plant != "corrupt-get" &&
      opt.plant != "stall-generator") {
    return usage();
  }
  fsr::set_log_level(fsr::LogLevel::kError);

  RunResult r;
  if (opt.workload == "kv-saturate" || opt.workload == "kv-paced") {
    r = run_kv_tcp(opt);
  } else if (opt.workload == "ring-paper") {
    r = run_ring_paper(opt);
  } else if (opt.workload == "kv-failover") {
    r = run_kv_failover(opt);
  } else {
    return usage();
  }

  // Every run must carry the full metric list of its mode, in order.
  const auto& want = opt.trace ? layer_metric_names() : e2e_metric_names();
  const auto& got = opt.trace ? r.layers : r.e2e;
  bool complete = want.size() == got.size();
  for (std::size_t i = 0; complete && i < want.size(); ++i) complete = want[i] == got[i].name;
  if (!complete) {
    // Only a run that stopped early (a failed check) may lack metrics.
    for (const std::string& f : r.failed_checks) std::printf("CHECK FAILED: %s\n", f.c_str());
    std::fprintf(stderr, "perfbench: %s produced an incomplete metric list\n",
                 opt.workload.c_str());
    return r.failed_checks.empty() ? 4 : 1;
  }
  if (!opt.trace) {
    for (const Metric& m : r.e2e) {
      if (!m.applies) r.fail("metric_coverage", m.name + " has too few samples");
    }
  }
  return print_report(opt.workload, r, opt.trace);
}
