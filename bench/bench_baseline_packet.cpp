// The §2 comparison at packet level, in Mb/s on the identical simulated
// 100 Mb/s testbed: FSR's ring dissemination against the classic fixed
// sequencer, whose NIC must transmit n-1 copies of every payload. This is
// the quantitative version of the paper's motivation (Figures 1 vs 4):
// the sequencer baseline decays like wire/(n-1) while FSR stays flat.
#include <benchmark/benchmark.h>

#include "baselines/cluster.h"
#include "bench_common.h"

namespace {

using namespace fsr;
using namespace fsr::bench;

double fixed_seq_mbps(std::size_t n) {
  baselines::FixedSeqConfig cfg;
  cfg.segment_size = 100 * 1024;
  cfg.window = 16;
  baselines::FixedSeqCluster c(NetConfig{}, n, cfg);
  const int msgs = static_cast<int>(200 / n) + 6;
  for (std::size_t s = 0; s < n; ++s) {
    for (int i = 0; i < msgs; ++i) {
      c.broadcast(static_cast<NodeId>(s),
                  test_payload(static_cast<NodeId>(s),
                               static_cast<std::uint64_t>(i + 1), 100 * 1024));
    }
  }
  c.sim().run();
  if (c.log(1).size() != n * static_cast<std::size_t>(msgs)) return -1;
  return static_cast<double>(n * static_cast<std::size_t>(msgs)) * 100 * 1024 * 8.0 /
         static_cast<double>(c.log(1).back().at) * 1000.0;
}

double privilege_mbps(std::size_t n, std::size_t hold) {
  baselines::PrivilegeConfig cfg;
  cfg.segment_size = 100 * 1024;
  cfg.hold_max = hold;
  baselines::PrivilegeCluster c(NetConfig{}, n, cfg);
  const int msgs = static_cast<int>(120 / n) + 4;
  for (std::size_t s = 0; s < n; ++s) {
    for (int i = 0; i < msgs; ++i) {
      c.broadcast(static_cast<NodeId>(s),
                  test_payload(static_cast<NodeId>(s),
                               static_cast<std::uint64_t>(i + 1), 100 * 1024));
    }
  }
  c.sim().run();
  if (c.log(1).size() != n * static_cast<std::size_t>(msgs)) return -1;
  return static_cast<double>(n * static_cast<std::size_t>(msgs)) * 100 * 1024 * 8.0 /
         static_cast<double>(c.log(1).back().at) * 1000.0;
}

double moving_seq_mbps(std::size_t n) {
  baselines::MovingSeqConfig cfg;
  cfg.segment_size = 100 * 1024;
  cfg.batch = 8;
  baselines::MovingSeqCluster c(NetConfig{}, n, cfg);
  const int msgs = static_cast<int>(120 / n) + 4;
  for (std::size_t s = 0; s < n; ++s) {
    for (int i = 0; i < msgs; ++i) {
      c.broadcast(static_cast<NodeId>(s),
                  test_payload(static_cast<NodeId>(s),
                               static_cast<std::uint64_t>(i + 1), 100 * 1024));
    }
  }
  c.sim().run();
  if (c.log(1).size() != n * static_cast<std::size_t>(msgs)) return -1;
  return static_cast<double>(n * static_cast<std::size_t>(msgs)) * 100 * 1024 * 8.0 /
         static_cast<double>(c.log(1).back().at) * 1000.0;
}

double fsr_mbps(std::size_t n) {
  WorkloadSpec spec;
  spec.cluster = paper_cluster(n);
  spec.n = n;
  spec.senders = n;
  spec.messages_per_sender = static_cast<int>(200 / n) + 6;
  spec.message_size = 100 * 1024;
  WorkloadResult r = run_workload(spec);
  return r.completed ? r.goodput_mbps : -1;
}

void BM_BaselinePacket(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  double fsr = 0, fixed = 0;
  for (auto _ : state) {
    fsr = fsr_mbps(n);
    fixed = fixed_seq_mbps(n);
  }
  state.counters["FSR_Mbps"] = fsr;
  state.counters["fixedseq_Mbps"] = fixed;
  state.counters["privilege_Mbps"] = privilege_mbps(n, 8);
  state.counters["movingseq_Mbps"] = moving_seq_mbps(n);
}
BENCHMARK(BM_BaselinePacket)->DenseRange(2, 10, 2)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  fsr::bench::print_header(
      "Packet-level comparison (n-to-n, 100 KB, 100 Mb/s wire): FSR ring vs "
      "fixed sequencer, moving sequencer and privilege/token",
      {"processes", "FSR Mb/s", "fixed-seq", "moving-seq", "privilege", "FSR advantage"});
  fsr::bench::JsonReport report("baseline_packet");
  report.config("message_size", std::uint64_t{100 * 1024});
  for (std::size_t n : {std::size_t{2}, std::size_t{4}, std::size_t{6},
                        std::size_t{8}, std::size_t{10}}) {
    double a = fsr_mbps(n);
    double b = fixed_seq_mbps(n);
    double m = moving_seq_mbps(n);
    double p = privilege_mbps(n, 8);
    double best = std::max(b, std::max(m, p));
    fsr::bench::print_row({std::to_string(n), fsr::bench::fmt(a, 1), fsr::bench::fmt(b, 1),
                           fsr::bench::fmt(m, 1), fsr::bench::fmt(p, 1),
                           fsr::bench::fmt(a / best, 1) + "x"});
    report.add_row()
        .num("processes", static_cast<std::uint64_t>(n))
        .num("fsr_mbps", a)
        .num("fixed_seq_mbps", b)
        .num("moving_seq_mbps", m)
        .num("privilege_mbps", p);
  }
  report.write();
  return 0;
}
