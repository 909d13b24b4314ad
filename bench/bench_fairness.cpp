// §2.3 / §4.2.3: the fairness experiment. Two processes at opposite sides
// of the ring broadcast bursts simultaneously. A privilege/token protocol
// must either hog the token (unfair) or pass it constantly (slow); FSR
// gives both senders equal shares at full throughput, with tight
// interleaving. Reported: per-sender shares, Jain index, longest
// consecutive run of one sender in the delivery order, and throughput.
#include <benchmark/benchmark.h>

#include "baselines/cluster.h"
#include "bench_common.h"
#include "common/stats.h"
#include "roundmodel/engine_round.h"
#include "roundmodel/privilege_round.h"

namespace {

using namespace fsr;
using namespace fsr::rounds;

struct FairnessResult {
  double throughput = 0;
  double jain = 0;
  std::size_t longest_run = 0;
};

FairnessResult run_round_model(Protocol& proto, int n) {
  RoundEngine engine({n, {2, 2 + n / 2}, -1}, proto);
  const long long warmup = 1000, window = 4000;
  engine.run(warmup + window);
  FairnessResult r;
  r.throughput = static_cast<double>(engine.completed_between(warmup, warmup + window)) /
                 static_cast<double>(window);
  std::vector<double> shares;
  for (auto& [origin, count] : engine.completed_by_origin()) {
    shares.push_back(static_cast<double>(count));
  }
  r.jain = jain_fairness(shares);
  const auto& log = engine.logs()[0];
  std::size_t run = 0;
  int prev = -1;
  for (long long b : log) {
    int o = engine.origin_of(b);
    run = (o == prev) ? run + 1 : 1;
    prev = o;
    r.longest_run = std::max(r.longest_run, run);
  }
  return r;
}

FairnessResult run_packet_fsr(int n) {
  // The same scenario on the packet-level simulator.
  bench::WorkloadSpec spec;
  spec.cluster = bench::paper_cluster(static_cast<std::size_t>(n));
  spec.n = static_cast<std::size_t>(n);
  spec.senders = 0;  // custom drive below
  SimCluster c(spec.cluster);
  NodeId a = 2, b = static_cast<NodeId>(2 + n / 2);
  const int kMsgs = 60;
  for (int i = 0; i < kMsgs; ++i) {
    c.broadcast(a, test_payload(a, static_cast<std::uint64_t>(i + 1), 100 * 1024));
    c.broadcast(b, test_payload(b, static_cast<std::uint64_t>(i + 1), 100 * 1024));
  }
  c.sim().run();
  FairnessResult r;
  const auto& log = c.log(0);
  Time last = log.empty() ? 1 : log.back().at;
  std::uint64_t bytes = 0;
  for (const auto& e : log) bytes += e.bytes;
  r.throughput = static_cast<double>(bytes) * 8.0 / static_cast<double>(last) * 1000.0;
  std::map<NodeId, double> counts;
  std::size_t run = 0, longest = 0;
  NodeId prev = kNoNode;
  for (std::size_t i = log.size() / 4; i < log.size() * 3 / 4; ++i) {
    counts[log[i].origin] += 1;
  }
  for (const auto& e : log) {
    run = (e.origin == prev) ? run + 1 : 1;
    prev = e.origin;
    longest = std::max(longest, run);
  }
  r.longest_run = longest;
  std::vector<double> shares{counts[a], counts[b]};
  r.jain = jain_fairness(shares);
  return r;
}

void BM_FairnessEngineRound(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  FairnessResult r;
  for (auto _ : state) {
    EngineRound proto(n, 1);
    r = run_round_model(proto, n);
  }
  state.counters["throughput"] = r.throughput;
  state.counters["jain"] = r.jain;
}
BENCHMARK(BM_FairnessEngineRound)->Arg(8)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_FairnessPrivilege(benchmark::State& state) {
  int n = 8;
  auto hold = static_cast<int>(state.range(0));
  FairnessResult r;
  for (auto _ : state) {
    PrivilegeRound proto(n, hold);
    r = run_round_model(proto, n);
  }
  state.counters["throughput"] = r.throughput;
  state.counters["jain"] = r.jain;
  state.counters["longest_run"] = static_cast<double>(r.longest_run);
}
BENCHMARK(BM_FairnessPrivilege)->Arg(1)->Arg(8)->Arg(64)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  int n = 8;
  fsr::bench::JsonReport report("fairness");
  report.config("ring_size", std::uint64_t{8});
  fsr::bench::print_header(
      "Fairness: two opposed bursty senders, ring of 8 (round model)",
      {"protocol", "throughput", "Jain", "longest run"});
  {
    EngineRound proto(n, 1);
    auto r = run_round_model(proto, n);
    fsr::bench::print_row({"FSR", fsr::bench::fmt(r.throughput, 3),
                           fsr::bench::fmt(r.jain, 3), std::to_string(r.longest_run)});
    report.add_row()
        .str("model", "round")
        .str("protocol", "fsr")
        .num("throughput", r.throughput)
        .num("jain", r.jain)
        .num("longest_run", static_cast<std::uint64_t>(r.longest_run));
  }
  for (int hold : {1, 8, 64}) {
    PrivilegeRound proto(n, hold);
    auto r = run_round_model(proto, n);
    fsr::bench::print_row({"privilege(hold=" + std::to_string(hold) + ")",
                           fsr::bench::fmt(r.throughput, 3), fsr::bench::fmt(r.jain, 3),
                           std::to_string(r.longest_run)});
    report.add_row()
        .str("model", "round")
        .str("protocol", "privilege(hold=" + std::to_string(hold) + ")")
        .num("throughput", r.throughput)
        .num("jain", r.jain)
        .num("longest_run", static_cast<std::uint64_t>(r.longest_run));
  }

  fsr::bench::print_header(
      "Fairness: two opposed bursty senders, packet level (100 KB msgs)",
      {"protocol", "Mb/s", "Jain", "longest run"});
  auto r = run_packet_fsr(n);
  fsr::bench::print_row({"FSR", fsr::bench::fmt(r.throughput, 1),
                         fsr::bench::fmt(r.jain, 3), std::to_string(r.longest_run)});
  report.add_row()
      .str("model", "packet")
      .str("protocol", "fsr")
      .num("mbps", r.throughput)
      .num("jain", r.jain)
      .num("longest_run", static_cast<std::uint64_t>(r.longest_run));
  for (std::size_t hold : {std::size_t{1}, std::size_t{16}}) {
    baselines::PrivilegeConfig pcfg;
    pcfg.segment_size = 100 * 1024;
    pcfg.hold_max = hold;
    baselines::PrivilegeCluster c(NetConfig{}, n, pcfg);
    NodeId a = 2, b = static_cast<NodeId>(2 + n / 2);
    const int kMsgs = 40;
    for (int i = 0; i < kMsgs; ++i) {
      c.broadcast(a, test_payload(a, static_cast<std::uint64_t>(i + 1), 100 * 1024));
      c.broadcast(b, test_payload(b, static_cast<std::uint64_t>(i + 1), 100 * 1024));
    }
    c.sim().run();
    const auto& log = c.log(0);
    std::uint64_t bytes = 0;
    std::size_t longest = 0, run = 0;
    NodeId prev = kNoNode;
    std::map<NodeId, double> counts;
    for (const auto& e : log) {
      bytes += e.bytes;
      counts[e.origin] += 1;
      run = (e.origin == prev) ? run + 1 : 1;
      prev = e.origin;
      longest = std::max(longest, run);
    }
    double mbps = log.empty() ? 0
                              : static_cast<double>(bytes) * 8.0 /
                                    static_cast<double>(log.back().at) * 1000.0;
    fsr::bench::print_row({"privilege(hold=" + std::to_string(hold) + ")",
                           fsr::bench::fmt(mbps, 1),
                           fsr::bench::fmt(jain_fairness({counts[a], counts[b]}), 3),
                           std::to_string(longest)});
    report.add_row()
        .str("model", "packet")
        .str("protocol", "privilege(hold=" + std::to_string(hold) + ")")
        .num("mbps", mbps)
        .num("jain", jain_fairness({counts[a], counts[b]}))
        .num("longest_run", static_cast<std::uint64_t>(longest));
  }
  report.write();
  return 0;
}
