// Figures 1-3 + §2/§4.3.2: throughput of all five TO-broadcast protocol
// classes of the paper's taxonomy in its round-based model (§3), across the
// traffic patterns the paper discusses. One row per (protocol, pattern):
// completed TO-broadcasts per round in steady state.
//
// Expected shape (paper §2):
//   fixed sequencer : ~1/n for 1-to-n (receive bottleneck: data + n-1 ack
//                     streams), ~1 only for n-to-n (acks piggybacked);
//   moving sequencer: capped at n/(2n-1) ~ 1/2 (each delivery costs two
//                     receives: data broadcast + seq/token broadcast);
//   privilege (token): hold_max trades throughput against fairness; the
//                     fair setting wastes token-rotation rounds in k-to-n;
//   comm. history   : quadratic clock/heartbeat traffic saturates the
//                     receive slots (~1/(n-1));
//   dest. agreement : per-message agreement costs proposal + acks +
//                     decision (coordinator receive-bound);
//   FSR             : >= 1 for every pattern, independent of n, t, k (the
//                     production engine, run through EngineRound).
#include <benchmark/benchmark.h>

#include <memory>

#include "bench_common.h"
#include "roundmodel/comm_history_round.h"
#include "roundmodel/dest_agreement_round.h"
#include "roundmodel/engine_round.h"
#include "roundmodel/fixed_seq_round.h"
#include "roundmodel/moving_seq_round.h"
#include "roundmodel/privilege_round.h"

namespace {

using namespace fsr;
using namespace fsr::rounds;

enum class Proto { kFsr, kFixed, kMoving, kPrivilege, kCommHistory, kDestAgreement };

std::unique_ptr<Protocol> make_proto(Proto p, int n) {
  switch (p) {
    case Proto::kFsr: return std::make_unique<EngineRound>(n, 1);
    case Proto::kFixed: return std::make_unique<FixedSeqRound>(n);
    case Proto::kMoving: return std::make_unique<MovingSeqRound>(n, 8);
    case Proto::kPrivilege: return std::make_unique<PrivilegeRound>(n, 1);
    case Proto::kCommHistory: return std::make_unique<CommHistoryRound>(n, 8);
    case Proto::kDestAgreement: return std::make_unique<DestAgreementRound>(n);
  }
  return nullptr;
}

const char* proto_name(Proto p) {
  switch (p) {
    case Proto::kFsr: return "FSR";
    case Proto::kFixed: return "fixed-seq";
    case Proto::kMoving: return "moving-seq";
    case Proto::kPrivilege: return "privilege";
    case Proto::kCommHistory: return "comm-history";
    case Proto::kDestAgreement: return "dest-agreement";
  }
  return "?";
}

std::vector<int> pattern_senders(const std::string& pattern, int n) {
  if (pattern == "1-to-n") return {1};
  if (pattern == "2-to-n") return {1, 1 + n / 2};  // opposite sides
  std::vector<int> all;
  for (int i = 0; i < n; ++i) all.push_back(i);
  return all;
}

double throughput(Proto p, const std::string& pattern, int n) {
  auto proto = make_proto(p, n);
  RoundEngine engine({n, pattern_senders(pattern, n), -1}, *proto);
  const long long warmup = 1000, window = 4000;
  engine.run(warmup + window);
  if (!engine.check_total_order().empty()) return -1;
  return static_cast<double>(engine.completed_between(warmup, warmup + window)) /
         static_cast<double>(window);
}

void BM_ModelComparison(benchmark::State& state) {
  auto p = static_cast<Proto>(state.range(0));
  int n = static_cast<int>(state.range(1));
  double one = 0, two = 0, all = 0;
  for (auto _ : state) {
    one = throughput(p, "1-to-n", n);
    two = throughput(p, "2-to-n", n);
    all = throughput(p, "n-to-n", n);
  }
  state.SetLabel(proto_name(p));
  state.counters["1-to-n"] = one;
  state.counters["2-to-n"] = two;
  state.counters["n-to-n"] = all;
}
BENCHMARK(BM_ModelComparison)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5}, {5, 10}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  fsr::bench::JsonReport report("model_comparison");
  for (int n : {5, 10}) {
    fsr::bench::print_header(
        "Round-model throughput, n = " + std::to_string(n) +
            " (completed TO-broadcasts per round; FSR claim: >= 1 everywhere)",
        {"protocol", "1-to-n", "2-to-n", "n-to-n"});
    for (Proto p : {Proto::kFsr, Proto::kFixed, Proto::kMoving, Proto::kPrivilege,
                    Proto::kCommHistory, Proto::kDestAgreement}) {
      fsr::bench::print_row({proto_name(p), fsr::bench::fmt(throughput(p, "1-to-n", n), 3),
                             fsr::bench::fmt(throughput(p, "2-to-n", n), 3),
                             fsr::bench::fmt(throughput(p, "n-to-n", n), 3)});
      report.add_row()
          .num("processes", static_cast<std::uint64_t>(n))
          .str("protocol", proto_name(p))
          .num("throughput_1_to_n", throughput(p, "1-to-n", n))
          .num("throughput_2_to_n", throughput(p, "2-to-n", n))
          .num("throughput_n_to_n", throughput(p, "n-to-n", n));
    }
  }
  report.write();
  return 0;
}
