// §4.3.1: FSR latency in the round model is exactly L(i) = 2n + t - i - 1
// rounds for a standard sender at ring position i. This bench runs the
// production engine in the round model (EngineRound) and prints the
// measured completion round against the formula for a sweep of (n, t, i).
#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "ring/rules.h"
#include "roundmodel/engine_round.h"

namespace {

using namespace fsr;
using namespace fsr::rounds;

long long measured_latency(int n, int t, int i) {
  EngineRound proto(n, t);
  RoundEngine engine({n, {i}, 1}, proto);
  engine.run(8 * n + 20);
  if (engine.completed() != 1) return -1;
  return engine.latency(0) + 1;  // completion round is 0-based
}

void BM_ModelLatency(benchmark::State& state) {
  int n = static_cast<int>(state.range(0));
  int t = 1;
  double worst_err = 0;
  for (auto _ : state) {
    for (int i = t + 1; i < n; ++i) {
      auto expect = ring::Topology{static_cast<std::uint32_t>(n),
                                   static_cast<std::uint32_t>(t)}
                        .analytic_latency(static_cast<Position>(i));
      worst_err = std::max(
          worst_err, std::abs(static_cast<double>(measured_latency(n, t, i)) -
                              static_cast<double>(expect)));
    }
  }
  state.counters["max_abs_error_rounds"] = worst_err;
}
BENCHMARK(BM_ModelLatency)->DenseRange(3, 12)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  fsr::bench::JsonReport report("model_latency");
  for (int t : {0, 1, 2}) {
    fsr::bench::print_header(
        "FSR round-model latency, t = " + std::to_string(t) +
            " (rounds; formula L(i) = 2n + t - i - 1, paper §4.3.1)",
        {"n", "sender i", "measured", "formula"});
    for (int n = 4; n <= 12; n += 4) {
      for (int i = t + 1; i < n; i += std::max(1, n / 4)) {
        long long m = measured_latency(n, t, i);
        auto f = ring::Topology{static_cast<std::uint32_t>(n),
                                static_cast<std::uint32_t>(t)}
                     .analytic_latency(static_cast<Position>(i));
        fsr::bench::print_row({std::to_string(n), std::to_string(i), std::to_string(m),
                               std::to_string(f)});
        report.add_row()
            .num("t", static_cast<std::uint64_t>(t))
            .num("n", static_cast<std::uint64_t>(n))
            .num("sender", static_cast<std::uint64_t>(i))
            .num("measured_rounds", static_cast<double>(m))
            .num("formula_rounds", static_cast<double>(f));
      }
    }
  }
  report.write();
  return 0;
}
