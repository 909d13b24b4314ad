// The remaining two protocol classes of the paper's §2 taxonomy in the
// round model: communication history (§2.4) and destination agreement
// (§2.5). Both must be safe (total order, eventual delivery) and must
// exhibit the poor throughput the paper attributes to them.
#include <gtest/gtest.h>

#include "roundmodel/comm_history_round.h"
#include "roundmodel/dest_agreement_round.h"
#include "roundmodel/engine_round.h"

namespace fsr::rounds {
namespace {

double steady_throughput(Protocol& proto, const WorkloadSpec& spec,
                         long long warmup = 1000, long long window = 4000) {
  RoundEngine engine(spec, proto);
  engine.run(warmup + window);
  EXPECT_EQ(engine.check_total_order(), "") << proto.name();
  return static_cast<double>(engine.completed_between(warmup, warmup + window)) /
         static_cast<double>(window);
}

std::vector<int> all_senders(int n) {
  std::vector<int> s;
  for (int i = 0; i < n; ++i) s.push_back(i);
  return s;
}

// --- communication history ---

TEST(RoundModelCommHistory, DeliversEverythingEventually) {
  CommHistoryRound proto(5);
  RoundEngine engine({5, {0, 2, 4}, 12}, proto);
  engine.run(4000);
  EXPECT_EQ(engine.completed(), 36);
  EXPECT_EQ(engine.check_total_order(), "");
}

TEST(RoundModelCommHistory, SingleMessageHasBoundedLatency) {
  CommHistoryRound proto(6);
  RoundEngine engine({6, {3}, 1}, proto);
  engine.run(100);
  ASSERT_EQ(engine.completed(), 1);
  // Stability needs a clock from everyone: latency is a few rounds, but the
  // single-receive bottleneck of constant heartbeats stretches it.
  EXPECT_LE(engine.latency(0), 40);
}

TEST(RoundModelCommHistory, QuadraticTrafficCollapsesThroughput) {
  // The §2.4 claim: the constant all-to-all clock traffic saturates the
  // single receive slot, so throughput falls with n toward 1/(n-1).
  for (int n : {4, 6, 8}) {
    CommHistoryRound proto(n, /*window=*/6);
    double tp = steady_throughput(proto, {n, {1}, -1});
    EXPECT_LT(tp, 1.6 / static_cast<double>(n - 1)) << "n=" << n;
    EXPECT_GT(tp, 0.4 / static_cast<double>(n - 1)) << "n=" << n;
  }
}

TEST(RoundModelCommHistory, OnlyFullNToNPiggybacksClocks) {
  // Mirroring the paper's footnote 2 for sequencers: when *every* process
  // broadcasts all the time, clock information piggybacks on data and the
  // class becomes throughput-efficient (n/(n-1)); with even one silent
  // process the heartbeat traffic drags it right back down.
  int n = 6;
  {
    CommHistoryRound proto(n, 6);
    double tp = steady_throughput(proto, {n, all_senders(n), -1});
    EXPECT_GT(tp, 1.0);
  }
  {
    CommHistoryRound proto(n, 6);
    double tp = steady_throughput(proto, {n, {0, 1, 2, 3, 4}, -1});  // 5-of-6
    EXPECT_LT(tp, 0.9);
  }
}

TEST(RoundModelCommHistory, TimestampTiesBrokenByOrigin) {
  // Two processes broadcasting in the same round produce clock ties; the
  // (ts, origin) rule must order them identically everywhere.
  CommHistoryRound proto(4);
  RoundEngine engine({4, {1, 2}, 10}, proto);
  engine.run(2000);
  EXPECT_EQ(engine.completed(), 20);
  EXPECT_EQ(engine.check_total_order(), "");
}

// --- destination agreement ---

TEST(RoundModelDestAgreement, DeliversEverythingEventually) {
  DestAgreementRound proto(5);
  RoundEngine engine({5, {1, 3}, 15}, proto);
  engine.run(4000);
  EXPECT_EQ(engine.completed(), 30);
  EXPECT_EQ(engine.check_total_order(), "");
}

TEST(RoundModelDestAgreement, CoordinatorReceiveSlotCapsOneToN) {
  for (int n : {4, 8}) {
    DestAgreementRound proto(n);
    double tp = steady_throughput(proto, {n, {1}, -1});
    EXPECT_LT(tp, 1.3 / static_cast<double>(n - 1)) << "n=" << n;
  }
}

TEST(RoundModelDestAgreement, WellBelowFsrEverywhere) {
  int n = 6;
  EngineRound fsr_p(n, 1);
  DestAgreementRound da_p(n);
  double fsr_tp = steady_throughput(fsr_p, {n, all_senders(n), -1});
  double da_tp = steady_throughput(da_p, {n, all_senders(n), -1});
  EXPECT_GT(fsr_tp, 1.5 * da_tp);
}

TEST(RoundModelDestAgreement, CoordinatorAsSenderStillSafe) {
  DestAgreementRound proto(4);
  RoundEngine engine({4, {0}, 20}, proto);
  engine.run(3000);
  EXPECT_EQ(engine.completed(), 20);
  EXPECT_EQ(engine.check_total_order(), "");
}

}  // namespace
}  // namespace fsr::rounds
