// The paper's round-based model (§3) and analytic claims (§4.3):
//   * FSR latency is exactly L(i) = 2n + t - i - 1 rounds,
//   * FSR throughput >= 1 completed broadcast per round, independent of
//     n, t and the number of senders,
//   * FSR is fair,
//   * the baseline protocol classes behave as §2 describes (sequencer
//     receive bottleneck, moving-sequencer 1/2 cap, privilege trade-off).
#include <gtest/gtest.h>

#include "common/stats.h"
#include "ring/rules.h"
#include "roundmodel/engine_round.h"
#include "roundmodel/fixed_seq_round.h"
#include "roundmodel/moving_seq_round.h"
#include "roundmodel/privilege_round.h"

namespace fsr::rounds {
namespace {

double steady_throughput(Protocol& proto, const WorkloadSpec& spec,
                         long long warmup = 400, long long window = 2000) {
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

// --- FSR latency (paper §4.3.1) ---

TEST(RoundModelFsr, LatencyMatchesFormulaForStandardSenders) {
  // Every origin, backups included: L(i) = 2n + t - i - 1 for i >= 1. The
  // leader's own broadcast has no DATA pass: n + t - 1 rounds.
  for (int n = 3; n <= 12; ++n) {
    for (int t = 0; t <= 5 && t < n - 1; ++t) {
      auto topo = ring::Topology{static_cast<std::uint32_t>(n),
                                 static_cast<std::uint32_t>(t)};
      for (int i = 0; i < n; ++i) {
        EngineRound proto(n, t);
        RoundEngine engine({n, {i}, 1}, proto);
        engine.run(6 * n + 10);
        ASSERT_EQ(engine.completed(), 1) << "n=" << n << " t=" << t << " i=" << i;
        long long expect = i == 0 ? n + t - 1
                                  : static_cast<long long>(
                                        topo.analytic_latency(static_cast<Position>(i)));
        // completion_round is 0-based: L hops occupy rounds 0..L-1.
        EXPECT_EQ(engine.latency(0) + 1, expect) << "n=" << n << " t=" << t << " i=" << i;
      }
    }
  }
}

TEST(RoundModelFsr, LatencyIsLinearInN) {
  // Fixed sender position (2), growing ring: L(2) = 2n + t - 3, so latency
  // grows by exactly 2 rounds per added process.
  long long prev = -1;
  for (int n = 4; n <= 12; ++n) {
    EngineRound proto(n, 1);
    RoundEngine engine({n, {2}, 1}, proto);
    engine.run(6 * n + 10);
    ASSERT_EQ(engine.completed(), 1);
    long long lat = engine.latency(0);
    if (prev >= 0) {
      EXPECT_EQ(lat - prev, 2) << "n=" << n;
    }
    prev = lat;
  }
}

// --- FSR throughput (paper §4.3.2) ---

TEST(RoundModelFsr, OneToNThroughputIsOne) {
  for (int n : {3, 5, 8, 10}) {
    EngineRound proto(n, 1);
    double tp = steady_throughput(proto, {n, {n - 1}, -1});
    EXPECT_GE(tp, 0.99) << "n=" << n;
    EXPECT_LE(tp, 1.01) << "n=" << n;
  }
}

TEST(RoundModelFsr, NToNThroughputIsOne) {
  for (int n : {3, 5, 8, 10}) {
    EngineRound proto(n, 1);
    double tp = steady_throughput(proto, {n, all_senders(n), -1});
    EXPECT_GE(tp, 0.99) << "n=" << n;
  }
}

TEST(RoundModelFsr, KToNThroughputIsOne) {
  // The case privilege-based protocols lose (paper §1): k strictly between
  // 1 and n.
  for (int k : {2, 3, 4}) {
    int n = 8;
    std::vector<int> senders;
    for (int i = 0; i < k; ++i) senders.push_back(i * (n / k));
    EngineRound proto(n, 1);
    double tp = steady_throughput(proto, {n, senders, -1});
    EXPECT_GE(tp, 0.99) << "k=" << k;
  }
}

TEST(RoundModelFsr, ThroughputIndependentOfT) {
  for (int t : {0, 1, 2, 3, 4}) {
    EngineRound proto(8, t);
    double tp = steady_throughput(proto, {8, all_senders(8), -1});
    EXPECT_GE(tp, 0.99) << "t=" << t;
  }
}

TEST(RoundModelFsr, FairnessTwoOpposedBurstySenders) {
  // The §2.3 scenario: two senders at opposite sides of the ring. FSR must
  // give them equal shares.
  int n = 8;
  EngineRound proto(n, 1);
  RoundEngine engine({n, {2, 6}, -1}, proto);
  engine.run(3000);
  auto by_origin = engine.completed_by_origin();
  std::vector<double> shares;
  for (auto& [origin, count] : by_origin) shares.push_back(static_cast<double>(count));
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_GT(jain_fairness(shares), 0.999);
  EXPECT_EQ(engine.check_total_order(), "");
}

TEST(RoundModelFsr, FairnessAllSenders) {
  int n = 6;
  EngineRound proto(n, 2);
  RoundEngine engine({n, all_senders(n), -1}, proto);
  engine.run(3000);
  auto by_origin = engine.completed_by_origin();
  std::vector<double> shares;
  for (auto& [origin, count] : by_origin) shares.push_back(static_cast<double>(count));
  ASSERT_EQ(shares.size(), static_cast<std::size_t>(n));
  EXPECT_GT(jain_fairness(shares), 0.99);
}

// --- Fixed sequencer (paper §2.1): receive bottleneck ---

TEST(RoundModelFixedSeq, OneToNThroughputCollapsesWithN) {
  // Sender is not the sequencer: sequencer absorbs data + n-1 ack streams.
  for (int n : {4, 8}) {
    FixedSeqRound proto(n);
    double tp = steady_throughput(proto, {n, {1}, -1}, 800, 4000);
    EXPECT_LT(tp, 1.2 / static_cast<double>(n - 1)) << "n=" << n;
    EXPECT_GT(tp, 0.5 / static_cast<double>(n)) << "n=" << n;
  }
}

TEST(RoundModelFixedSeq, NToNPiggybackingRestoresThroughput) {
  // Footnote 2: acks can be piggybacked only when all processes broadcast
  // all the time — then the sequencer receives one data+ack per round.
  FixedSeqRound proto(6);
  double tp = steady_throughput(proto, {6, all_senders(6), -1});
  EXPECT_GT(tp, 0.9);
}

TEST(RoundModelFixedSeq, DeliversEverythingEventually) {
  FixedSeqRound proto(5);
  RoundEngine engine({5, {1, 3}, 20}, proto);
  engine.run(3000);
  EXPECT_EQ(engine.completed(), 40);
  EXPECT_EQ(engine.check_total_order(), "");
}

// --- Moving sequencer (paper §2.2): capped at 1/2 ---

TEST(RoundModelMovingSeq, ThroughputCappedByDoubleReceive) {
  // Every process must receive both the data broadcast and the seq/token
  // broadcast of each message, except the ones it sent itself. The exact
  // receive-capacity cap is therefore n/(2n-1) for 1-to-n (a process
  // sequences 1/n of the traffic) and 1/(2-2/n) for n-to-n — approaching
  // the paper's 1/2 as n grows, never reaching 1.
  for (int n : {4, 6, 8}) {
    {
      MovingSeqRound proto(n, /*window=*/6);
      double tp = steady_throughput(proto, {n, {1}, -1}, 800, 4000);
      double cap = static_cast<double>(n) / (2.0 * n - 1.0);
      EXPECT_LE(tp, cap + 0.01) << "1-to-n, n=" << n;
      EXPECT_GT(tp, 0.2) << "1-to-n, n=" << n;
    }
    {
      MovingSeqRound proto(n, /*window=*/6);
      double tp = steady_throughput(proto, {n, all_senders(n), -1}, 800, 4000);
      double cap = 1.0 / (2.0 - 2.0 / n);
      EXPECT_LE(tp, cap + 0.01) << "n-to-n, n=" << n;
      EXPECT_LT(tp, 0.7) << "n-to-n, n=" << n;
    }
  }
}

TEST(RoundModelMovingSeq, DeliversEverythingEventually) {
  MovingSeqRound proto(5);
  RoundEngine engine({5, {0, 2, 4}, 15}, proto);
  engine.run(4000);
  EXPECT_EQ(engine.completed(), 45);
  EXPECT_EQ(engine.check_total_order(), "");
}

// --- Privilege (paper §2.3): throughput/fairness trade-off ---

TEST(RoundModelPrivilege, OpposedSendersFairHoldIsSlow) {
  int n = 8;
  PrivilegeRound proto(n, /*hold_max=*/1);
  double tp = steady_throughput(proto, {n, {2, 6}, -1}, 800, 4000);
  // Each message costs ~1 send round plus token travel: far below 1.
  EXPECT_LT(tp, 0.7);
  EXPECT_GT(tp, 0.1);
}

TEST(RoundModelPrivilege, LargeHoldIsFastButUnfair) {
  int n = 8;
  PrivilegeRound proto(n, /*hold_max=*/64);
  RoundEngine engine({n, {2, 6}, -1}, proto);
  engine.run(2000);
  // Throughput near 1 ...
  double tp = static_cast<double>(engine.completed_between(400, 2000)) / 1600.0;
  EXPECT_GT(tp, 0.8);
  // ... but unfair within any window: long runs of one origin dominate the
  // delivery order (the holder keeps the privilege for 64 messages).
  const auto& log = engine.logs()[0];
  ASSERT_GE(log.size(), 128u);
  std::size_t longest_run = 0, run = 0;
  int prev = -1;
  for (long long b : log) {
    int o = engine.origin_of(b);
    run = (o == prev) ? run + 1 : 1;
    prev = o;
    longest_run = std::max(longest_run, run);
  }
  EXPECT_GE(longest_run, 32u);

  // FSR under the identical workload interleaves tightly.
  EngineRound fsr_proto(n, 1);
  RoundEngine fsr_engine({n, {2, 6}, -1}, fsr_proto);
  fsr_engine.run(2000);
  const auto& fsr_log = fsr_engine.logs()[0];
  ASSERT_GE(fsr_log.size(), 128u);
  std::size_t fsr_longest = 0;
  run = 0;
  prev = -1;
  for (long long b : fsr_log) {
    int o = fsr_engine.origin_of(b);
    run = (o == prev) ? run + 1 : 1;
    prev = o;
    fsr_longest = std::max(fsr_longest, run);
  }
  EXPECT_LE(fsr_longest, 4u);
}

TEST(RoundModelPrivilege, SingleSenderWithInfiniteHoldReachesOne) {
  // Even with an unbounded hold, a *uniform* privilege protocol must let
  // the token rotate for stability once the send window fills, so
  // throughput is window/(window + n) — approaching 1 only with a large
  // window (and losing any fairness).
  int n = 6;
  PrivilegeRound proto(n, /*hold_max=*/1 << 20, /*window=*/512);
  double tp = steady_throughput(proto, {n, {0}, -1}, 2000, 6000);
  EXPECT_GT(tp, 0.95);
}

TEST(RoundModelPrivilege, DeliversEverythingEventually) {
  PrivilegeRound proto(5, 4);
  RoundEngine engine({5, {1, 2}, 20}, proto);
  engine.run(4000);
  EXPECT_EQ(engine.completed(), 40);
  EXPECT_EQ(engine.check_total_order(), "");
}

// --- cross-protocol: FSR dominates in the paper's k-to-n scenario ---

TEST(RoundModelComparison, FsrBeatsAllBaselinesForKToN) {
  int n = 8;
  std::vector<int> senders{2, 6};

  EngineRound fsr_p(n, 1);
  double fsr_tp = steady_throughput(fsr_p, {n, senders, -1});

  FixedSeqRound fixed_p(n);
  double fixed_tp = steady_throughput(fixed_p, {n, senders, -1}, 800, 4000);

  MovingSeqRound moving_p(n);
  double moving_tp = steady_throughput(moving_p, {n, senders, -1}, 800, 4000);

  PrivilegeRound priv_p(n, 1);
  double priv_tp = steady_throughput(priv_p, {n, senders, -1}, 800, 4000);

  EXPECT_GT(fsr_tp, 2 * fixed_tp);
  EXPECT_GT(fsr_tp, 1.8 * moving_tp);
  EXPECT_GT(fsr_tp, 1.4 * priv_tp);
  EXPECT_GE(fsr_tp, 0.99);
}

}  // namespace
}  // namespace fsr::rounds
