// The packet-level fixed-sequencer baseline: correctness (identical logs,
// completeness, segmentation) and its §2.1 performance signature — the
// sequencer's NIC fan-out caps goodput near wire/(n-1), unlike FSR.
#include <gtest/gtest.h>

#include "baselines/cluster.h"
#include "harness/sim_cluster.h"

namespace fsr::baselines {
namespace {

FixedSeqConfig small_cfg() {
  FixedSeqConfig cfg;
  cfg.segment_size = 4096;
  cfg.window = 8;
  return cfg;
}

TEST(FixedSeqEngine, SingleBroadcastReachesAll) {
  FixedSeqCluster c(NetConfig{}, 4, small_cfg());
  c.broadcast(2, test_payload(2, 1, 1000));
  c.sim().run();
  for (NodeId n = 0; n < 4; ++n) {
    ASSERT_EQ(c.log(n).size(), 1u) << "node " << n;
    EXPECT_EQ(c.log(n)[0].origin, 2u);
    EXPECT_EQ(c.log(n)[0].bytes, 1000u);
  }
}

TEST(FixedSeqEngine, SequencerOwnBroadcasts) {
  FixedSeqCluster c(NetConfig{}, 3, small_cfg());
  for (int i = 0; i < 5; ++i) c.broadcast(0, test_payload(0, static_cast<std::uint64_t>(i + 1), 800));
  c.sim().run();
  for (NodeId n = 0; n < 3; ++n) EXPECT_EQ(c.log(n).size(), 5u);
  EXPECT_EQ(c.check_logs_identical(), "");
}

TEST(FixedSeqEngine, ConcurrentSendersTotalOrder) {
  FixedSeqCluster c(NetConfig{}, 5, small_cfg());
  for (NodeId s = 0; s < 5; ++s) {
    for (int i = 0; i < 12; ++i) {
      c.broadcast(s, test_payload(s, static_cast<std::uint64_t>(i + 1), 2000));
    }
  }
  c.sim().run();
  for (NodeId n = 0; n < 5; ++n) EXPECT_EQ(c.log(n).size(), 60u) << "node " << n;
  EXPECT_EQ(c.check_logs_identical(), "");
}

TEST(FixedSeqEngine, LargeMessageSegmentsAndReassembles) {
  FixedSeqCluster c(NetConfig{}, 3, small_cfg());
  c.broadcast(1, test_payload(1, 1, 100 * 1024));
  c.sim().run();
  for (NodeId n = 0; n < 3; ++n) {
    ASSERT_EQ(c.log(n).size(), 1u);
    EXPECT_EQ(c.log(n)[0].bytes, 100u * 1024u);
  }
}

TEST(FixedSeqEngine, SequencerFanOutCapsThroughputUnlikeFsr) {
  // The comparison that motivates FSR: at n = 6, the fixed sequencer's NIC
  // must push 5 copies of every payload, capping goodput near wire/5,
  // while FSR stays at the ~79 Mb/s plateau.
  const std::size_t n = 6;
  const int msgs = 30;
  const std::size_t size = 100 * 1024;

  FixedSeqConfig fcfg;
  fcfg.segment_size = size;
  fcfg.window = 16;
  FixedSeqCluster fixed(NetConfig{}, n, fcfg);
  for (std::size_t s = 0; s < n; ++s) {
    for (int i = 0; i < msgs; ++i) {
      fixed.broadcast(static_cast<NodeId>(s),
                      test_payload(static_cast<NodeId>(s), static_cast<std::uint64_t>(i + 1), size));
    }
  }
  fixed.sim().run();
  EXPECT_EQ(fixed.check_logs_identical(), "");
  ASSERT_EQ(fixed.log(1).size(), n * msgs);
  double fixed_mbps = static_cast<double>(n * msgs * size) * 8.0 /
                      static_cast<double>(fixed.log(1).back().at) * 1000.0;

  ClusterConfig rcfg;
  rcfg.n = n;
  rcfg.group.engine.t = 1;
  rcfg.group.engine.segment_size = size;
  rcfg.group.engine.window = 16;
  SimCluster ring(rcfg);
  for (std::size_t s = 0; s < n; ++s) {
    for (int i = 0; i < msgs; ++i) {
      ring.broadcast(static_cast<NodeId>(s),
                     test_payload(static_cast<NodeId>(s), static_cast<std::uint64_t>(i + 1), size));
    }
  }
  ring.sim().run();
  ASSERT_EQ(ring.log(1).size(), n * msgs);
  double fsr_mbps = static_cast<double>(n * msgs * size) * 8.0 /
                    static_cast<double>(ring.log(1).back().at) * 1000.0;

  EXPECT_LT(fixed_mbps, 35.0);           // ~94/(n-1) plus processing
  EXPECT_GT(fsr_mbps, 70.0);             // the ring plateau
  EXPECT_GT(fsr_mbps, 2.5 * fixed_mbps); // the headline gap
}

}  // namespace
}  // namespace fsr::baselines
