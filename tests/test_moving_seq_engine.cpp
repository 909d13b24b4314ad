// The packet-level moving-sequencer baseline: correctness and its §2.2
// signature — better than the fixed sequencer (no payload fan-out at the
// sequencer) but still below FSR (every sender fans out n-1 copies).
#include <gtest/gtest.h>

#include "baselines/cluster.h"
#include "harness/sim_cluster.h"

namespace fsr::baselines {
namespace {

MovingSeqConfig cfg(std::size_t segment = 4096, std::size_t batch = 8) {
  MovingSeqConfig c;
  c.segment_size = segment;
  c.batch = batch;
  return c;
}

TEST(MovingSeqEngine, SingleBroadcastReachesAll) {
  MovingSeqCluster c(NetConfig{}, 4, cfg());
  c.broadcast(2, test_payload(2, 1, 1000));
  c.sim().run();
  for (NodeId n = 0; n < 4; ++n) {
    ASSERT_EQ(c.log(n).size(), 1u) << "node " << n;
    EXPECT_EQ(c.log(n)[0].origin, 2u);
    EXPECT_EQ(c.log(n)[0].bytes, 1000u);
  }
}

TEST(MovingSeqEngine, ConcurrentSendersTotalOrderAndCompleteness) {
  MovingSeqCluster c(NetConfig{}, 5, cfg());
  for (NodeId s = 0; s < 5; ++s) {
    for (int i = 0; i < 10; ++i) {
      c.broadcast(s, test_payload(s, static_cast<std::uint64_t>(i + 1), 3000));
    }
  }
  c.sim().run();
  for (NodeId n = 0; n < 5; ++n) EXPECT_EQ(c.log(n).size(), 50u) << "node " << n;
  EXPECT_EQ(c.check_logs_identical(), "");
}

TEST(MovingSeqEngine, LargeMessageSegmentsAndReassembles) {
  MovingSeqCluster c(NetConfig{}, 3, cfg(8192));
  c.broadcast(1, test_payload(1, 1, 200 * 1024));
  c.sim().run();
  for (NodeId n = 0; n < 3; ++n) {
    ASSERT_EQ(c.log(n).size(), 1u);
    EXPECT_EQ(c.log(n)[0].bytes, 200u * 1024u);
  }
}

TEST(MovingSeqEngine, WakesParkedTokenForLateSender) {
  MovingSeqCluster c(NetConfig{}, 4, cfg());
  c.sim().run();  // idle: token parks
  c.broadcast(3, test_payload(3, 1, 2000));
  c.sim().run();
  for (NodeId n = 0; n < 4; ++n) {
    ASSERT_EQ(c.log(n).size(), 1u) << "node " << n;
  }
}

TEST(MovingSeqEngine, BeatsFixedSequencerButNotFsr) {
  // The §2 ordering at n = 6, n-to-n, 100 KB: fixed < moving < FSR.
  const std::size_t n = 6;
  const int msgs = 10;
  const std::size_t size = 100 * 1024;

  auto run_mbps = [&](auto& cluster) {
    for (std::size_t s = 0; s < n; ++s) {
      for (int i = 0; i < msgs; ++i) {
        cluster.broadcast(static_cast<NodeId>(s),
                          test_payload(static_cast<NodeId>(s),
                                       static_cast<std::uint64_t>(i + 1), size));
      }
    }
    cluster.sim().run();
    EXPECT_EQ(cluster.log(0).size(), n * msgs);
    return static_cast<double>(n * msgs * size) * 8.0 /
           static_cast<double>(cluster.log(0).back().at) * 1000.0;
  };

  MovingSeqConfig mcfg;
  mcfg.segment_size = size;
  mcfg.batch = 8;
  MovingSeqCluster moving(NetConfig{}, n, mcfg);
  double moving_mbps = run_mbps(moving);

  FixedSeqConfig fcfg;
  fcfg.segment_size = size;
  fcfg.window = 16;
  FixedSeqCluster fixed(NetConfig{}, n, fcfg);
  double fixed_mbps = run_mbps(fixed);

  ClusterConfig rcfg;
  rcfg.n = n;
  rcfg.group.engine.t = 1;
  rcfg.group.engine.segment_size = size;
  SimCluster ring(rcfg);
  double fsr_mbps = run_mbps(ring);

  EXPECT_GT(moving_mbps, 1.3 * fixed_mbps);
  EXPECT_GT(fsr_mbps, 1.3 * moving_mbps);
}

}  // namespace
}  // namespace fsr::baselines
