// The packet-level privilege/token baseline: correctness (identical logs,
// completeness, token parking/wakeup) and the §2.3 trade-off signature —
// fair holds are slow for opposed senders, long holds are unfair.
#include <gtest/gtest.h>

#include "baselines/cluster.h"
#include "harness/sim_cluster.h"

namespace fsr::baselines {
namespace {

PrivilegeConfig cfg(std::size_t hold, std::size_t segment = 4096) {
  PrivilegeConfig c;
  c.hold_max = hold;
  c.segment_size = segment;
  return c;
}

TEST(PrivilegeEngine, HolderBroadcastDeliversEverywhere) {
  PrivilegeCluster c(NetConfig{}, 4, cfg(4));
  c.broadcast(0, test_payload(0, 1, 1000));  // initial holder
  c.sim().run();
  for (NodeId n = 0; n < 4; ++n) {
    ASSERT_EQ(c.log(n).size(), 1u) << "node " << n;
    EXPECT_EQ(c.log(n)[0].bytes, 1000u);
  }
}

TEST(PrivilegeEngine, NonHolderWakesParkedToken) {
  PrivilegeCluster c(NetConfig{}, 4, cfg(4));
  // Let the token rotate idle and park first.
  c.sim().run();
  // Now a non-holder wants to broadcast: the request must unpark the token.
  c.broadcast(2, test_payload(2, 1, 1000));
  c.sim().run();
  for (NodeId n = 0; n < 4; ++n) {
    ASSERT_EQ(c.log(n).size(), 1u) << "node " << n;
    EXPECT_EQ(c.log(n)[0].origin, 2u);
  }
}

TEST(PrivilegeEngine, ConcurrentSendersTotalOrderAndCompleteness) {
  PrivilegeCluster c(NetConfig{}, 5, cfg(2));
  for (NodeId s = 0; s < 5; ++s) {
    for (int i = 0; i < 8; ++i) {
      c.broadcast(s, test_payload(s, static_cast<std::uint64_t>(i + 1), 3000));
    }
  }
  c.sim().run();
  for (NodeId n = 0; n < 5; ++n) EXPECT_EQ(c.log(n).size(), 40u) << "node " << n;
  EXPECT_EQ(c.check_logs_identical(), "");
}

TEST(PrivilegeEngine, LargeMessageSegmentsAcrossTokenVisits) {
  // 100 KB in 4 KiB segments with hold_max 3: the message spans many token
  // rotations and must still reassemble everywhere.
  PrivilegeCluster c(NetConfig{}, 3, cfg(3));
  c.broadcast(1, test_payload(1, 1, 100 * 1024));
  c.sim().run();
  for (NodeId n = 0; n < 3; ++n) {
    ASSERT_EQ(c.log(n).size(), 1u);
    EXPECT_EQ(c.log(n)[0].bytes, 100u * 1024u);
  }
}

TEST(PrivilegeEngine, HoldMaxTradesFairnessForThroughput) {
  // Two opposed senders, 100 KB messages: long holds produce long
  // single-sender runs in the delivery order; hold 1 interleaves.
  auto longest_run = [](std::size_t hold) {
    PrivilegeCluster c(NetConfig{}, 6, cfg(hold, 100 * 1024));
    for (int i = 0; i < 20; ++i) {
      c.broadcast(1, test_payload(1, static_cast<std::uint64_t>(i + 1), 100 * 1024));
      c.broadcast(4, test_payload(4, static_cast<std::uint64_t>(i + 1), 100 * 1024));
    }
    c.sim().run();
    EXPECT_EQ(c.log(0).size(), 40u);
    std::size_t longest = 0, run = 0;
    NodeId prev = kNoNode;
    for (const auto& e : c.log(0)) {
      run = (e.origin == prev) ? run + 1 : 1;
      prev = e.origin;
      longest = std::max(longest, run);
    }
    return longest;
  };
  EXPECT_LE(longest_run(1), 2u);
  EXPECT_GE(longest_run(16), 16u);
}

TEST(PrivilegeEngine, ThroughputWellBelowFsrOnPointToPoint) {
  // n-to-n, 100 KB: the holder unicasts n-1 copies of each payload, so
  // aggregate goodput is capped near wire/(n-1) — far below FSR's 79.
  const std::size_t n = 6;
  const int msgs = 10;
  PrivilegeCluster c(NetConfig{}, n, cfg(8, 100 * 1024));
  for (std::size_t s = 0; s < n; ++s) {
    for (int i = 0; i < msgs; ++i) {
      c.broadcast(static_cast<NodeId>(s),
                  test_payload(static_cast<NodeId>(s),
                               static_cast<std::uint64_t>(i + 1), 100 * 1024));
    }
  }
  c.sim().run();
  ASSERT_EQ(c.log(0).size(), n * msgs);
  double mbps = static_cast<double>(n * msgs * 100 * 1024) * 8.0 /
                static_cast<double>(c.log(0).back().at) * 1000.0;
  EXPECT_LT(mbps, 35.0);
  EXPECT_GT(mbps, 5.0);
  EXPECT_EQ(c.check_logs_identical(), "");
}

}  // namespace
}  // namespace fsr::baselines
