// Self-tests of the protocol-invariant checker: for every property it
// claims to enforce there is a seeded violation it must flag (a silently
// broken checker would make the sim and TCP harness checks vacuous) and a
// consistent history it must accept. Also covers the trace lint's fairness
// windows and the round-model latency bound L(i) = 2n + t - i - 1.
#include <gtest/gtest.h>

#include "checker/invariant_checker.h"
#include "checker/trace_lint.h"
#include "roundmodel/engine_round.h"
#include "roundmodel/round_engine.h"

namespace fsr {
namespace {

DeliveryRecord rec(NodeId node, NodeId origin, std::uint64_t app, GlobalSeq seq,
                   std::uint64_t hash = 0, ViewId view = 1) {
  return DeliveryRecord{node, 0, origin, app, seq, view, hash, 0, 0};
}

/// Preload a checker with broadcasts m(0,1), m(0,2), m(1,1), m(1,2).
void seed(InvariantChecker& c) {
  for (NodeId origin = 0; origin < 2; ++origin) {
    for (std::uint64_t app = 1; app <= 2; ++app) {
      c.on_broadcast(origin, app, origin * 100 + app);
    }
  }
}

TEST(InvariantChecker, ConsistentHistoryPasses) {
  InvariantChecker c(3);
  seed(c);
  for (NodeId node = 0; node < 3; ++node) {
    c.on_delivery(rec(node, 0, 1, 1, 1));
    c.on_delivery(rec(node, 1, 1, 2, 101));
    c.on_delivery(rec(node, 0, 2, 3, 2));
    c.on_delivery(rec(node, 1, 2, 4, 102));
  }
  EXPECT_EQ(c.online_violation(), "");
  EXPECT_EQ(c.check_all(), "");
}

TEST(InvariantChecker, SeededOrderingViolationIsCaughtOnline) {
  // Nodes 0 and 1 deliver the same two messages under swapped sequence
  // numbers — the canonical total-order violation. The online seq-identity
  // check must trip at the moment node 1 delivers.
  InvariantChecker c(3);
  seed(c);
  c.on_delivery(rec(0, 0, 1, 1, 1));
  c.on_delivery(rec(0, 1, 1, 2, 101));
  EXPECT_EQ(c.online_violation(), "");
  c.on_delivery(rec(1, 1, 1, 1, 101));  // seq 1 already carries m(0,1)
  EXPECT_NE(c.online_violation(), "");
  EXPECT_NE(c.check_all(), "");
}

TEST(InvariantChecker, SeededOrderingViolationIsCaughtOffline) {
  // Same reordering expressed only through delivery order (both nodes
  // invent their own seqs consistent per node): the pairwise total-order
  // pass must catch it even though each node's log is locally well-formed.
  InvariantChecker c(3);
  seed(c);
  c.on_delivery(rec(0, 0, 1, 1, 1));
  c.on_delivery(rec(0, 1, 1, 2, 101));
  c.on_delivery(rec(1, 1, 1, 3, 101));
  c.on_delivery(rec(1, 0, 1, 4, 1));
  EXPECT_NE(c.check_total_order(), "");
  EXPECT_NE(c.check_all(), "");
}

TEST(InvariantChecker, SeqRegressionIsCaughtOnline) {
  InvariantChecker c(3);
  seed(c);
  c.on_delivery(rec(0, 0, 1, 5, 1));
  c.on_delivery(rec(0, 0, 2, 5, 2));  // seq did not advance
  EXPECT_NE(c.online_violation(), "");
}

TEST(InvariantChecker, DuplicateDeliveryIsCaughtOnline) {
  InvariantChecker c(3);
  seed(c);
  c.on_delivery(rec(0, 0, 1, 1, 1));
  c.on_delivery(rec(0, 0, 1, 2, 1));
  EXPECT_NE(c.online_violation(), "");
}

TEST(InvariantChecker, NeverBroadcastDeliveryIsCaught) {
  InvariantChecker c(3);
  seed(c);
  c.on_delivery(rec(0, 2, 99, 1, 7));
  EXPECT_NE(c.online_violation(), "");
  EXPECT_NE(c.check_integrity(), "");
}

TEST(InvariantChecker, PayloadCorruptionIsCaught) {
  InvariantChecker c(3);
  seed(c);
  c.on_delivery(rec(0, 0, 1, 1, /*hash=*/999));
  EXPECT_NE(c.online_violation(), "");
}

TEST(InvariantChecker, ViewRegressionIsCaught) {
  InvariantChecker c(3);
  seed(c);
  c.on_delivery(rec(0, 0, 1, 1, 1, /*view=*/3));
  c.on_delivery(rec(0, 1, 1, 2, 101, /*view=*/2));
  EXPECT_NE(c.online_violation(), "");
}

TEST(InvariantChecker, OriginGapIsCaught) {
  InvariantChecker c(2);
  c.on_broadcast(0, 1, 1);
  c.on_broadcast(0, 2, 2);
  c.on_broadcast(0, 3, 3);
  c.on_delivery(rec(0, 0, 1, 1, 1));
  c.on_delivery(rec(0, 0, 3, 2, 3));  // m(0,2) lost
  EXPECT_EQ(c.online_violation(), "");  // locally just increasing...
  EXPECT_NE(c.check_fifo(), "");        // ...but the gap is a violation
  EXPECT_NE(c.check_all(), "");
}

// ------------------------------------------------- sharded (per-group) ---

DeliveryRecord grec(NodeId node, GroupId group, NodeId origin,
                    std::uint64_t app, GlobalSeq seq, std::uint64_t hash = 0,
                    ViewId view = 1) {
  return DeliveryRecord{node, group, origin, app, seq, view, hash, 0, 0};
}

TEST(InvariantChecker, IndependentGroupSequencesPass) {
  // Two ordering domains legally reuse the same GlobalSeq values: seqs are
  // scoped per group, so identical numbering across groups is NOT aliasing
  // as long as each message stays in the group it was submitted to.
  InvariantChecker c(3);
  for (GroupId g = 0; g < 2; ++g) {
    c.on_broadcast(g, 0, 1, 1000 * g + 1);
    c.on_broadcast(g, 1, 1, 1000 * g + 101);
  }
  for (NodeId node = 0; node < 3; ++node) {
    for (GroupId g = 0; g < 2; ++g) {
      c.on_delivery(grec(node, g, 0, 1, /*seq=*/1, 1000 * g + 1));
      c.on_delivery(grec(node, g, 1, 1, /*seq=*/2, 1000 * g + 101));
    }
  }
  EXPECT_EQ(c.online_violation(), "");
  EXPECT_EQ(c.check_all(), "");
  EXPECT_EQ(c.groups_seen().size(), 2u);
}

TEST(InvariantChecker, PerGroupOrderingViolationIsCaught) {
  // A swapped order inside ONE group must still trip even when another
  // group delivers a perfectly consistent history in parallel — per-group
  // scoping must not dilute the check.
  InvariantChecker c(3);
  for (GroupId g = 0; g < 2; ++g) {
    c.on_broadcast(g, 0, 1, 1000 * g + 1);
    c.on_broadcast(g, 1, 1, 1000 * g + 101);
  }
  // Group 0: consistent on both nodes.
  for (NodeId node = 0; node < 2; ++node) {
    c.on_delivery(grec(node, 0, 0, 1, 1, 1));
    c.on_delivery(grec(node, 0, 1, 1, 2, 101));
  }
  // Group 1: node 1 binds seq 1 to the other message.
  c.on_delivery(grec(0, 1, 0, 1, 1, 1001));
  c.on_delivery(grec(0, 1, 1, 1, 2, 1101));
  EXPECT_EQ(c.online_violation(), "");
  c.on_delivery(grec(1, 1, 1, 1, 1, 1101));
  EXPECT_NE(c.online_violation(), "");
  EXPECT_NE(c.check_all(), "");
}

TEST(InvariantChecker, CrossGroupSequenceAliasingIsCaught) {
  // Deliberate sabotage self-test: a message submitted in group 0 shows up
  // in group 1's delivery stream — some layer leaked a payload across
  // ordering domains. Both the online check and the offline integrity pass
  // must flag it, and the message must say so by name.
  InvariantChecker c(3);
  c.on_broadcast(GroupId{0}, 0, 1, 42);
  c.on_delivery(grec(0, 1, 0, 1, 1, 42));
  EXPECT_NE(c.online_violation(), "");
  EXPECT_NE(c.online_violation().find("aliasing"), std::string::npos)
      << c.online_violation();
  EXPECT_NE(c.check_integrity(), "");
}

TEST(InvariantChecker, UniformityViolationIsCaught) {
  // The crashed node delivered something the survivors never did.
  InvariantChecker c(3);
  seed(c);
  c.on_delivery(rec(2, 0, 1, 1, 1));
  c.note_crashed(2);
  c.on_delivery(rec(0, 1, 1, 1, 101));
  c.on_delivery(rec(1, 1, 1, 1, 101));
  EXPECT_NE(c.check_uniformity({2}, {0, 1}), "");
}

TEST(InvariantChecker, AgreementViolationIsCaught) {
  InvariantChecker c(3);
  seed(c);
  c.on_delivery(rec(0, 0, 1, 1, 1));
  c.on_delivery(rec(1, 1, 1, 1, 101));
  EXPECT_NE(c.check_agreement({0, 1}), "");
}

// --- trace lint ---

std::vector<DeliveryRecord> trace_of(const std::vector<NodeId>& origins) {
  std::vector<DeliveryRecord> log;
  std::map<NodeId, std::uint64_t> counters;
  GlobalSeq seq = 0;
  log.reserve(origins.size());
  for (NodeId o : origins) {
    log.push_back(rec(0, o, ++counters[o], ++seq));
  }
  return log;
}

TEST(TraceLint, RoundRobinTraceIsFair) {
  std::vector<NodeId> origins;
  for (int i = 0; i < 200; ++i) origins.push_back(static_cast<NodeId>(i % 4));
  LintConfig cfg;
  cfg.fairness_window = 16;
  cfg.fairness_max_share = 0.5;
  cfg.max_consecutive_run = 4;
  LintReport rep = lint_trace(trace_of(origins), cfg);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_NEAR(rep.jain_index, 1.0, 1e-9);
  EXPECT_LE(rep.longest_run, 1u);
}

TEST(TraceLint, StarvationTripsTheFairnessWindow) {
  // Two origins active, but origin 0 hogs long stretches.
  std::vector<NodeId> origins;
  for (int block = 0; block < 8; ++block) {
    for (int i = 0; i < 30; ++i) origins.push_back(0);
    origins.push_back(1);
  }
  LintConfig cfg;
  cfg.fairness_window = 16;
  cfg.fairness_max_share = 0.75;
  LintReport rep = lint_trace(trace_of(origins), cfg);
  EXPECT_FALSE(rep.ok());
}

TEST(TraceLint, LongRunTripsTheConsecutiveBound) {
  std::vector<NodeId> origins;
  for (int i = 0; i < 40; ++i) origins.push_back(static_cast<NodeId>(i % 2));
  for (int i = 0; i < 12; ++i) origins.push_back(0);  // burst mid-competition
  for (int i = 0; i < 40; ++i) origins.push_back(static_cast<NodeId>(i % 2));
  LintConfig cfg;
  cfg.fairness_window = 16;
  cfg.max_consecutive_run = 8;
  LintReport rep = lint_trace(trace_of(origins), cfg);
  EXPECT_FALSE(rep.ok());
}

TEST(TraceLint, LoneSenderMayOwnTheWindow) {
  std::vector<NodeId> origins(100, 0);  // only one active origin: no bound
  LintConfig cfg;
  cfg.fairness_window = 16;
  cfg.fairness_max_share = 0.5;
  cfg.max_consecutive_run = 4;
  LintReport rep = lint_trace(trace_of(origins), cfg);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

// --- round-model latency bound ---

TEST(LatencyBound, EngineRoundMeetsAnalyticBound) {
  // A single idle-system broadcast from every origin position, for several
  // (n, t), on the production engine: the measured completion latency must
  // satisfy the paper's L(i) = 2n + t - i - 1.
  for (int n : {4, 7}) {
    for (int t : {0, 1, 2}) {
      std::vector<RoundLatencySample> samples;
      for (int origin = 0; origin < n; ++origin) {
        rounds::EngineRound proto(n, t, /*window=*/4);
        rounds::RoundEngine engine({n, {origin}, 1}, proto);
        engine.run(6 * n + 10);
        ASSERT_EQ(engine.completed(), 1) << "n=" << n << " t=" << t << " i=" << origin;
        // completion_round is 0-based: L hops occupy rounds 0..L-1.
        samples.push_back({static_cast<Position>(origin), engine.latency(0) + 1});
      }
      EXPECT_EQ(check_latency_bound(samples, static_cast<std::uint32_t>(n),
                                    static_cast<std::uint32_t>(t)),
                "")
          << "n=" << n << " t=" << t;
    }
  }
}

TEST(LatencyBound, ExceededBoundIsReported) {
  // n=5, t=1: L(2) = 2*5 + 1 - 2 - 1 = 8. Nine rounds must be flagged.
  std::vector<RoundLatencySample> samples{{2, 9}};
  EXPECT_NE(check_latency_bound(samples, 5, 1), "");
  samples = {{2, 8}};
  EXPECT_EQ(check_latency_bound(samples, 5, 1), "");
}

}  // namespace
}  // namespace fsr
