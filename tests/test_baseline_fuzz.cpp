// Randomized workloads over the three packet-level baseline engines: for
// many seeds, arbitrary sender sets / message sizes / submit times must
// yield complete, identical delivery logs at every node (total order +
// agreement + liveness), like the FSR fuzzers do for the core engine.
#include <gtest/gtest.h>

#include "baselines/cluster.h"
#include "common/rng.h"
#include "harness/sim_cluster.h"
#include "support/seeded_test.h"

namespace fsr::baselines {
namespace {

struct Workload {
  std::size_t n;
  std::vector<std::tuple<NodeId, std::uint64_t, std::size_t, Time>> sends;
  std::size_t total = 0;
};

Workload make_workload(Rng& rng) {
  Workload w;
  w.n = 3 + rng.below(6);
  std::map<NodeId, std::uint64_t> app;
  int msgs = 10 + static_cast<int>(rng.below(40));
  for (int i = 0; i < msgs; ++i) {
    auto s = static_cast<NodeId>(rng.below(w.n));
    w.sends.push_back({s, ++app[s], 1 + rng.below(30000),
                       static_cast<Time>(rng.below(30)) * kMillisecond});
  }
  w.total = w.sends.size();
  return w;
}

template <typename Cluster>
void drive_and_check(Cluster& c, const Workload& w, std::uint64_t seed,
                     const char* name) {
  FSR_SEED_TRACE(seed, std::string(name) + " n=" + std::to_string(w.n) +
                           " msgs=" + std::to_string(w.total));
  for (const auto& [s, app, size, at] : w.sends) {
    NodeId sender = s;
    std::uint64_t a = app;
    std::size_t sz = size;
    c.sim().schedule_at(at, [&c, sender, a, sz] {
      c.broadcast(sender, test_payload(sender, a, sz));
    });
  }
  c.sim().run();
  for (std::size_t node = 0; node < w.n; ++node) {
    ASSERT_EQ(c.log(static_cast<NodeId>(node)).size(), w.total)
        << name << " seed=" << seed << " node=" << node << " n=" << w.n;
  }
  ASSERT_EQ(c.check_logs_identical(), "") << name << " seed=" << seed;
}

struct FuzzParam {
  std::uint64_t seed;
};

class BaselineFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

TEST_P(BaselineFuzzTest, FixedSequencerSafeAndComplete) {
  Rng rng(GetParam().seed);
  Workload w = make_workload(rng);
  FixedSeqConfig cfg;
  cfg.segment_size = 1024 + rng.below(8192);
  cfg.window = 4 + rng.below(16);
  FixedSeqCluster c(NetConfig{}, w.n, cfg);
  drive_and_check(c, w, GetParam().seed, "fixed-seq");
}

TEST_P(BaselineFuzzTest, MovingSequencerSafeAndComplete) {
  Rng rng(GetParam().seed ^ 0x5555);
  Workload w = make_workload(rng);
  MovingSeqConfig cfg;
  cfg.segment_size = 1024 + rng.below(8192);
  cfg.batch = 1 + rng.below(12);
  MovingSeqCluster c(NetConfig{}, w.n, cfg);
  drive_and_check(c, w, GetParam().seed, "moving-seq");
}

TEST_P(BaselineFuzzTest, PrivilegeSafeAndComplete) {
  Rng rng(GetParam().seed ^ 0xaaaa);
  Workload w = make_workload(rng);
  PrivilegeConfig cfg;
  cfg.segment_size = 1024 + rng.below(8192);
  cfg.hold_max = 1 + rng.below(12);
  PrivilegeCluster c(NetConfig{}, w.n, cfg);
  drive_and_check(c, w, GetParam().seed, "privilege");
}

std::vector<FuzzParam> seeds() {
  std::vector<FuzzParam> out;
  for (std::uint64_t s = 1; s <= 20; ++s) out.push_back({s * 0x517cc1b727220a95ULL});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineFuzzTest, ::testing::ValuesIn(seeds()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.index);
                         });

}  // namespace
}  // namespace fsr::baselines
