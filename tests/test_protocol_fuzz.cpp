// Cross-protocol fuzz in the round model: all six protocols (FSR + the five
// taxonomy baselines... fixed, moving, privilege, comm-history,
// dest-agreement) under randomized sender sets, windows and ring sizes.
// Every protocol must maintain total order and deliver every accepted
// broadcast; FSR must additionally complete them all within a bounded
// number of rounds.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "roundmodel/comm_history_round.h"
#include "roundmodel/dest_agreement_round.h"
#include "roundmodel/engine_round.h"
#include "roundmodel/fixed_seq_round.h"
#include "roundmodel/moving_seq_round.h"
#include "roundmodel/privilege_round.h"
#include "support/seeded_test.h"

namespace fsr::rounds {
namespace {

struct FuzzParam {
  std::uint64_t seed;
};

class ProtocolFuzzTest : public ::testing::TestWithParam<FuzzParam> {};

std::unique_ptr<Protocol> make(int which, int n, Rng& rng) {
  switch (which) {
    case 0: return std::make_unique<EngineRound>(n, 1 + static_cast<int>(rng.below(3)));
    case 1: return std::make_unique<FixedSeqRound>(n, 4 + static_cast<int>(rng.below(20)));
    case 2: return std::make_unique<MovingSeqRound>(n, 4 + static_cast<int>(rng.below(12)));
    case 3:
      return std::make_unique<PrivilegeRound>(n, 1 + static_cast<int>(rng.below(8)),
                                              4 + static_cast<int>(rng.below(20)));
    case 4: return std::make_unique<CommHistoryRound>(n, 4 + static_cast<int>(rng.below(12)));
    default: return std::make_unique<DestAgreementRound>(n, 4 + static_cast<int>(rng.below(20)));
  }
}

TEST_P(ProtocolFuzzTest, AllProtocolsSafeAndLive) {
  Rng rng(GetParam().seed);
  int n = 3 + static_cast<int>(rng.below(8));  // 3..10
  FSR_SEED_TRACE(GetParam().seed, "n=" + std::to_string(n));

  // Random sender set and per-sender counts.
  std::vector<int> senders;
  for (int p = 0; p < n; ++p) {
    if (rng.chance(0.5)) senders.push_back(p);
  }
  if (senders.empty()) senders.push_back(static_cast<int>(rng.below(n)));
  long long per_sender = 3 + static_cast<long long>(rng.below(12));
  long long total = static_cast<long long>(senders.size()) * per_sender;

  for (int which = 0; which < 6; ++which) {
    auto proto = make(which, n, rng);
    RoundEngine engine({n, senders, per_sender}, *proto);
    // Generous horizon: the slowest class (dest-agreement / comm-history)
    // needs ~n rounds per delivery plus stability lag.
    engine.run(total * 4 * n + 40 * n + 200);
    EXPECT_EQ(engine.check_total_order(), "")
        << proto->name() << " seed=" << GetParam().seed << " n=" << n;
    EXPECT_EQ(engine.completed(), total)
        << proto->name() << " seed=" << GetParam().seed << " n=" << n
        << " senders=" << senders.size() << " per=" << per_sender;
  }
}

TEST_P(ProtocolFuzzTest, FsrCompletesWithinAnalyticHorizon) {
  Rng rng(GetParam().seed ^ 0xabcdef);
  int n = 3 + static_cast<int>(rng.below(8));
  int t = 1 + static_cast<int>(rng.below(2));
  FSR_SEED_TRACE(GetParam().seed, "n=" + std::to_string(n) + " t=" + std::to_string(t));
  std::vector<int> senders;
  for (int p = 0; p < n; ++p) {
    if (rng.chance(0.6)) senders.push_back(p);
  }
  if (senders.empty()) senders.push_back(0);
  long long per_sender = 5 + static_cast<long long>(rng.below(10));
  long long total = static_cast<long long>(senders.size()) * per_sender;

  EngineRound proto(n, t);
  RoundEngine engine({n, senders, per_sender}, proto);
  // Throughput >= 1 plus pipeline fill: everything completes within
  // total + latency-bound + slack rounds.
  long long horizon = total + 3 * n + static_cast<long long>(t) + 20;
  engine.run(horizon);
  EXPECT_EQ(engine.completed(), total)
      << "seed=" << GetParam().seed << " n=" << n << " t=" << t
      << " k=" << senders.size();
}

std::vector<FuzzParam> seeds() {
  std::vector<FuzzParam> out;
  for (std::uint64_t s = 1; s <= 50; ++s) out.push_back({s * 1099511628211ULL});
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzzTest, ::testing::ValuesIn(seeds()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.index);
                         });

}  // namespace
}  // namespace fsr::rounds
