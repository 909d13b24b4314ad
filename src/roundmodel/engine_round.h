// FSR in the round-based model (§3/§4.3), run on the production fsr::Engine:
// one Engine per process behind a lockstep Transport. Used to verify the
// paper's analytic claims on the code that ships: throughput >= 1
// regardless of n, t and the number of senders; latency
// L(i) = 2n + t - i - 1; perfect fairness.
//
// A process's link is open only inside on_round(p), so it sends at most one
// frame per round; RoundEngine delivers at most one frame per receiver per
// round. Acks ride free, as in the model, through the engine's own
// piggybacking (§4.2.2).
#pragma once

#include <memory>
#include <vector>

#include "roundmodel/round_engine.h"

namespace fsr::rounds {

class EngineRound final : public Protocol {
 public:
  /// `window`: own broadcasts in flight per process (EngineConfig::window);
  /// must cover the ring latency (~2n rounds) for a single sender to reach
  /// throughput 1.
  EngineRound(int n, int t, int window = -1);
  ~EngineRound() override;
  // Each engine's delivery callback holds `this`.
  EngineRound(const EngineRound&) = delete;
  EngineRound& operator=(const EngineRound&) = delete;

  std::optional<Send> on_round(int p, long long round) override;
  void on_receive(int p, const Msg& m, long long round) override;
  std::string name() const override { return "fsr"; }

 private:
  struct Proc;
  Proc& proc(int p) { return *procs_[static_cast<std::size_t>(p)]; }

  std::size_t window_;
  std::vector<std::unique_ptr<Proc>> procs_;
};

}  // namespace fsr::rounds
