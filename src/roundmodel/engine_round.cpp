#include "roundmodel/engine_round.h"

#include <deque>
#include <stdexcept>
#include <utility>

#include "fsr/engine.h"

namespace fsr::rounds {

namespace {

/// Idle only while its process's round is open and nothing was sent yet.
/// The model has no clock, so timers are a configuration error.
class LockstepTransport final : public Transport {
 public:
  explicit LockstepTransport(NodeId self) : self_(self) {}
  NodeId self() const override { return self_; }
  Time now() const override { return 0; }
  bool tx_idle() const override { return open_ && !frame_; }

  void send(Frame frame) override {
    // One frame per process per round, sent only during its send step.
    if (!tx_idle()) {
      throw std::logic_error("round model: frame sent while the link is busy");
    }
    frame_ = std::move(frame);
  }

  TimerId set_timer(Time, std::function<void()>) override {
    throw std::logic_error("round model has no clock: the engine must not arm timers");
  }
  void cancel_timer(TimerId) override {
    throw std::logic_error("round model has no clock: the engine must not arm timers");
  }

  void open() { open_ = true; }

  /// Close the round's send slot, returning the frame sent in it, if any.
  std::optional<Frame> close() {
    open_ = false;
    return std::exchange(frame_, std::nullopt);
  }

 private:
  NodeId self_;
  bool open_ = false;
  std::optional<Frame> frame_;
};

}  // namespace

struct EngineRound::Proc {
  Proc(NodeId id, const EngineConfig& cfg, const View& view, Engine::DeliverFn deliver)
      : link(id), engine(link, cfg, view, std::move(deliver)) {}
  LockstepTransport link;
  Engine engine;
  std::deque<Frame> inbox;          // frames in flight to this process
  std::vector<long long> bcast_of;  // own app_msg - 1 -> broadcast id
};

EngineRound::EngineRound(int n, int t, int window)
    : window_(static_cast<std::size_t>(window < 0 ? 4 * n : window)) {
  View view;
  view.id = 1;
  for (int p = 0; p < n; ++p) view.members.push_back(static_cast<NodeId>(p));
  EngineConfig cfg;
  cfg.t = static_cast<std::uint32_t>(t);
  cfg.window = window_;
  for (int p = 0; p < n; ++p) {
    procs_.push_back(std::make_unique<Proc>(
        static_cast<NodeId>(p), cfg, view, [this, p](const Delivery& d) {
          const Proc& origin = proc(static_cast<int>(d.origin));
          engine_->deliver(p, origin.bcast_of.at(d.app_msg - 1));
        }));
  }
}

EngineRound::~EngineRound() = default;

std::optional<Send> EngineRound::on_round(int p, long long) {
  Proc& me = proc(p);
  me.link.open();
  // Keep one application message queued while the window has room; the
  // engine's fairness pick decides whether it goes out this round.
  if (engine_->has_app_message(p) && me.engine.own_queue_size() == 0 &&
      me.engine.own_in_flight() < window_) {
    me.bcast_of.push_back(engine_->take_app_message(p));
    me.engine.broadcast(Bytes{});
  }
  me.engine.on_tx_ready();
  std::optional<Frame> frame = me.link.close();
  if (!frame) return std::nullopt;
  auto to = static_cast<int>(frame->to);
  proc(to).inbox.push_back(std::move(*frame));
  return Send{{to}, Msg{}};
}

void EngineRound::on_receive(int p, const Msg&, long long) {
  Proc& me = proc(p);
  Frame frame = std::move(me.inbox.front());
  me.inbox.pop_front();
  for (const WireMsg& m : frame.msgs) me.engine.on_msg(m);
}

}  // namespace fsr::rounds
