#include "vsc/group.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace fsr {

namespace {

View joiner_placeholder(NodeId self) {
  return View{0, {self}};
}

}  // namespace

GroupMember::GroupMember(Transport& transport, GroupConfig config,
                         View initial_view, Engine::DeliverFn deliver,
                         ViewChangeFn on_view_change)
    : transport_(transport),
      cfg_(config),
      engine_(transport, config.engine,
              initial_view.contains(transport.self()) ? initial_view
                                                      : joiner_placeholder(transport.self()),
              std::move(deliver)),
      on_view_change_(std::move(on_view_change)) {
  max_proposed_ = engine_.view().id;
  TransportHandlers handlers;
  handlers.on_frame = [this](const Frame& frame) { on_frame(frame); };
  handlers.on_tx_ready = [this] { engine_.on_tx_ready(); };
  handlers.on_peer_down = [this](NodeId node) { on_peer_down(node); };
  transport_.set_handlers(std::move(handlers));
  arm_heartbeat();
  arm_rotation();
}

void GroupMember::arm_rotation() {
  if (cfg_.rotation_interval <= 0) return;
  transport_.cancel_timer(rotation_timer_);
  rotation_timer_ = transport_.set_timer(cfg_.rotation_interval, [this] {
    if (i_am_coordinator() && !round_ && engine_.view().size() > 1) {
      rotate_leader();
    }
    arm_rotation();
  });
}

void GroupMember::arm_heartbeat() {
  if (cfg_.heartbeat_interval <= 0) return;
  last_predecessor_activity_ = transport_.now();
  transport_.cancel_timer(heartbeat_timer_);
  heartbeat_timer_ =
      transport_.set_timer(cfg_.heartbeat_interval, [this] { on_heartbeat_tick(); });
}

NodeId GroupMember::nearest_alive_neighbor(int dir) const {
  const View& v = engine_.view();
  auto me = v.position_of(transport_.self());
  if (!me) return kNoNode;
  for (std::size_t step = 1; step < v.size(); ++step) {
    NodeId m = dir > 0 ? v.at(*me + step) : v.at(*me + v.size() - step);
    if (failed_.count(m) == 0) return m;
  }
  return kNoNode;
}

void GroupMember::on_heartbeat_tick() {
  const View& v = engine_.view();
  if (!left_ && in_group() && v.size() > 1) {
    // Keep the nearest live successor's silence monitor fed.
    NodeId succ = nearest_alive_neighbor(+1);
    if (succ != kNoNode && succ != transport_.self()) send_to(succ, Heartbeat{v.id});
    // Watch the nearest live predecessor: any frame from it counts as life.
    // When the watched node changes (view change, or its own watcher died
    // and we inherited it), restart the silence clock so the new target
    // gets a full timeout before we may suspect it.
    NodeId pred = nearest_alive_neighbor(-1);
    if (pred != monitored_pred_) {
      monitored_pred_ = pred;
      last_predecessor_activity_ = transport_.now();
    }
    if (pred != kNoNode && pred != transport_.self() && cfg_.heartbeat_timeout > 0 &&
        transport_.now() - last_predecessor_activity_ > cfg_.heartbeat_timeout) {
      FSR_INFO("node %u: predecessor %u silent beyond timeout, suspecting it",
               transport_.self(), pred);
      on_peer_down(pred);
    }
  }
  heartbeat_timer_ =
      transport_.set_timer(cfg_.heartbeat_interval, [this] { on_heartbeat_tick(); });
}

void GroupMember::on_frame(const Frame& frame) {
  const View& v = engine_.view();
  if (auto me = v.position_of(transport_.self()); me && v.size() > 1) {
    if (frame.from == monitored_pred_ || frame.from == v.at(*me + v.size() - 1)) {
      last_predecessor_activity_ = transport_.now();
    }
  }
  for (const auto& msg : frame.msgs) {
    if (std::holds_alternative<DataMsg>(msg) || std::holds_alternative<SeqMsg>(msg) ||
        std::holds_alternative<AckMsg>(msg) || std::holds_alternative<GcMsg>(msg)) {
      if (!left_) engine_.on_msg(msg);
    } else {
      handle_membership(msg, frame.from);
    }
  }
}

void GroupMember::handle_membership(const WireMsg& msg, NodeId from) {
  if (const auto* fr = std::get_if<FlushReq>(&msg)) {
    handle_flush_req(*fr, from);
  } else if (const auto* fs = std::get_if<FlushState>(&msg)) {
    handle_flush_state(*fs);
  } else if (const auto* vi = std::get_if<ViewInstall>(&msg)) {
    handle_view_install(*vi, from);
  } else if (const auto* ia = std::get_if<InstallAck>(&msg)) {
    handle_install_ack(*ia);
  } else if (const auto* cv = std::get_if<CommitView>(&msg)) {
    handle_commit_view(*cv);
  } else if (const auto* jr = std::get_if<JoinReq>(&msg)) {
    handle_join_req(*jr);
  } else if (const auto* lr = std::get_if<LeaveReq>(&msg)) {
    handle_leave_req(*lr);
  } else if (const auto* cr = std::get_if<CrashReport>(&msg)) {
    on_peer_down(cr->node);
  }
}

void GroupMember::send_to(NodeId to, WireMsg msg) {
  if (to == transport_.self()) {
    handle_membership(msg, to);
    return;
  }
  Frame f;
  f.from = transport_.self();
  f.to = to;
  f.msgs.push_back(std::move(msg));
  transport_.send(std::move(f));
}

// --- failure handling & coordination ---

void GroupMember::on_peer_down(NodeId node) {
  if (!failed_.insert(node).second) return;  // already known
  pending_joins_.erase(node);
  pending_leaves_.erase(node);
  if (left_) return;
  // Relay to members that have no direct connection to the dead process
  // (on TCP only direct peers see the reset).
  for (NodeId m : engine_.view().members) {
    if (m != transport_.self() && m != node && failed_.count(m) == 0) {
      send_to(m, CrashReport{node});
    }
  }
  maybe_coordinate();
}

std::optional<NodeId> GroupMember::coordinator() const {
  const View& v = engine_.view();
  if (v.id == 0) return std::nullopt;  // not yet a member
  for (NodeId m : v.members) {
    if (failed_.count(m) == 0) return m;
  }
  return std::nullopt;
}

bool GroupMember::i_am_coordinator() const {
  return !left_ && coordinator() == transport_.self();
}

void GroupMember::maybe_coordinate() {
  if (!i_am_coordinator()) return;

  const View& v = engine_.view();
  std::vector<NodeId> new_members;
  std::vector<NodeId> participants;
  for (NodeId m : v.members) {
    if (failed_.count(m)) continue;
    participants.push_back(m);
    if (pending_leaves_.count(m) == 0) new_members.push_back(m);
  }
  for (NodeId j : pending_joins_) {
    if (failed_.count(j) || v.contains(j)) continue;
    participants.push_back(j);
    new_members.push_back(j);
  }

  bool membership_changed = new_members != v.members;
  if (!membership_changed && !round_) return;  // steady, nothing to do
  if (round_ && round_->new_members == new_members &&
      round_->participants == participants) {
    return;  // the running flush already targets this membership
  }
  start_flush(std::move(new_members));
}

void GroupMember::start_flush(std::vector<NodeId> new_members) {
  const View& v = engine_.view();
  std::vector<NodeId> participants;
  for (NodeId m : v.members) {
    if (failed_.count(m) == 0) participants.push_back(m);
  }
  for (NodeId m : new_members) {
    if (std::find(participants.begin(), participants.end(), m) == participants.end()) {
      participants.push_back(m);
    }
  }

  ViewId proposed = ++max_proposed_;
  bool has_joiner = false;
  for (NodeId m : new_members) {
    if (!v.contains(m)) has_joiner = true;
  }
  FSR_INFO("node %u proposes view %llu (%zu members, %zu participants%s)",
           transport_.self(), static_cast<unsigned long long>(proposed),
           new_members.size(), participants.size(),
           has_joiner ? ", with joiner" : "");
  round_ = FlushRound{proposed, participants, std::move(new_members), {},
                      /*install_sent=*/false, /*install_acks=*/{}};
  for (NodeId p : round_->participants) {
    send_to(p, FlushReq{proposed, round_->new_members, has_joiner});
  }
}

void GroupMember::handle_flush_req(const FlushReq& req, NodeId from) {
  if (req.proposed < max_proposed_) {
    FSR_INFO("node %u: stale flush req %llu < %llu", transport_.self(),
             (unsigned long long)req.proposed, (unsigned long long)max_proposed_);
    return;
  }
  FSR_INFO("node %u: flush req %llu from %u, replying", transport_.self(),
           (unsigned long long)req.proposed, from);
  max_proposed_ = req.proposed;
  Bytes blob = engine_.collect_flush_state(req.want_snapshot);
  send_to(from, FlushState{req.proposed, transport_.self(), std::move(blob)});
}

void GroupMember::handle_flush_state(const FlushState& st) {
  if (!round_ || st.proposed != round_->proposed) return;
  if (std::find(round_->participants.begin(), round_->participants.end(), st.from) ==
      round_->participants.end()) {
    return;
  }
  round_->states[st.from] = st.state;
  FSR_INFO("node %u: flush state from %u (%zu/%zu)", transport_.self(), st.from,
           round_->states.size(), round_->participants.size());
  if (round_->states.size() < round_->participants.size()) return;

  // Phase two: distribute the union for STAGING; delivery waits until every
  // participant acknowledged storage (otherwise a member that installs
  // early and then crashes together with the coordinator could have
  // delivered messages no survivor knows).
  ViewInstall vi;
  vi.view = round_->proposed;
  vi.members = round_->new_members;
  for (auto& [owner, blob] : round_->states) {
    vi.state_owners.push_back(owner);
    vi.states.push_back(blob);
  }
  round_->install_sent = true;
  round_->install_acks.clear();
  for (NodeId p : round_->participants) {
    if (p != transport_.self()) send_to(p, vi);
  }
  handle_view_install(vi, transport_.self());  // stage + self-ack
}

void GroupMember::handle_view_install(const ViewInstall& vi, NodeId from) {
  if (vi.view <= engine_.view().id) return;  // stale
  if (staged_install_ && staged_install_->view > vi.view) return;
  max_proposed_ = std::max(max_proposed_, vi.view);
  engine_.stage_recovery_states(vi.states);
  staged_install_ = vi;
  FSR_INFO("node %u: staged view %llu, acking to %u", transport_.self(),
           (unsigned long long)vi.view, from);
  send_to(from, InstallAck{vi.view, transport_.self()});
}

void GroupMember::handle_install_ack(const InstallAck& ack) {
  if (!round_ || !round_->install_sent || ack.view != round_->proposed) return;
  round_->install_acks.insert(ack.from);
  if (round_->install_acks.size() < round_->participants.size()) return;

  // Everyone stored the union: commit.
  auto participants = round_->participants;
  auto members = round_->new_members;
  ViewId view = round_->proposed;
  round_.reset();
  for (NodeId m : members) pending_joins_.erase(m);
  for (NodeId p : participants) {
    if (std::find(members.begin(), members.end(), p) == members.end()) {
      pending_leaves_.erase(p);
    }
  }
  for (NodeId p : participants) {
    if (p != transport_.self()) send_to(p, CommitView{view});
  }
  handle_commit_view(CommitView{view});
}

void GroupMember::handle_commit_view(const CommitView& cv) {
  if (!staged_install_ || staged_install_->view != cv.view) return;
  if (cv.view <= engine_.view().id) return;
  ViewInstall vi = std::move(*staged_install_);
  staged_install_.reset();
  apply_install(vi);
}

void GroupMember::apply_install(const ViewInstall& vi) {
  if (vi.view <= engine_.view().id) return;  // stale
  max_proposed_ = std::max(max_proposed_, vi.view);
  if (round_ && vi.view >= round_->proposed) round_.reset();

  View v{vi.view, vi.members};
  if (!v.contains(transport_.self())) {
    // We left (or were excluded): this member is done.
    left_ = true;
    FSR_INFO("node %u left the group at view %llu", transport_.self(),
             static_cast<unsigned long long>(vi.view));
    if (on_view_change_) on_view_change_(v);
    return;
  }
  FSR_INFO("node %u: installing %s", transport_.self(), to_string(v).c_str());
  engine_.install_view(v, vi.states);
  // The ring (and thus our predecessor) changed; restart the silence clock
  // and let the next tick re-resolve whom to watch.
  last_predecessor_activity_ = transport_.now();
  monitored_pred_ = kNoNode;
  if (on_view_change_) on_view_change_(v);
  // A membership request may have arrived mid-flush.
  maybe_coordinate();
}

// --- join / leave / rotation ---

void GroupMember::request_join(NodeId contact) {
  assert(!in_group() && "already a member");
  left_ = false;
  send_to(contact, JoinReq{transport_.self()});
}

void GroupMember::request_leave() {
  if (!in_group()) return;
  // Drain first: a member that leaves with undelivered own broadcasts would
  // lose them (after departure nobody can re-broadcast them). Retry until
  // the engine's pending-own count reaches zero.
  if (engine_.pending_own() > 0) {
    transport_.set_timer(2 * kMillisecond, [this] { request_leave(); });
    return;
  }
  auto coord = coordinator();
  if (!coord) return;
  send_to(*coord, LeaveReq{transport_.self()});
}

void GroupMember::rotate_leader() {
  if (!i_am_coordinator() || round_) return;
  const View& v = engine_.view();
  if (v.size() < 2) return;
  std::vector<NodeId> rotated(v.members.begin() + 1, v.members.end());
  rotated.push_back(v.members.front());
  start_flush(std::move(rotated));
}

void GroupMember::handle_join_req(const JoinReq& req) {
  if (left_) return;
  auto coord = coordinator();
  if (!coord) return;
  if (*coord != transport_.self()) {
    send_to(*coord, req);  // forward to whoever coordinates
    return;
  }
  if (engine_.view().contains(req.node) || failed_.count(req.node)) return;
  pending_joins_.insert(req.node);
  maybe_coordinate();
}

void GroupMember::handle_leave_req(const LeaveReq& req) {
  if (left_) return;
  auto coord = coordinator();
  if (!coord) return;
  if (*coord != transport_.self()) {
    send_to(*coord, req);
    return;
  }
  if (!engine_.view().contains(req.node)) return;
  pending_leaves_.insert(req.node);
  maybe_coordinate();
}

}  // namespace fsr
