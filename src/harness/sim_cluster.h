// Test/benchmark harness: a complete simulated FSR cluster — simulator,
// network model, one GroupMember per node — with per-node delivery logs.
// Every submission and delivery is streamed into an InvariantChecker
// (src/checker), which validates the paper's safety properties online; the
// check_* methods here are thin façades over it.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "checker/invariant_checker.h"
#include "net/cluster_net.h"
#include "transport/group_mux.h"
#include "transport/sim_transport.h"
#include "vsc/group.h"

namespace fsr {

struct ClusterConfig {
  std::size_t n = 4;
  NetConfig net;
  GroupConfig group;
  Time fd_delay = 2 * kMillisecond;

  /// Independent ordering domains hosted by every node. Each group runs its
  /// own ring/engine over the shared per-node transport (via GroupMux), with
  /// its initial ring order rotated by the group id so leaders spread across
  /// nodes (group g's sequencer starts at node g mod members).
  GroupId groups = 1;

  /// If nonzero, only the first `initial_members` nodes form the initial
  /// view; the rest start outside the group and may request_join() later.
  std::size_t initial_members = 0;
};

class SimCluster {
 public:
  struct LogEntry {
    GroupId group = 0;
    NodeId origin = kNoNode;
    std::uint64_t app_msg = 0;
    GlobalSeq seq = 0;
    ViewId view = 0;
    std::size_t bytes = 0;
    Time at = 0;
    std::uint64_t payload_hash = 0;
  };

  explicit SimCluster(ClusterConfig config);

  Simulator& sim() { return world_.sim(); }
  SimWorld& world() { return world_; }
  std::size_t size() const { return members_.size(); }
  GroupId groups() const { return cfg_.groups; }
  /// The node's group-0 member (the only one in single-group clusters).
  GroupMember& node(NodeId id) { return *members_[id][0]; }
  /// The node's member in a specific ordering domain.
  GroupMember& member(NodeId id, GroupId g) { return *members_[id].at(g); }
  const ClusterConfig& config() const { return cfg_; }

  /// TO-broadcast from a node; records the submit time for latency queries.
  void broadcast(NodeId from, Bytes payload) {
    broadcast(from, GroupId{0}, std::move(payload));
  }
  void broadcast(NodeId from, GroupId group, Bytes payload);

  /// Zero-copy variant: registers with the checker, then hands the Payload
  /// through un-copied (the gateway's submit path).
  void broadcast(NodeId from, Payload payload) {
    broadcast(from, GroupId{0}, std::move(payload));
  }
  void broadcast(NodeId from, GroupId group, Payload payload);

  /// Observe every delivery (in addition to the internal log) — e.g. to
  /// feed replicated state machines in application tests.
  void set_delivery_tap(std::function<void(NodeId, const Delivery&)> tap) {
    tap_ = std::move(tap);
  }

  /// Observe every view installation (node, new view) — the fault injector
  /// uses this for "on Nth view change" trigger points.
  void set_view_tap(std::function<void(NodeId, const View&)> tap) {
    view_tap_ = std::move(tap);
  }

  /// Install per-node application snapshot hooks (joiner state transfer)
  /// for the group-0 members (state transfer is a per-ring mechanism; tests
  /// that exercise it run single-group clusters).
  void set_snapshot_hooks(std::function<Bytes(NodeId)> take,
                          std::function<void(NodeId, const Bytes&)> install) {
    for (std::size_t i = 0; i < members_.size(); ++i) {
      auto id = static_cast<NodeId>(i);
      members_[i][0]->set_snapshot_hooks([take, id] { return take(id); },
                                         [install, id](const Bytes& b) { install(id, b); });
    }
  }

  /// Crash-stop with perfect-FD notification after `fd_delay` (< 0: the
  /// cluster's configured default detection delay).
  void crash(NodeId node, Time fd_delay = -1);

  /// Crash without perfect-FD notification (models a hang); only heartbeat
  /// timeouts (GroupConfig::heartbeat_*) can detect it. NOTE: heartbeats
  /// re-arm timers forever, so drive such clusters with sim().run_until().
  void crash_silent(NodeId node);
  bool alive(NodeId node) const { return world_.alive(node); }

  const std::vector<LogEntry>& log(NodeId node) const { return logs_[node]; }

  /// Submit time of (origin, app_msg) in a group, or -1 if unknown.
  Time submit_time(NodeId origin, std::uint64_t app_msg, GroupId group = 0) const;

  /// Time at which every live node delivered (origin, app_msg) in a group;
  /// -1 if some live node has not.
  Time completion_time(NodeId origin, std::uint64_t app_msg, GroupId group = 0) const;

  /// Sum of every node's engine counters across all groups (window pooling,
  /// piggybacking, copy discipline) — includes crashed nodes: the simulator
  /// is single-threaded, so their frozen counters are still readable.
  EngineCounters engine_counters() const {
    EngineCounters total;
    for (const auto& node : members_) {
      for (const auto& m : node) total += m->engine().counters();
    }
    return total;
  }

  /// One group's slice of the same rollup.
  EngineCounters engine_counters(GroupId g) const {
    EngineCounters total;
    for (const auto& node : members_) total += node.at(g)->engine().counters();
    return total;
  }

  /// The protocol-invariant checker fed by this cluster (online findings,
  /// raw DeliveryRecords for trace lints, ...). The non-const overload
  /// lets harnesses install a provenance context provider.
  const InvariantChecker& checker() const { return checker_; }
  InvariantChecker& checker() { return checker_; }

  // --- invariant checkers (façade over checker()): "" = invariant holds ---

  /// Total order: every pair of logs agrees on the order and identity of
  /// common deliveries (each is a prefix-consistent subsequence).
  std::string check_total_order() const;

  /// Agreement: all nodes in `correct` have identical logs.
  std::string check_agreement(const std::set<NodeId>& correct) const;

  /// Integrity: no duplicates, every delivered message was broadcast, and
  /// payload hashes match the broadcast payloads.
  std::string check_integrity() const;

  /// Uniformity: every crashed node's log is a prefix of every correct
  /// node's log (whatever a failed process delivered, all deliver).
  std::string check_uniformity(const std::set<NodeId>& crashed,
                               const std::set<NodeId>& correct) const;

  /// All invariants at once (crashed = nodes crashed via crash()).
  std::string check_all() const;

 private:
  /// Record a submission's time; returns its app_msg.
  std::uint64_t note_submit(NodeId from, GroupId group);

  ClusterConfig cfg_;
  SimWorld world_;
  InvariantChecker checker_;
  /// One mux per node fans the shared transport out to the node's members.
  std::vector<std::unique_ptr<GroupMux>> muxes_;
  std::vector<std::vector<std::unique_ptr<GroupMember>>> members_;  // [node][group]
  std::vector<std::vector<LogEntry>> logs_;
  /// Submit time of each own message, per (node, group) stream: the engine
  /// numbers a stream's messages 1, 2, ..., so app_msg k sits at index k-1.
  std::vector<std::vector<Time>> submit_times_;  // [node * groups + group]
  std::set<NodeId> crashed_;
  std::function<void(NodeId, const Delivery&)> tap_;
  std::function<void(NodeId, const View&)> view_tap_;
};

/// FNV-1a, for payload integrity checking without storing payloads.
std::uint64_t hash_bytes(std::span<const std::uint8_t> b);

/// Deterministic payload of `size` bytes derived from (origin, app_msg).
Bytes test_payload(NodeId origin, std::uint64_t app_msg, std::size_t size);

}  // namespace fsr
