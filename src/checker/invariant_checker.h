// Mechanical checker for the paper's TO-broadcast properties (§3-§4),
// shared by the simulated and the real-TCP harnesses. The harness feeds
// every submission (on_broadcast) and every delivery (on_delivery); the
// checker validates online — at the moment of the event — what can be
// validated incrementally, and offers full-trace passes for the rest:
//
//   online   per-(node, group) global-sequence monotonicity (no regressions,
//            no duplicate seqs), per-(node, group) view monotonicity,
//            at-most-once delivery of each (group, origin, app_msg),
//            cross-node agreement on what identity each (group, seq)
//            carries (two nodes delivering different messages under one seq
//            is an order violation the instant the second delivery
//            happens), payload-hash integrity against the recorded
//            submission, and cross-group sequence aliasing (a delivery in a
//            group its message was never submitted to).
//   offline  pairwise total order over common subsequences, agreement
//            (identical logs among correct processes), uniformity (every
//            crashed process's log is a prefix of every correct one's),
//            and per-origin FIFO/no-gap delivery — each applied per group;
//            ordering across groups is deliberately unconstrained.
//
// All feed methods are thread-safe: the TCP harness calls them from n
// I/O threads concurrently. Violations are sticky — once a run trips any
// check, online_violation() reports the first one forever, so soak tests
// and benches fail loudly even if later events look consistent.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "checker/dense_table.h"
#include "common/sync.h"
#include "common/types.h"

namespace fsr {

/// One TO-delivery as observed at a process.
struct DeliveryRecord {
  NodeId node = kNoNode;    // delivering process
  GroupId group = 0;        // ordering domain the seq belongs to
  NodeId origin = kNoNode;  // broadcaster
  std::uint64_t app_msg = 0;
  GlobalSeq seq = 0;
  ViewId view = 0;
  std::uint64_t payload_hash = 0;
  std::size_t bytes = 0;
  Time at = 0;
};

struct CheckerConfig {
  /// Deliveries of (origin, app_msg) pairs never announced via
  /// on_broadcast() are integrity violations. Disable for harnesses that
  /// cannot observe submissions.
  bool require_known_broadcasts = true;

  /// Treat a per-origin app_msg gap (m5 delivered after m3 with m4 missing)
  /// as a violation in check_all(). FIFO order itself is always checked.
  bool require_gap_free_origins = true;
};

class InvariantChecker {
 public:
  explicit InvariantChecker(std::size_t n, CheckerConfig config = {});

  // --- event feed (thread-safe) ---

  /// Record a submission; later deliveries of (group, origin, app_msg) must
  /// carry this payload hash. The 3-arg overload records against group 0.
  void on_broadcast(GroupId group, NodeId origin, std::uint64_t app_msg,
                    std::uint64_t payload_hash);
  void on_broadcast(NodeId origin, std::uint64_t app_msg, std::uint64_t payload_hash) {
    on_broadcast(GroupId{0}, origin, app_msg, payload_hash);
  }

  /// Record a delivery and run every online check against it.
  void on_delivery(const DeliveryRecord& rec);

  /// Mark a process crashed (it becomes subject to the uniformity check and
  /// exempt from agreement).
  void note_crashed(NodeId node);

  /// Per-event provenance: `fn` is invoked (under the feed lock — it must
  /// not call back into the checker) whenever an online check records a
  /// violation, and its result is appended to the message. The fault-
  /// injection harness uses this to tag the first violation with the fault
  /// event and virtual time that triggered it, so a swarm failure reads
  /// "what broke" and "right after which injected fault" in one line.
  void set_context_provider(std::function<std::string()> fn);

  // --- queries ---

  std::size_t n() const { return n_; }
  std::uint64_t deliveries() const;
  std::set<NodeId> crashed() const;
  std::vector<DeliveryRecord> log(NodeId node) const;
  /// A node's deliveries restricted to one ordering domain.
  std::vector<DeliveryRecord> log(NodeId node, GroupId group) const;
  /// Every group that appeared in any submission or delivery so far.
  std::set<GroupId> groups_seen() const;

  /// First violation any online check detected, or "" if none so far.
  std::string online_violation() const;

  // --- full-trace passes: empty string means the property holds ---

  /// Total order: every pair of logs agrees on the order and identity of
  /// common deliveries (each is a prefix-consistent subsequence).
  std::string check_total_order() const;

  /// Agreement: all nodes in `correct` have identical logs.
  std::string check_agreement(const std::set<NodeId>& correct) const;

  /// Integrity: no duplicates, every delivery was broadcast, hashes match.
  std::string check_integrity() const;

  /// Uniformity: every crashed node's log is a prefix of every correct
  /// node's log (whatever a failed process delivered, all deliver).
  std::string check_uniformity(const std::set<NodeId>& crashed,
                               const std::set<NodeId>& correct) const;

  /// Per-origin FIFO: each node's deliveries from one origin have strictly
  /// increasing, gap-free app_msg counters.
  std::string check_fifo() const;

  /// Every property at once, online findings included (correct = every
  /// node not marked crashed).
  std::string check_all() const;

 private:
  struct Identity {
    NodeId origin;
    std::uint64_t app_msg;
    std::uint64_t payload_hash;
    friend bool operator==(const Identity&, const Identity&) = default;
  };

  /// (group, origin, app_msg): the unit of message identity. Sequence spaces
  /// and submission counters are independent per group, so every check keys
  /// on the group first.
  using MsgKey = std::tuple<GroupId, NodeId, std::uint64_t>;

  struct SeqView {
    GlobalSeq seq;
    ViewId view;
  };

  /// One (group, origin) message stream.
  struct OriginState {
    DenseTable<std::uint64_t> submitted;  // app_msg -> payload hash
    std::vector<std::optional<std::uint64_t>> last_app;  // per node: last delivered app_msg
  };

  /// One ordering domain. Every table is indexed by a key the engines hand
  /// out densely (group id, global seq, origin id, app_msg), so the
  /// per-delivery checks are index lookups, not tree walks.
  struct GroupState {
    bool submitted_any = false;
    DenseTable<Identity> seq_identity;                // global seq -> message
    std::vector<std::optional<SeqView>> last_seq_view;  // per node: watermark
    DenseTable<OriginState> origins;
  };

  GroupState& group_state(GroupId g) FSR_REQUIRES(mutex_);
  OriginState& origin_state(GroupState& gs, NodeId origin) FSR_REQUIRES(mutex_);
  /// Payload hash submitted for (group, origin, app_msg), or nullptr.
  const std::uint64_t* submitted_hash(GroupId g, NodeId origin, std::uint64_t app_msg) const
      FSR_REQUIRES(mutex_);
  /// Lowest group other than `g` in which (origin, app_msg) was submitted.
  std::optional<GroupId> submitted_elsewhere(GroupId g, NodeId origin,
                                             std::uint64_t app_msg) const FSR_REQUIRES(mutex_);

  void record_violation(std::string what) FSR_REQUIRES(mutex_);
  std::string check_total_order_locked() const FSR_REQUIRES(mutex_);
  std::string check_agreement_locked(const std::set<NodeId>& correct) const FSR_REQUIRES(mutex_);
  std::string check_integrity_locked() const FSR_REQUIRES(mutex_);
  std::string check_uniformity_locked(const std::set<NodeId>& crashed,
                                      const std::set<NodeId>& correct) const
      FSR_REQUIRES(mutex_);
  std::string check_fifo_locked(bool require_gap_free) const FSR_REQUIRES(mutex_);
  std::set<GroupId> groups_in_logs_locked() const FSR_REQUIRES(mutex_);

  std::size_t n_;
  CheckerConfig cfg_;

  mutable Mutex mutex_;
  std::vector<std::vector<DeliveryRecord>> logs_ FSR_GUARDED_BY(mutex_);
  DenseTable<GroupState> groups_ FSR_GUARDED_BY(mutex_);
  std::set<NodeId> crashed_ FSR_GUARDED_BY(mutex_);
  std::uint64_t deliveries_ FSR_GUARDED_BY(mutex_) = 0;
  std::string first_violation_ FSR_GUARDED_BY(mutex_);
  std::function<std::string()> context_ FSR_GUARDED_BY(mutex_);
};

/// Render a (origin, app_msg) pair the way every checker message does.
std::string describe_msg(NodeId origin, std::uint64_t app_msg);

}  // namespace fsr
