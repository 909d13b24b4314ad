// The client gateway: the cluster's front door for state-machine
// replication (the application the paper motivates in §1). One Gateway runs
// per replica, on that replica's single-threaded event loop (simulator
// event or TCP I/O thread), layered on GroupMember + StateMachine.
//
// Responsibilities:
//   * Sessions & exactly-once execution. Client commands travel the ring as
//     gateway envelopes {client_id, session_seq, command}. The session
//     table (last executed seq + reply cache per client) is updated ONLY at
//     TO-delivery time — a deterministic function of the delivery stream —
//     so every replica agrees on it without any extra protocol: the session
//     state is replicated *through* the broadcast itself. A duplicate
//     retry, including one redirected to a different replica after a crash,
//     is either answered from the reply cache immediately or suppressed at
//     delivery and answered from the cache then. Each command applies
//     exactly once on every replica.
//   * Response routing. The replica that owns the client's connection (the
//     one that admitted the request) replies when the command's delivery
//     resolves it — whichever replica's broadcast won the race.
//   * Admission control. Per-session in-flight window with a bounded local
//     queue behind it, plus a global admitted-bytes budget across sessions.
//     Every outcome is an explicit reply (queued requests reply at
//     delivery; rejections reply immediately) — a request is never dropped
//     silently — so clients backpressure instead of the engine OOMing.
//   * Zero-copy admission. The envelope Payload (a view into the client
//     connection's receive buffer) is broadcast by reference; client bytes
//     are never re-copied on their way into the ring.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>

#include "app/state_machine.h"
#include "common/sync.h"
#include "proto/client_codec.h"
#include "proto/client_wire.h"
#include "vsc/group.h"

namespace fsr {

/// How Gateway::on_read answers queries.
enum class GatewayReadMode : std::uint8_t {
  /// Always answer from the local applied state without broadcasting (the
  /// paper's footnote 1: reads need not be totally ordered). The default —
  /// cheapest, but a lagging replica can answer from stale state.
  kLocal,
  /// Answer locally only under a valid sequencer lease (granted by the
  /// leader over the TO-stream, conservatively invalidated on view change
  /// or flush); otherwise fall back to an ordered read that round-trips the
  /// ring. Sequentially consistent reads at local-read cost while the lease
  /// is warm, and no stale read across a view change — but not
  /// linearizable: the lease check does not wait for the local delivered
  /// prefix to reach the leader's sequence number (DESIGN.md §12.3; the
  /// read-index item in ROADMAP.md).
  kLeased,
};

struct GatewayConfig {
  /// Own commands per session admitted into the ring at once. Beyond it
  /// requests queue locally (bounded by `session_queue`), past that they
  /// are rejected with kRejectedWindow.
  std::size_t session_window = 8;
  std::size_t session_queue = 32;

  /// Commands larger than this are rejected outright (kBadRequest).
  std::size_t max_command_bytes = 1 << 20;

  /// Global budget on admitted (in-flight + queued) envelope bytes across
  /// all sessions this replica owns; beyond it requests are rejected with
  /// kRejectedBytes until deliveries drain the backlog.
  std::size_t admitted_bytes_budget = 8 << 20;

  /// Executed replies cached per session for duplicate retries. Must be
  /// >= session_window or a retry burst can outrun the cache.
  std::size_t reply_cache = 16;

  /// Request coalescing: admitted envelopes accumulate into one batch
  /// payload (kBatchEnvelopeMagic) per broadcast, amortizing the ring's
  /// per-broadcast cost over every command in the batch — the inverse of
  /// the engine's segmentation. A batch flushes when it reaches
  /// `coalesce_max_envelopes` or `coalesce_max_bytes`, when the harness
  /// calls flush_coalesced() at the end of an event batch, or at latest
  /// `coalesce_flush_delay` after its first envelope (the ack_flush_delay
  /// idiom). Off: every envelope is its own broadcast (the ablation knob).
  bool coalesce = true;
  std::size_t coalesce_max_envelopes = 64;
  /// Kept under the engine's segment_size so a batch rides one segment.
  std::size_t coalesce_max_bytes = 7 << 10;
  Time coalesce_flush_delay = 200 * kMicrosecond;

  /// Sharded deployments: this gateway is one shard behind a ShardRouter
  /// and sees only the subsequence of each session's seqs whose keys hash
  /// here. Admission accepts any seq above the session's horizon instead of
  /// requiring contiguity, and delivery executes any seq above
  /// last_executed. In-order-per-shard is preserved by the rejected-tail
  /// gate: after any backpressure rejection, every higher seq bounces too
  /// until the client resends the rejected seq (drivers resend the whole
  /// tail in order), so an admitted seq is never overtaken by a lower
  /// unadmitted one. Strict (default) mode additionally rejects fabricated
  /// far-ahead seqs; sparse mode cannot tell those from legitimate shard
  /// gaps and admits them — they execute as ordinary commands, burning only
  /// the client's own seq space.
  bool sparse_sessions = false;

  GatewayReadMode read_mode = GatewayReadMode::kLocal;
  /// Lease lifetime from grant *delivery*. Safety rule: must stay below the
  /// group's failure-detection + flush window, so any lease granted in an
  /// old view has expired by the time a new view can commit writes (see
  /// DESIGN.md §12). Replicas that install the new view invalidate
  /// immediately via the grant's view id.
  Time lease_duration = 50 * kMillisecond;
  /// Cap on ordered reads in flight per replica (lease-cold fallback);
  /// beyond it reads are rejected with kRejectedWindow and retried.
  std::size_t max_pending_reads = 1024;
};

/// Health/behavior counters, aggregated by the harnesses alongside
/// TransportCounters and EngineCounters.
struct GatewayCounters {
  std::uint64_t requests = 0;         ///< client requests received
  std::uint64_t reads = 0;            ///< local read queries answered
  std::uint64_t admitted = 0;         ///< envelopes broadcast into the ring
  std::uint64_t queued = 0;           ///< requests parked behind the window
  std::uint64_t duplicate_hits = 0;   ///< retries answered from cache / already pending
  std::uint64_t duplicate_applies_suppressed = 0;  ///< deliveries not re-applied
  std::uint64_t rejected_window = 0;
  std::uint64_t rejected_bytes = 0;
  std::uint64_t rejected_malformed = 0;
  std::uint64_t rejected_ahead = 0;  ///< seqs past this replica's horizon (failover lag or fabrication)
  std::uint64_t envelope_gaps = 0;    ///< out-of-order envelope deliveries dropped
  std::uint64_t commands_applied = 0; ///< envelope commands executed here
  std::uint64_t replies_sent = 0;
  std::uint64_t reply_cache_evictions = 0;
  std::uint64_t admitted_bytes_total = 0;  ///< cumulative envelope bytes admitted
  std::uint64_t coalesced_envelopes = 0;  ///< envelopes routed through batches
  std::uint64_t coalesce_flushes = 0;     ///< batch payloads broadcast
  std::uint64_t reads_local = 0;    ///< reads answered from local state
  std::uint64_t reads_ordered = 0;  ///< lease-cold reads sent around the ring
  std::uint64_t lease_grants_sent = 0;     ///< grants this (leader) broadcast
  std::uint64_t lease_grants_applied = 0;  ///< current-view grants delivered
  std::uint64_t orphaned_reply_drops = 0;  ///< replies owed to a dead connection

  GatewayCounters& operator+=(const GatewayCounters& o) {
    requests += o.requests;
    reads += o.reads;
    admitted += o.admitted;
    queued += o.queued;
    duplicate_hits += o.duplicate_hits;
    duplicate_applies_suppressed += o.duplicate_applies_suppressed;
    rejected_window += o.rejected_window;
    rejected_bytes += o.rejected_bytes;
    rejected_malformed += o.rejected_malformed;
    rejected_ahead += o.rejected_ahead;
    envelope_gaps += o.envelope_gaps;
    commands_applied += o.commands_applied;
    replies_sent += o.replies_sent;
    reply_cache_evictions += o.reply_cache_evictions;
    admitted_bytes_total += o.admitted_bytes_total;
    coalesced_envelopes += o.coalesced_envelopes;
    coalesce_flushes += o.coalesce_flushes;
    reads_local += o.reads_local;
    reads_ordered += o.reads_ordered;
    lease_grants_sent += o.lease_grants_sent;
    lease_grants_applied += o.lease_grants_applied;
    orphaned_reply_drops += o.orphaned_reply_drops;
    return *this;
  }
};

class Gateway {
 public:
  using SendReplyFn = std::function<void(const ClientReply&)>;
  /// How admitted envelopes enter the ring. Defaults to
  /// member.broadcast(Payload); harnesses override it to register the
  /// submission with their invariant checker first.
  using SubmitFn = std::function<void(Payload)>;

  Gateway(GroupMember& member, StateMachine& machine, GatewayConfig config,
          SubmitFn submit = {});

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// The capability standing for "this replica's event thread" (the
  /// simulator's event loop or the TCP transport's I/O thread). Every entry
  /// point requires it; callers reaching the gateway from a marshalled
  /// closure adopt it with ThreadRoleRegion(gw.role()).
  ThreadRole& role() FSR_RETURN_CAPABILITY(role_) { return role_; }

  // --- front-end API (call on this replica's event thread) ---

  /// Bind (or re-bind after reconnect) a client's reply channel.
  /// `conn_serial` identifies the connection so a stale disconnect cannot
  /// tear down a newer binding. With `send_ack` false the binding happens
  /// but no hello ack goes out — the ShardRouter binds every shard that
  /// way and sends one merged ack itself.
  void on_hello(const ClientHello& hello, SendReplyFn send,
                std::uint64_t conn_serial = 0, bool send_ack = true)
      FSR_REQUIRES(role_);

  /// One replicated command. `send` refreshes the session's reply channel.
  void on_request(const ClientRequest& req, SendReplyFn send,
                  std::uint64_t conn_serial = 0) FSR_REQUIRES(role_);

  /// Read-only query. In kLocal mode (and in kLeased mode under a valid
  /// lease) answered immediately from the local state machine; lease-cold
  /// kLeased reads are broadcast as ordered reads and answered at delivery.
  void on_read(const ClientRead& read, const SendReplyFn& send) FSR_REQUIRES(role_);

  /// Flush the pending coalescing batch now (no-op when empty).
  void flush_coalesced() FSR_REQUIRES(role_);

  /// Drain scope for event-driven front-ends: bracket a burst of
  /// on_hello/on_request/on_read calls with begin_drain()/end_drain() and
  /// the whole burst leaves in one coalesced broadcast at end_drain(),
  /// without ever arming the per-gateway backstop timer (which costs real
  /// throughput on the TCP I/O thread). Enqueues outside any drain scope —
  /// e.g. the simulator calling entry points directly — fall back to the
  /// coalesce_flush_delay timer. on_delivery brackets itself.
  void begin_drain() FSR_REQUIRES(role_);
  void end_drain() FSR_REQUIRES(role_);

  /// The client's connection died; tears down the owned binding (the
  /// session's replicated state survives for the client's next connection,
  /// on any replica).
  void on_client_disconnect(std::uint64_t client_id,
                            std::uint64_t conn_serial = 0) FSR_REQUIRES(role_);

  // --- delivery wiring (every TO-delivery of this node flows through) ---

  /// Applies envelope commands exactly once, routes replies for sessions
  /// this replica owns, refills admission windows. Non-envelope payloads
  /// are applied to the state machine unchanged (plain broadcasts coexist
  /// with gateway traffic).
  void on_delivery(const Delivery& d) FSR_REQUIRES(role_);

  // --- introspection (same thread contract as the entry points) ---

  const GatewayCounters& counters() const FSR_REQUIRES(role_) { return counters_; }
  std::size_t sessions() const FSR_REQUIRES(role_) { return sessions_.size(); }
  std::size_t owned_sessions() const FSR_REQUIRES(role_) { return owned_.size(); }
  std::size_t admitted_bytes() const FSR_REQUIRES(role_) { return admitted_bytes_; }
  /// Total cached replies across sessions; bounded by
  /// sessions() * cfg.reply_cache (the chaos oracle asserts exactly this
  /// under duplicate floods).
  std::size_t reply_cache_entries() const FSR_REQUIRES(role_) {
    std::size_t total = 0;
    for (const auto& [id, sess] : sessions_) total += sess.cache.size();
    return total;
  }
  /// Last executed session_seq for a client (0 = unknown client).
  std::uint64_t last_executed(std::uint64_t client_id) const FSR_REQUIRES(role_);

  /// Whether this replica may currently serve reads from local state in
  /// kLeased mode: the last delivered grant names the installed view, no
  /// flush is in progress, and the lease has not timed out.
  bool lease_valid() const FSR_REQUIRES(role_);
  std::size_t pending_ordered_reads() const FSR_REQUIRES(role_) {
    return pending_reads_.size();
  }

 private:
  /// Replicated per-session state: advanced only by TO-deliveries, so all
  /// replicas agree on it. The cache keeps the most recent executed
  /// replies for duplicate retries.
  struct CachedReply {
    std::uint64_t seq = 0;
    Payload reply;
  };
  struct SessionState {
    std::uint64_t last_executed = 0;
    std::deque<CachedReply> cache;
  };

  /// Local state for sessions whose client connection this replica owns.
  struct OwnedSession {
    SendReplyFn send;
    std::uint64_t conn_serial = 0;
    std::uint64_t highest_admitted = 0;  ///< max seq admitted or queued here
    std::uint64_t last_replied = 0;      ///< max seq answered at delivery time
    std::map<std::uint64_t, std::size_t> in_flight;  ///< seq -> envelope bytes
    std::deque<std::pair<std::uint64_t, Payload>> queue;  ///< (seq, envelope)
    std::size_t queued_bytes = 0;
    /// Highest seq bounced by backpressure (window/bytes), and with what.
    /// A pipelined burst keeps arriving above `expected` after the first
    /// rejection; those are the same backpressure event, not a client bug,
    /// and get the same status. Reset on the next successful admit/queue.
    std::uint64_t rejected_tail = 0;
    ClientStatus rejected_status = ClientStatus::kOk;
  };

  void reply(OwnedSession& own, const ClientReply& r) FSR_REQUIRES(role_);
  void admit(std::uint64_t client_id, OwnedSession& own, std::uint64_t seq,
             Payload envelope) FSR_REQUIRES(role_);
  void refill(std::uint64_t client_id, OwnedSession& own,
              const SessionState& sess) FSR_REQUIRES(role_);
  const CachedReply* cached(const SessionState& sess, std::uint64_t seq) const
      FSR_REQUIRES(role_);

  /// Route an envelope (command or ordered read) into the ring, through the
  /// coalescing batch when enabled.
  void enqueue_envelope(const Payload& envelope) FSR_REQUIRES(role_);
  void arm_flush_timer() FSR_REQUIRES(role_);

  void deliver_payload(const Delivery& d) FSR_REQUIRES(role_);
  void deliver_sub(const Payload& envelope, const Delivery& d) FSR_REQUIRES(role_);
  void deliver_command(const GatewayCommand& cmd, const Delivery& d)
      FSR_REQUIRES(role_);
  void deliver_read(const GatewayReadCommand& rd, const Delivery& d)
      FSR_REQUIRES(role_);
  void apply_lease(const LeaseGrant& grant) FSR_REQUIRES(role_);
  /// Leader-side, traffic-driven lease renewal: called after gateway
  /// deliveries; broadcasts a fresh grant when less than half the lease
  /// remains. No periodic timer — an idle group lets its lease lapse and the
  /// first lease-cold ordered read restarts the cycle.
  void maybe_renew_lease() FSR_REQUIRES(role_);

  GroupMember& member_;
  StateMachine& machine_;
  GatewayConfig cfg_;
  SubmitFn submit_;

  ThreadRole role_{"Gateway::event"};

  std::unordered_map<std::uint64_t, SessionState> sessions_ FSR_GUARDED_BY(role_);
  std::unordered_map<std::uint64_t, OwnedSession> owned_ FSR_GUARDED_BY(role_);
  std::size_t admitted_bytes_ FSR_GUARDED_BY(role_) = 0;  ///< in-flight + queued bytes

  EnvelopeBatch batch_ FSR_GUARDED_BY(role_);
  bool flush_timer_armed_ FSR_GUARDED_BY(role_) = false;
  bool in_drain_ FSR_GUARDED_BY(role_) = false;

  /// Ordered reads this replica admitted, answered when their envelope
  /// delivers back (keyed client_id, read_seq). Entries self-clean at
  /// delivery; disconnect drops a client's entries as orphaned.
  std::map<std::pair<std::uint64_t, std::uint64_t>, SendReplyFn> pending_reads_
      FSR_GUARDED_BY(role_);

  ViewId lease_view_ FSR_GUARDED_BY(role_) = 0;
  Time lease_expiry_ FSR_GUARDED_BY(role_) = 0;
  Time last_grant_sent_ FSR_GUARDED_BY(role_) = 0;

  GatewayCounters counters_ FSR_GUARDED_BY(role_);
};

}  // namespace fsr
