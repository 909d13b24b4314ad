// Client-facing TCP service for the gateway: each replica runs a
// GatewayServer fronting its Gateway with a small fleet of event loops, each
// a Reactor (transport/reactor.h) on its own thread. Every loop owns a shard
// of the connections (edge-triggered nonblocking reads and writes,
// per-connection scatter-gather outboxes with partial-write resume) and
// marshals decoded client messages onto the replica's transport I/O thread
// in per-drain batches — the Gateway itself stays single-threaded, exactly
// like the protocol stack beneath it, and each drain batch ends with one
// flush_coalesced() so requests that arrived together ride one broadcast
// envelope. Accepted sockets and replies reach their loop by
// Reactor::post(); a loop packs the replies of one iteration into one
// multi-message client frame per connection, flushed from its
// end-of-iteration hook.
//
// Thread-safety is compile-time: each loop's connection shard is guarded by
// that loop's reactor role; Reactor::post() is the only cross-thread
// surface.
//
// TcpGatewayCluster assembles the whole replicated service over real
// sockets: TcpCluster (n GroupMembers) + per-node KvStore + Gateway +
// GatewayServer, with gateway broadcasts registered with the invariant
// checker via TcpCluster::submit_from_io.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "app/kv_store.h"
#include "common/sync.h"
#include "gateway/gateway.h"
#include "gateway/shard_router.h"
#include "harness/tcp_cluster.h"
#include "transport/reactor.h"

namespace fsr {

/// Client frames on the wire are a 4-byte little-endian length followed by
/// the encoded ClientFrame. Anything larger than this is treated as a
/// hostile length field and drops the connection.
constexpr std::size_t kMaxClientFrameBytes = 16u << 20;

/// Blocking frame I/O over a connected socket, used by the client driver and
/// tests. write returns false on any socket error. read returns nullopt on
/// EOF, socket error, or timeout (errno distinguishes; a decoded frame
/// aliases a fresh shared buffer, so Payload views stay valid).
bool gateway_write_frame(int fd, const ClientFrame& frame);
std::optional<ClientFrame> gateway_read_frame(int fd);

/// Length-prefix + encode in one buffer (the event loops' outbound unit).
Bytes encode_client_frame_with_prefix(const ClientFrame& frame);

struct GatewayServerConfig {
  /// Event-loop threads per server. Connections are sharded round-robin at
  /// accept time and never migrate.
  std::size_t event_loops = 2;
  /// Per-connection cap on queued outbound bytes. A client that stops
  /// reading (slow loris) hits the cap and is disconnected instead of
  /// holding reply memory hostage.
  std::size_t max_outbox_bytes = 4u << 20;
};

class GatewayServer {
 public:
  /// `io` is the replica's transport (its I/O thread runs the router and
  /// every shard gateway); `router` must outlive the server. Single-shard
  /// deployments front their one Gateway with a one-entry ShardRouter.
  GatewayServer(TcpTransport& io, ShardRouter& router, GatewayServerConfig cfg = {});
  ~GatewayServer();

  GatewayServer(const GatewayServer&) = delete;
  GatewayServer& operator=(const GatewayServer&) = delete;

  /// Bind (port 0 = ephemeral), listen, and start the event loops.
  void start(std::uint16_t port = 0);
  void stop();
  std::uint16_t port() const { return port_; }

  /// Connections currently open across all loops (cross-thread snapshot).
  std::size_t open_connections() const;

 private:
  struct Conn : StreamConn {
    std::uint64_t serial = 0;
    std::set<std::uint64_t> clients_seen;
  };

  /// One event-loop shard: a Reactor and the connections it owns.
  class EventLoop {
   public:
    EventLoop(GatewayServer& server, std::size_t index);

    Reactor& reactor() { return reactor_; }
    /// Stop the loop, close its connections and drop their state.
    void stop();
    /// Before start(): own the listener and deal accepted sockets out
    /// round-robin (loop 0).
    void listen(int listen_fd);
    /// Cross-thread: queue a reply for the connection with this serial
    /// (dropped if it died) — called from the transport I/O thread.
    void post_reply(std::uint64_t serial, const ClientReply& r);
    std::size_t open_connections() const { return open_conns_.load(); }

   private:
    void accept_ready(int listen_fd) FSR_REQUIRES(reactor_.role());
    void add_conn(int fd, std::uint64_t serial) FSR_REQUIRES(reactor_.role());
    void handle_readable(Conn& c, std::uint32_t events) FSR_REQUIRES(reactor_.role());
    /// Parse every complete frame in the rx buffer and post the decoded
    /// messages to the gateway as ONE I/O-thread closure per drain.
    void parse_frames(Conn& c) FSR_REQUIRES(reactor_.role());
    void enqueue_frame(Conn& c, Bytes frame) FSR_REQUIRES(reactor_.role());
    void flush_replies() FSR_REQUIRES(reactor_.role());  // the iteration hook
    void close_conn(Conn& c, bool notify_gateway) FSR_REQUIRES(reactor_.role());

    GatewayServer& server_;
    const std::size_t index_;
    std::unordered_map<std::uint64_t, std::shared_ptr<Conn>> conns_
        FSR_GUARDED_BY(reactor_.role());
    std::vector<std::pair<std::uint64_t, ClientReply>> replies_
        FSR_GUARDED_BY(reactor_.role());  // this iteration's, not yet framed
    std::atomic<std::size_t> open_conns_{0};
    Reactor reactor_{"GatewayServer::loop"};  // last: its thread uses the state above
  };

  friend class EventLoop;

  TcpTransport& io_;
  ShardRouter& router_;
  GatewayServerConfig cfg_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> next_serial_{1};
  std::atomic<std::size_t> next_loop_{0};
  /// shared_ptr: the reply callbacks handed to the gateway hold their loop,
  /// so a loop outlives any reply still in flight after stop().
  std::vector<std::shared_ptr<EventLoop>> loops_;
};

/// Client connection target.
struct GatewayEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct TcpGatewayClusterConfig {
  std::size_t n = 3;
  GroupConfig group;
  GatewayConfig gateway;
  GatewayServerConfig server;
  /// Independent ordering domains (shards) per node, each a full
  /// Gateway + ring behind the node's ShardRouter; with more than one,
  /// gateways run sparse_sessions mode.
  GroupId shards = 1;
};

/// The full replicated KV service over real TCP: n replicas, each serving
/// clients through its own GatewayServer port.
class TcpGatewayCluster {
 public:
  explicit TcpGatewayCluster(TcpGatewayClusterConfig config = {});
  ~TcpGatewayCluster();

  TcpGatewayCluster(const TcpGatewayCluster&) = delete;
  TcpGatewayCluster& operator=(const TcpGatewayCluster&) = delete;

  std::size_t size() const { return stores_.size(); }
  std::vector<GatewayEndpoint> endpoints() const;
  TcpCluster& cluster() { return *cluster_; }

  /// Hard-stop a replica: its client connections reset (clients fail over)
  /// and its peers detect the crash.
  void crash(NodeId node);
  bool alive(NodeId node) const { return cluster_->alive(node); }

  GroupId shards() const { return shards_; }

  /// Snapshots taken on each live node's I/O thread: across every shard, or
  /// one shard's slice across nodes.
  GatewayCounters gateway_counters() const;
  GatewayCounters gateway_counters(GroupId shard) const;
  /// Live admission gauge (in-flight + queued envelope bytes) summed over
  /// the live nodes; the reconnect-storm test probes this mid-run.
  std::uint64_t total_admitted_bytes() const;
  /// Live owned-session bindings summed over the live nodes.
  std::uint64_t total_owned_sessions() const;
  std::vector<std::uint64_t> fingerprints() const;
  std::uint64_t total_failed_cas() const;
  std::uint64_t total_applied() const;

  /// Raw per-node access for post-quiesce assertions in tests.
  KvStore& store(NodeId node) { return *stores_[node]; }
  Gateway& gateway(NodeId node) { return *gateways_[node][0]; }
  Gateway& gateway(NodeId node, GroupId shard) { return *gateways_[node][shard]; }
  ShardRouter& router(NodeId node) { return *routers_[node]; }
  GatewayServer& server(NodeId node) { return *servers_[node]; }

  std::string check_invariants() const { return cluster_->check_invariants(); }

 private:
  /// Sum read(node index) over the live nodes, each read on its node's I/O
  /// thread.
  template <typename T, typename Fn>
  T sum_live(Fn read) const;

  std::unique_ptr<TcpCluster> cluster_;
  GroupId shards_ = 1;
  std::vector<std::unique_ptr<KvStore>> stores_;
  std::vector<std::vector<std::unique_ptr<Gateway>>> gateways_;  ///< [node][shard]
  std::vector<std::unique_ptr<ShardRouter>> routers_;            ///< [node]
  std::vector<std::unique_ptr<GatewayServer>> servers_;
};

}  // namespace fsr
