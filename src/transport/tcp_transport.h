// Real-network transport: the same Transport interface the simulator
// implements, backed by TCP sockets (the paper's implementation also ran
// point-to-point TCP channels on the cluster, Table 1).
//
// Threading model: one Reactor (transport/reactor.h) per TcpTransport. Its
// epoll loop thread executes ALL protocol callbacks (on_frame / on_tx_ready
// / on_peer_down / timers) — the engine and VSC layer stay single-threaded,
// exactly as on the simulator. Application threads interact via post(),
// which marshals a closure onto the loop (eventfd wake).
//
// The contract is capability-checked: io_role() is the reactor's
// ThreadRole, held by whichever thread is currently allowed to run protocol
// code — the loop thread while the transport runs, a serialized post-stop
// drainer afterwards. Methods marked FSR_REQUIRES(io_role) are
// compile-errors off that thread under Clang wherever the concrete type is
// visible; calls arriving through the Transport interface are covered by
// runtime asserts instead (see check_io_call). The single-threaded setup
// phase before start() may call the timer/send API without the role.
//
// Connections: one outgoing connection per peer, established lazily on
// first send and identified by a hello carrying the sender's NodeId;
// inbound connections are read-only. A send to a peer whose connection
// cannot be (re)established within the configured retries reports the peer
// down — together with connection resets this approximates the perfect
// failure detector of the model (§3) well enough for a crash-stop cluster.
// Everything sent during one loop iteration is flushed together, at the
// end of the iteration, in as few sendmsg calls as the iovec cap allows.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/sync.h"
#include "transport/reactor.h"
#include "transport/transport.h"

namespace fsr {

struct TcpPeer {
  NodeId id = kNoNode;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct TcpConfig {
  NodeId self = kNoNode;
  std::vector<TcpPeer> peers;  // must include self (for the listen address)

  /// Outbox size above which tx_idle() reports busy (send pacing, which is
  /// also what makes ack piggybacking effective on TCP).
  std::size_t tx_high_watermark = 256 * 1024;

  /// Payloads at most this large are copied into the frame's header buffer
  /// instead of being enqueued by reference: below this size one contiguous
  /// buffer beats the per-iovec bookkeeping. Payloads above it are never
  /// copied (counted in TransportCounters::tx_payload_refs).
  std::size_t tx_copy_threshold = 256;

  /// Reconnect attempts before a peer is reported down.
  int connect_retries = 30;
  Time connect_retry_delay = 100 * kMillisecond;
};

class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(TcpConfig config);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Bind + listen (no thread yet). Useful with port 0: read bound_port()
  /// afterwards and distribute it to the peers before start(). Throws
  /// std::runtime_error if the address cannot be bound.
  void bind();

  /// Update a peer's port before start() (ephemeral-port bootstrap).
  void set_peer_port(NodeId peer, std::uint16_t port);

  /// Start the I/O thread (binds first if bind() was not called). Call
  /// after set_handlers().
  void start();

  /// Stop the I/O thread and close every socket. Must not be called from
  /// the I/O thread itself (it joins it).
  void stop() FSR_EXCLUDES(reactor_.role());

  /// Run `fn` on the I/O thread (thread-safe; the only correct way to
  /// reach the engine from outside).
  void post(std::function<void()> fn) { reactor_.post(std::move(fn)); }

  /// Run `fn` on the I/O thread and wait for it to finish. Calling this
  /// from the I/O thread itself would self-deadlock; statically excluded
  /// and checked at runtime.
  void post_wait(std::function<void()> fn) FSR_EXCLUDES(reactor_.role()) {
    reactor_.post_wait(std::move(fn));
  }

  std::uint16_t bound_port() const { return bound_port_; }

  /// The capability guarding all I/O-thread-only state. Code that reaches
  /// this transport through a type-erased path (a posted closure, the
  /// Transport interface) re-asserts it with io_role().assert_held().
  ThreadRole& io_role() FSR_RETURN_CAPABILITY(reactor_.role()) { return reactor_.role(); }

  // --- Transport interface (I/O thread only, except noted) ---
  NodeId self() const override { return cfg_.self; }
  Time now() const override { return Reactor::now(); }
  void send(Frame frame) override FSR_REQUIRES(reactor_.role());
  bool tx_idle() const override FSR_REQUIRES(reactor_.role());
  TimerId set_timer(Time delay, std::function<void()> fn) override
      FSR_REQUIRES(reactor_.role());
  void cancel_timer(TimerId id) override FSR_REQUIRES(reactor_.role());

 private:
  struct Conn : StreamConn {
    NodeId peer = kNoNode;
    bool outgoing = false;
    bool hello_done = false;
    bool flush_queued = false;  // in flush_pending_ for this loop iteration
  };

  /// An encoded frame as a chain of chunks, ready to splice into an outbox.
  struct EncodedFrame {
    std::vector<OutChunk> chunks;
    std::size_t bytes = 0;
  };

  EncodedFrame encode_for_wire(const Frame& frame) FSR_REQUIRES(reactor_.role());

  /// Register a connected (or connecting) socket with the reactor.
  void add_conn(const std::shared_ptr<Conn>& c) FSR_REQUIRES(reactor_.role());
  void accept_new() FSR_REQUIRES(reactor_.role());
  void handle_readable(Conn& c, std::uint32_t events) FSR_REQUIRES(reactor_.role());
  void parse_frames(Conn& c) FSR_REQUIRES(reactor_.role());
  void handle_writable(Conn& c) FSR_REQUIRES(reactor_.role());
  void flush_marked() FSR_REQUIRES(reactor_.role());  // the iteration hook
  void mark_for_flush(Conn& c) FSR_REQUIRES(reactor_.role());
  void close_conn(Conn& c, bool peer_fault) FSR_REQUIRES(reactor_.role());
  bool connect_peer(NodeId peer) FSR_REQUIRES(reactor_.role());
  /// Backoff timer: reconnect and move the peer's unsent_ frames over.
  void retry_connect(NodeId peer) FSR_REQUIRES(reactor_.role());
  void enqueue_chunks(Conn& conn, EncodedFrame&& frame) FSR_REQUIRES(reactor_.role());
  void maybe_tx_ready() FSR_REQUIRES(reactor_.role());  // fire on_tx_ready once per busy -> idle
  void report_peer_down(NodeId peer) FSR_REQUIRES(reactor_.role());
  bool is_down(NodeId peer) const FSR_REQUIRES(reactor_.role());
  /// Runtime backing for the Transport-interface entry points, which reach
  /// us type-erased: require the role unless this is the single-threaded
  /// setup phase before start() (GroupMember arms its timers there).
  void check_io_call(const char* what) const;

  TcpConfig cfg_;
  std::atomic<bool> running_{false};
  // Pre-start bootstrap state (bind/set_peer_port run single-threaded
  // before the I/O thread exists). The listener fd is owned by reactor_.
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;

  /// Open outgoing connections; inbound ones are owned by their reactor
  /// handlers alone.
  std::map<NodeId, std::shared_ptr<Conn>> out_conns_ FSR_GUARDED_BY(reactor_.role());
  std::vector<Conn*> flush_pending_
      FSR_GUARDED_BY(reactor_.role());  // conns to flush this iteration
  std::map<NodeId, int> connect_attempts_ FSR_GUARDED_BY(reactor_.role());
  std::set<NodeId> retry_pending_ FSR_GUARDED_BY(reactor_.role());  // backoff armed
  std::deque<std::pair<NodeId, EncodedFrame>> unsent_
      FSR_GUARDED_BY(reactor_.role());  // awaiting (re)connect
  std::vector<NodeId> down_ FSR_GUARDED_BY(reactor_.role());
  /// Sum of every connection's outbox_bytes plus all unsent_ frame bytes,
  /// maintained incrementally so tx_idle() is O(1).
  std::size_t pending_tx_bytes_ FSR_GUARDED_BY(reactor_.role()) = 0;
  bool busy_ FSR_GUARDED_BY(reactor_.role()) =
      false;  // tx filled past the watermark; announce when it drains

  Reactor reactor_{"TcpTransport::io"};  // last: its thread uses the state above
};

}  // namespace fsr
