#include "transport/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <stdexcept>

#include "common/log.h"
#include "proto/codec.h"

namespace fsr {

namespace {

/// recv() chunk granularity; the ChunkBuffer always offers at least this much
/// writable tail so a drain needs few syscalls.
constexpr std::size_t kRecvChunk = 64 * 1024;

}  // namespace

TcpTransport::TcpTransport(TcpConfig config) : cfg_(std::move(config)) {
  reactor_.set_iteration_hook([this] {
    reactor_.role().assert_held();  // lambda: runs at the end of each iteration
    flush_marked();
  });
}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::set_peer_port(NodeId peer, std::uint16_t port) {
  assert(!running_.load() && "set_peer_port is a pre-start bootstrap call");
  for (auto& p : cfg_.peers) {
    if (p.id == peer) p.port = port;
  }
}

void TcpTransport::bind() {
  if (listen_fd_ >= 0) return;
  const TcpPeer* me = nullptr;
  for (const auto& p : cfg_.peers) {
    if (p.id == cfg_.self) me = &p;
  }
  if (me == nullptr) throw std::invalid_argument("TcpTransport: self is not in the peer list");
  Listener l = listen_tcp(me->host, me->port, 16);
  listen_fd_ = l.fd;
  bound_port_ = l.port;
  // Single-threaded setup: no loop thread exists yet to contend the role.
  ThreadRoleRegion io(reactor_.role());
  reactor_.watch(listen_fd_, [this](std::uint32_t) {
    reactor_.role().assert_held();  // lambda: a reactor handler
    accept_new();
  });
}

void TcpTransport::start() {
  bind();
  running_.store(true);
  reactor_.start();
}

void TcpTransport::stop() {
  if (reactor_.role().held_by_me()) {
    sync_fatal("stop() called from the transport's own I/O thread", "TcpTransport");
  }
  if (!running_.exchange(false)) return;
  // Joins the loop, runs closures that were posted but never reached it (a
  // post_wait() racing this stop() would otherwise block forever; their
  // sends are dropped) and closes every socket.
  reactor_.stop();
  reactor_.post([this] {
    reactor_.role().assert_held();  // lambda: drained inline, the loop is gone
    for (auto& [peer, c] : out_conns_) pending_tx_bytes_ -= c->outbox_bytes;
    out_conns_.clear();
  });
}

// --- Transport interface ---

void TcpTransport::check_io_call(const char* what) const {
  // The GroupMember/Engine constructors arm timers on the constructing
  // thread before start(): that single-threaded setup phase is the one
  // legitimate role-free caller. Anywhere else, the Transport-interface
  // entry points must run under the I/O role (loop thread or post-stop
  // drain).
  if (!reactor_.role().held_by_me() && running_.load()) {
    sync_fatal(what, "TcpTransport: Transport call off the I/O thread");
  }
}

TcpTransport::EncodedFrame TcpTransport::encode_for_wire(const Frame& frame) {
  // Sink for the templated codec that builds an outbox chunk chain directly:
  // header/control bytes accumulate in an owned buffer, large payloads become
  // reference chunks (transmitted by sendmsg scatter-gather, never copied).
  // The 4-byte length prefix is reserved up front and patched at the end, so
  // a frame is encoded in one pass with no re-copy.
  struct ChainWriter {
    EncodedFrame& out;
    TransportCounters& ctr;
    std::size_t copy_threshold;
    Bytes cur;

    void fixed(std::uint64_t v, int nbytes) {
      for (int i = 0; i < nbytes; ++i) {
        cur.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    }
    void u8(std::uint8_t v) { cur.push_back(v); }
    void u16(std::uint16_t v) { fixed(v, 2); }
    void u32(std::uint32_t v) { fixed(v, 4); }
    void u64(std::uint64_t v) { fixed(v, 8); }
    void var(std::uint64_t v) {
      while (v >= 0x80) {
        cur.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
      }
      cur.push_back(static_cast<std::uint8_t>(v));
    }
    void raw(std::span<const std::uint8_t> d) {
      cur.insert(cur.end(), d.begin(), d.end());
    }
    void bytes(std::span<const std::uint8_t> d) {
      var(d.size());
      raw(d);
    }
    void str(std::string_view s) {
      var(s.size());
      cur.insert(cur.end(), s.begin(), s.end());
    }
    void raw_ref(const Payload& p) {
      if (p.size() <= copy_threshold) {
        raw(p.span());
        ++ctr.tx_payload_copies;
        return;
      }
      flush();
      out.chunks.push_back(OutChunk{Bytes{}, p});
      ++ctr.tx_payload_refs;
    }
    void flush() {
      if (cur.empty()) return;
      out.chunks.push_back(OutChunk{std::move(cur), Payload{}});
      cur.clear();
    }
  };

  EncodedFrame out;
  ChainWriter w{out, counters_, cfg_.tx_copy_threshold, Bytes{}};
  w.cur.reserve(256);
  for (int i = 0; i < 4; ++i) w.cur.push_back(0);  // length prefix placeholder
  encode_frame(w, frame);
  w.flush();
  std::size_t total = 0;
  for (const auto& ch : out.chunks) total += ch.size();
  auto body = static_cast<std::uint32_t>(total - 4);
  for (int i = 0; i < 4; ++i) {
    out.chunks.front().own[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(body >> (8 * i));
  }
  out.bytes = total;
  return out;
}

void TcpTransport::send(Frame frame) {
  check_io_call("send");
  // Sends racing stop() (drained posted closures) are dropped: the sockets
  // are gone and a crash-stop cluster treats a stopped node as crashed.
  if (!running_.load()) return;
  frame.from = cfg_.self;
  NodeId to = frame.to;
  auto it = out_conns_.find(to);
  if (it == out_conns_.end() && is_down(to)) return;
  EncodedFrame wire = encode_for_wire(frame);
  ++counters_.tx_frames;
  if (it == out_conns_.end()) {
    // While a reconnect backoff is armed, frames wait for it in order.
    if (retry_pending_.count(to) > 0 || !connect_peer(to)) {
      // connect_peer may have just declared the peer down — don't resurrect
      // its unsent queue.
      if (is_down(to)) return;
      pending_tx_bytes_ += wire.bytes;
      unsent_.push_back({to, std::move(wire)});
      if (!tx_idle()) busy_ = true;
      return;
    }
    it = out_conns_.find(to);
  }
  enqueue_chunks(*it->second, std::move(wire));
  if (!tx_idle()) busy_ = true;
  // No eager write: the frame is flushed — coalesced with everything else
  // queued this loop iteration — by flush_marked() at the iteration's end.
  mark_for_flush(*it->second);
}

bool TcpTransport::tx_idle() const {
  check_io_call("tx_idle");
  return pending_tx_bytes_ < cfg_.tx_high_watermark;
}

TimerId TcpTransport::set_timer(Time delay, std::function<void()> fn) {
  check_io_call("set_timer");
  return TimerId{reactor_.set_timer(delay, std::move(fn))};
}

void TcpTransport::cancel_timer(TimerId id) {
  check_io_call("cancel_timer");
  if (id.valid()) reactor_.cancel_timer(id.serial_);
}

// --- internals (I/O thread) ---

bool TcpTransport::is_down(NodeId peer) const {
  return std::find(down_.begin(), down_.end(), peer) != down_.end();
}

void TcpTransport::enqueue_chunks(Conn& conn, EncodedFrame&& frame) {
  pending_tx_bytes_ += frame.bytes;
  for (auto& ch : frame.chunks) conn.push(std::move(ch));
}

void TcpTransport::mark_for_flush(Conn& c) {
  if (c.flush_queued) return;
  c.flush_queued = true;
  flush_pending_.push_back(&c);
}

void TcpTransport::flush_marked() {
  // Runs once per loop iteration: every frame queued during the iteration
  // leaves in as few sendmsg calls as the iovec cap allows. Callbacks fired
  // from handle_writable (on_tx_ready) may queue more — keep going until no
  // connection is marked, so nothing waits for the next wakeup. Marked
  // conns closed this iteration are still alive: the reactor frees their
  // handlers only after this hook.
  while (!flush_pending_.empty()) {
    std::vector<Conn*> pending;
    pending.swap(flush_pending_);
    for (Conn* c : pending) {
      c->flush_queued = false;
      if (c->fd >= 0 && !c->outbox.empty()) handle_writable(*c);
    }
  }
}

void TcpTransport::add_conn(const std::shared_ptr<Conn>& c) {
  // The handler holds the connection: inbound conns live exactly as long as
  // their watch, and a handler that closes its own conn stays valid.
  reactor_.watch(c->fd, [this, c](std::uint32_t events) {
    reactor_.role().assert_held();  // lambda: a reactor handler
    if (events & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP)) handle_readable(*c, events);
    if (c->fd >= 0 && (events & EPOLLOUT) && !c->outbox.empty()) handle_writable(*c);
  });
}

bool TcpTransport::connect_peer(NodeId peer) {
  const TcpPeer* target = nullptr;
  for (const auto& p : cfg_.peers) {
    if (p.id == peer) target = &p;
  }
  if (!target) return false;

  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return false;
  set_nodelay(fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(target->port);
  ::inet_pton(AF_INET, target->host.c_str(), &addr.sin_addr);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    // Schedule a retry; report down after the budget is exhausted.
    if (++connect_attempts_[peer] > cfg_.connect_retries) {
      report_peer_down(peer);
    } else if (retry_pending_.insert(peer).second) {
      reactor_.set_timer(cfg_.connect_retry_delay, [this, peer] {
        reactor_.role().assert_held();  // lambda: a reactor timer
        retry_connect(peer);
      });
    }
    return false;
  }
  FSR_DEBUG("node %u: connect to peer %u fd=%d", cfg_.self, peer, fd);
  auto c = std::make_shared<Conn>();
  c->fd = fd;
  c->peer = peer;
  c->outgoing = true;
  c->hello_done = true;  // hello is the first thing in the outbox
  OutChunk hello;
  hello.own.resize(4);
  for (int i = 0; i < 4; ++i) {
    hello.own[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(cfg_.self >> (8 * i));
  }
  pending_tx_bytes_ += hello.own.size();
  c->push(std::move(hello));
  out_conns_[peer] = c;
  add_conn(c);
  return true;
}

void TcpTransport::retry_connect(NodeId peer) {
  retry_pending_.erase(peer);
  if (is_down(peer) || out_conns_.count(peer) > 0 || !connect_peer(peer)) return;
  // Move frames that were waiting for the connection into its outbox
  // (their bytes are already in pending_tx_bytes_).
  Conn& c = *out_conns_[peer];
  for (auto it = unsent_.begin(); it != unsent_.end();) {
    if (it->first == peer) {
      pending_tx_bytes_ -= it->second.bytes;
      enqueue_chunks(c, std::move(it->second));
      it = unsent_.erase(it);
    } else {
      ++it;
    }
  }
  mark_for_flush(c);
}

void TcpTransport::report_peer_down(NodeId peer) {
  if (is_down(peer)) return;
  down_.push_back(peer);
  for (auto it = unsent_.begin(); it != unsent_.end();) {
    if (it->first == peer) {
      pending_tx_bytes_ -= it->second.bytes;
      it = unsent_.erase(it);
    } else {
      ++it;
    }
  }
  FSR_INFO("node %u: peer %u is down", cfg_.self, peer);
  if (handlers_.on_peer_down) handlers_.on_peer_down(peer);
  maybe_tx_ready();
}

void TcpTransport::maybe_tx_ready() {
  if (busy_ && tx_idle()) {
    busy_ = false;
    if (handlers_.on_tx_ready) handlers_.on_tx_ready();
  }
}

void TcpTransport::accept_new() {
  for (int fd; (fd = accept_stream(listen_fd_)) >= 0;) {
    FSR_DEBUG("node %u: accepted fd=%d", cfg_.self, fd);
    auto c = std::make_shared<Conn>();
    c->fd = fd;
    add_conn(c);
  }
}

void TcpTransport::handle_readable(Conn& c, std::uint32_t events) {
  const bool open = c.receive(kRecvChunk, events & (EPOLLRDHUP | EPOLLHUP | EPOLLERR), &counters_);
  // Frames that arrived ahead of an EOF are still delivered.
  parse_frames(c);
  if (!open) {
    // EOF or error: in a crash-stop cluster an unexpected close is a crash.
    FSR_DEBUG("node %u: conn to peer %u readable fault (out=%d)", cfg_.self, c.peer,
              c.outgoing ? 1 : 0);
    close_conn(c, /*peer_fault=*/true);
  }
}

void TcpTransport::parse_frames(Conn& c) {
  if (!c.hello_done) {
    auto data = c.rx.readable();
    if (data.size() < 4) return;
    NodeId peer = 0;
    for (int i = 0; i < 4; ++i) {
      peer |= static_cast<NodeId>(data[static_cast<std::size_t>(i)]) << (8 * i);
    }
    c.peer = peer;
    c.hello_done = true;
    c.rx.consume(4);
  }
  // One owner handle for every frame parsed out of this drain: payloads
  // decoded below alias the chunk and share its ownership (zero-copy). The
  // chunk storage never moves, so spans into it stay valid throughout.
  auto owner = c.rx.owner();
  auto data = c.rx.readable();
  std::size_t pos = 0;
  while (c.fd >= 0 && data.size() - pos >= 4) {  // stop if closed mid-parse
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(data[pos + static_cast<std::size_t>(i)])
             << (8 * i);
    }
    if (len > 64u * 1024 * 1024) {
      FSR_WARN("node %u: insane frame length %u from peer %d", cfg_.self, len,
               c.peer == kNoNode ? -1 : (int)c.peer);
      close_conn(c, true);  // insane length: corrupted stream
      return;
    }
    if (data.size() - pos - 4 < len) break;
    try {
      PayloadDecodeCounters pdc;
      Frame frame = decode_frame(data.subspan(pos + 4, len), owner, &pdc);
      counters_.rx_payload_aliases += pdc.aliased;
      counters_.rx_payload_copies += pdc.copied;
      pos += 4 + len;
      ++counters_.rx_frames;
      if (handlers_.on_frame) handlers_.on_frame(frame);
    } catch (const CodecError& e) {
      FSR_WARN("node %u: dropping connection after codec error: %s", cfg_.self,
               e.what());
      close_conn(c, true);
      return;
    }
  }
  c.rx.consume(pos);
}

void TcpTransport::handle_writable(Conn& c) {
  const std::size_t before = c.outbox_bytes;
  const bool ok = c.send_outbox(&counters_);
  pending_tx_bytes_ -= before - c.outbox_bytes;
  if (!ok) {
    FSR_DEBUG("node %u: conn to peer %u writable fault (errno=%d)", cfg_.self, c.peer,
              errno);
    close_conn(c, true);
    return;
  }
  if (c.outbox.empty()) maybe_tx_ready();
}

void TcpTransport::close_conn(Conn& c, bool peer_fault) {
  if (c.fd < 0) return;
  NodeId peer = c.peer;
  FSR_DEBUG("node %u: closing conn fd=%d peer=%d out=%d fault=%d", cfg_.self, c.fd,
            peer == kNoNode ? -1 : (int)peer, c.outgoing ? 1 : 0, peer_fault ? 1 : 0);
  reactor_.close_fd(c.fd);
  c.fd = -1;
  pending_tx_bytes_ -= c.outbox_bytes;
  c.outbox.clear();
  c.outbox_bytes = 0;
  c.out_offset = 0;
  auto it = out_conns_.find(peer);
  if (c.outgoing && it != out_conns_.end() && it->second.get() == &c) out_conns_.erase(it);
  if (peer_fault && peer != kNoNode && running_.load()) {
    report_peer_down(peer);
  }
}

}  // namespace fsr
