// kv-saturate and kv-paced: the replicated KV service over real localhost
// TCP, wired replica by replica the way examples/kv_server.cpp deploys it
// (TcpTransport + GroupMember + KvStore + Gateway + one-entry ShardRouter +
// GatewayServer with one event loop), driven by one generator thread that
// holds one client connection per replica.
//
// The benchmark owns three wrappers on each replica's I/O thread — the
// GroupMember DeliverFn, the Gateway SubmitFn and a StateMachine around the
// KvStore — plus the view callback. They keep the correctness evidence
// (a rolling hash of the delivery stream) and, in traced runs, the spans.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <iterator>
#include <memory>
#include <random>
#include <unordered_map>

#include "app/kv_store.h"
#include "gateway/shard_router.h"
#include "gateway/tcp_gateway.h"
#include "harness/sim_cluster.h"
#include "proto/client_codec.h"
#include "transport/tcp_transport.h"
#include "vsc/group.h"
#include "workloads.h"

namespace fsr::perfbench {
namespace {

constexpr std::size_t kReplicas = 3;
constexpr std::size_t kKeys = 16384;
constexpr std::size_t kValueBytes = 64;
constexpr std::uint64_t kFirstClient = 1000;
constexpr std::uint64_t kFirstReadSeq = std::uint64_t{1} << 62;
/// Clusters built and measured per run; setup_s is the median of their
/// set-up times.
constexpr int kSetups = 3;
/// Length of the sub-windows each cluster's window is split into: short
/// enough to tell calm stretches of a shared host from disturbed ones, long
/// enough for a p99 with ten samples beyond it on every workload.
constexpr Time kSubWindow = 250 * kMillisecond;
constexpr Time kDrainTimeout = 10 * kSecond;
/// Open-loop validity: the run is invalid, not slow, past these.
constexpr double kMaxLateP99Ms = 10.0;
constexpr double kMinRateShare = 0.97;

struct TcpSpec {
  bool open_loop = false;
  std::size_t sessions = 0;
  std::size_t pipeline = 0;      ///< closed loop: outstanding ops per session
  double rate = 0;               ///< open loop: offered ops/s
  double put_share = 1.0;
  std::uint64_t warmup_ops = 0;  ///< ops completed before the window opens
  std::uint64_t trace_every = 1; ///< traced runs follow seq % trace_every == 0
};

TcpSpec spec_for(const std::string& name) {
  TcpSpec s;
  if (name == "kv-saturate") {
    s.sessions = 256;
    s.pipeline = 8;
    s.warmup_ops = 60000;
    s.trace_every = 128;
  } else {
    s.open_loop = true;
    s.sessions = 64;
    s.rate = 20000;
    s.put_share = 0.5;
    s.warmup_ops = 4000;
    s.trace_every = 8;
  }
  return s;
}

std::string key_name(std::uint32_t key) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%05u", key);
  return buf;
}

/// A PUT value names its writer, its session seq and its key, so any value
/// read back can be traced to the exact PUT that wrote it.
std::string make_value(std::size_t session, std::uint64_t seq, std::uint32_t key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "@%06zx%012llx%05u", session,
                static_cast<unsigned long long>(seq), key);
  std::string v(buf);
  v.resize(kValueBytes, '.');
  return v;
}

struct ValueId {
  std::size_t session = 0;
  std::uint64_t seq = 0;
  std::uint32_t key = 0;
};

/// Parse `n` digits in `base` without allocating; nullopt on a bad digit.
std::optional<std::uint64_t> parse_digits(const std::uint8_t* p, int n, int base) {
  std::uint64_t v = 0;
  for (int i = 0; i < n; ++i) {
    const int c = p[i];
    int d = -1;
    if (c >= '0' && c <= '9') d = c - '0';
    if (base == 16 && c >= 'a' && c <= 'f') d = c - 'a' + 10;
    if (d < 0) return std::nullopt;
    v = v * static_cast<std::uint64_t>(base) + static_cast<std::uint64_t>(d);
  }
  return v;
}

/// Find and parse a make_value() inside `bytes` (a value or a whole PUT
/// command). Allocation-free: the traced apply path runs it on every op.
std::optional<ValueId> parse_value(std::span<const std::uint8_t> bytes) {
  const auto* at = static_cast<const std::uint8_t*>(std::memchr(bytes.data(), '@', bytes.size()));
  if (!at || bytes.data() + bytes.size() - at < 24) return std::nullopt;
  auto session = parse_digits(at + 1, 6, 16);
  auto seq = parse_digits(at + 7, 12, 16);
  auto key = parse_digits(at + 19, 5, 10);
  if (!session || !seq || !key) return std::nullopt;
  return ValueId{*session, *seq, static_cast<std::uint32_t>(*key)};
}

/// Rolling hash step over a delivery stream: equal streams give equal
/// hashes, and the order of (seq, payload) pairs matters.
std::uint64_t roll_hash(std::uint64_t h, std::uint64_t seq, std::uint64_t payload_hash) {
  h ^= seq + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h ^= payload_hash + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  return h * 0x100000001B3ULL;
}

struct Mark {
  std::uint64_t client_id = 0;
  std::uint64_t seq = 0;
  Time at = 0;
};

struct ApplySpan {
  std::uint64_t client_id = 0;
  std::uint64_t seq = 0;
  Time start = 0;
  Time end = 0;
};

/// StateMachine wrapper around the replica's KvStore. In traced runs it
/// times every command applied inside the measured window.
class TimedKv final : public StateMachine {
 public:
  explicit TimedKv(KvStore& kv) : kv_(kv) {}

  void apply(NodeId origin, std::span<const std::uint8_t> command) override {
    kv_.apply(origin, command);
  }
  Bytes apply_with_reply(NodeId origin, std::span<const std::uint8_t> command) override {
    if (!timing) return kv_.apply_with_reply(origin, command);
    const Time t0 = mono_ns();
    Bytes reply = kv_.apply_with_reply(origin, command);
    const Time t1 = mono_ns();
    hist.add(t1 - t0);
    busy_ns += static_cast<double>(t1 - t0);
    if (auto v = parse_value(command); v && v->seq % trace_every == 0) {
      spans.push_back(ApplySpan{kFirstClient + v->session, v->seq, t0, t1});
    }
    return reply;
  }
  Bytes query(std::span<const std::uint8_t> q) const override { return kv_.query(q); }
  std::uint64_t fingerprint() const override { return kv_.fingerprint(); }

  // I/O-thread state; read by the generator only after post_wait.
  bool timing = false;
  std::uint64_t trace_every = 1;
  LatencyHist hist;
  double busy_ns = 0;
  std::vector<ApplySpan> spans;

 private:
  KvStore& kv_;
};

struct Snapshot {
  TransportCounters transport;
  EngineCounters engine;
  GatewayCounters gateway;
  std::uint64_t delivered_bytes = 0;
  double apply_busy_ns = 0;
};

/// One replica process's worth of objects, as examples/kv_server.cpp wires
/// them. Everything below `server` runs on the transport's I/O thread.
struct Replica {
  NodeId id = 0;
  std::unique_ptr<TcpTransport> transport;
  KvStore store;
  TimedKv machine{store};
  std::unique_ptr<GroupMember> member;
  std::unique_ptr<Gateway> gateway;
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<GatewayServer> server;

  // DeliverFn / SubmitFn wrapper state (I/O thread).
  std::uint64_t seen = 0;
  std::uint64_t drop_at = 0;  ///< planted fault: swallow this delivery
  std::uint64_t delivered = 0;
  std::uint64_t rolling = 0;
  std::uint64_t delivered_bytes = 0;
  std::uint64_t broadcasts = 0;
  std::vector<Time> submit_at;                ///< [app_msg]: SubmitFn time
  std::vector<std::vector<Time>> deliver_at;  ///< [origin][app_msg]: delivery time
  bool tracing = false;
  std::uint64_t trace_every = 1;
  std::vector<Mark> submit_marks;
  std::vector<Mark> deliver_marks;
  std::vector<std::pair<ViewId, Time>> views;
  /// Counter snapshots at each sub-window boundary of the measured window.
  std::vector<Snapshot> snaps;

  /// Capacity reserved for each timestamp array, so it never reallocates:
  /// a doubling copy would put a run-dependent step into peak_rss_mb.
  static constexpr std::size_t kStampCapacity = std::size_t{1} << 21;

  static void stamp(std::vector<Time>& v, std::uint64_t app_msg) {
    if (v.size() <= app_msg) v.resize(app_msg + 1, -1);
    v[app_msg] = mono_ns();
  }

  void mark(const Payload& p, std::vector<Mark>& out) const {
    const Time now = mono_ns();
    auto note = [&](const Payload& env) {
      auto cmd = parse_envelope(env);
      if (cmd && cmd->session_seq % trace_every == 0) {
        out.push_back(Mark{cmd->client_id, cmd->session_seq, now});
      }
    };
    if (auto subs = parse_batch_envelope(p)) {
      for (const Payload& sub : *subs) note(sub);
    } else {
      note(p);
    }
  }

  void on_submit(Payload p) {
    // The engine numbers this node's broadcasts 1, 2, ...: app_msg.
    stamp(submit_at, ++broadcasts);
    if (tracing) mark(p, submit_marks);
    member->broadcast(std::move(p));
  }

  void on_delivery(const Delivery& d) {
    if (++seen == drop_at) return;
    ++delivered;
    rolling = roll_hash(rolling, d.seq, hash_bytes(d.payload));
    delivered_bytes += d.payload.size();
    stamp(deliver_at[d.origin], d.app_msg);
    if (tracing && d.origin == id) mark(d.payload, deliver_marks);
    ThreadRoleRegion role(gateway->role());
    gateway->on_delivery(d);
  }

  Snapshot snapshot() {
    Snapshot s;
    s.transport = transport->counters();
    s.engine = member->engine().counters();
    {
      ThreadRoleRegion role(gateway->role());
      s.gateway = gateway->counters();
    }
    s.delivered_bytes = delivered_bytes;
    s.apply_busy_ns = machine.busy_ns;
    return s;
  }
};

class Cluster {
 public:
  Cluster(bool tracing, std::uint64_t trace_every, bool plant_drop) {
    std::vector<TcpPeer> peers;
    for (std::size_t i = 0; i < kReplicas; ++i) {
      peers.push_back(TcpPeer{static_cast<NodeId>(i), "127.0.0.1", 0});
    }
    View initial;
    initial.id = 1;
    for (std::size_t i = 0; i < kReplicas; ++i) {
      auto r = std::make_unique<Replica>();
      r->id = static_cast<NodeId>(i);
      TcpConfig tcp;
      tcp.self = r->id;
      tcp.peers = peers;
      r->transport = std::make_unique<TcpTransport>(tcp);
      r->transport->bind();
      r->submit_at.reserve(Replica::kStampCapacity);
      r->deliver_at.resize(kReplicas);
      for (auto& at : r->deliver_at) at.reserve(Replica::kStampCapacity);
      r->tracing = tracing;
      r->trace_every = trace_every;
      r->machine.trace_every = trace_every;
      initial.members.push_back(r->id);
      replicas_.push_back(std::move(r));
    }
    for (auto& r : replicas_) {
      for (auto& peer : replicas_) {
        r->transport->set_peer_port(peer->id, peer->transport->bound_port());
      }
    }
    // The same group settings as the deployable replica (kv_server).
    GroupConfig group;
    group.engine.t = 1;
    group.heartbeat_interval = 200 * kMillisecond;
    group.heartbeat_timeout = 2 * kSecond;
    for (auto& rp : replicas_) {
      Replica* r = rp.get();
      r->member = std::make_unique<GroupMember>(
          *r->transport, group, initial, [r](const Delivery& d) { r->on_delivery(d); },
          [r](const View& v) { r->views.emplace_back(v.id, mono_ns()); });
      r->gateway = std::make_unique<Gateway>(*r->member, r->machine, GatewayConfig{},
                                             [r](Payload p) { r->on_submit(std::move(p)); });
      r->router = std::make_unique<ShardRouter>(std::vector<Gateway*>{r->gateway.get()},
                                                ShardMap(1));
    }
    // Planted fault: the last replica silently skips one delivery.
    if (plant_drop) replicas_.back()->drop_at = 5000;
    for (auto& r : replicas_) r->transport->start();
    GatewayServerConfig server_cfg;
    server_cfg.event_loops = 1;
    for (auto& r : replicas_) {
      r->server = std::make_unique<GatewayServer>(*r->transport, *r->router, server_cfg);
      r->server->start(0);
    }
  }

  ~Cluster() {
    for (auto& r : replicas_) r->server->stop();
    for (auto& r : replicas_) r->transport->stop();
  }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::vector<std::unique_ptr<Replica>>& replicas() { return replicas_; }

  /// Run `fn` on every replica's I/O thread and wait.
  template <typename Fn>
  void on_each(Fn fn) {
    for (auto& r : replicas_) {
      Replica* rp = r.get();
      r->transport->post_wait([rp, &fn] { fn(*rp); });
    }
  }

  /// Post `fn` to every I/O thread without waiting.
  template <typename Fn>
  void post_each(Fn fn) {
    for (auto& r : replicas_) {
      Replica* rp = r.get();
      r->transport->post([rp, fn] { fn(*rp); });
    }
  }

 private:
  std::vector<std::unique_ptr<Replica>> replicas_;
};

/// The load generator: one thread, one nonblocking connection per replica,
/// sessions spread round-robin over the connections.
class Generator {
 public:
  struct Op {
    std::uint64_t seq = 0;
    std::uint32_t key = 0;
    bool is_read = false;
    bool needs_send = true;
    bool in_window = false;
    Time due = 0;   ///< open loop: scheduled send time
    Time sent = 0;  ///< first send
    std::uint32_t attempts = 0;
  };

  struct Session {
    std::uint64_t client_id = 0;
    std::size_t conn = 0;
    std::uint64_t next_seq = 1;
    std::uint64_t next_read_seq = kFirstReadSeq;
    std::deque<Op> window;
    Time retry_after = 0;
    std::mt19937_64 rng;
    std::vector<std::uint32_t> preload;  ///< keys still to preload
    bool dead = false;
  };

  struct Conn {
    int fd = -1;
    std::vector<ClientMsg> pending;
    Bytes tx;
    std::size_t tx_off = 0;
    std::vector<std::uint8_t> rx;
  };

  enum class Phase { kPreload, kRun, kDrain };

  Generator(const TcpSpec& spec, Cluster& cluster, std::uint64_t seed, bool tracing,
            const std::string& plant, RunResult& result)
      : spec_(spec), tracing_(tracing), plant_(plant), result_(result),
        arrivals_(seed * 0x9E3779B97F4A7C15ULL + 17) {
    for (auto& r : cluster.replicas()) {
      conns_.emplace_back();
      conns_.back().fd = connect_to(r->server->port());
    }
    sessions_.resize(spec.sessions);
    for (std::size_t s = 0; s < spec.sessions; ++s) {
      Session& ss = sessions_[s];
      ss.client_id = kFirstClient + s;
      ss.conn = s % conns_.size();
      ss.rng.seed(seed * 1000003ULL + s);
      for (std::uint32_t k = static_cast<std::uint32_t>(s); k < kKeys;
           k += static_cast<std::uint32_t>(spec.sessions)) {
        ss.preload.push_back(k);
      }
      std::reverse(ss.preload.begin(), ss.preload.end());
    }
    keys_per_session_ = kKeys / spec.sessions;
    last_acked_.assign(kKeys, 0);
    if (spec.put_share < 1.0) put_seqs_.resize(kKeys);
  }

  ~Generator() {
    for (auto& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
  }

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool ok() const {
    return std::all_of(conns_.begin(), conns_.end(), [](const Conn& c) { return c.fd >= 0; });
  }

  /// PUT every key once through its owning session (closed loop, depth 8).
  void preload() {
    phase_ = Phase::kPreload;
    started_closed_ = false;
    loop([this] { return outstanding_ == 0 && preload_left() == 0; });
  }

  /// Warm up, then measure for `window` ns split into `parts` equal
  /// sub-windows, then drain.
  void run(Time window, std::size_t parts) {
    phase_ = Phase::kRun;
    started_closed_ = false;
    if (spec_.open_loop) {
      next_due_ = mono_ns();
      next_session_ = pick_session();
    }
    const std::uint64_t done0 = completed_;
    loop([&] { return completed_ - done0 >= spec_.warmup_ops; });
    window_start_ = mono_ns();
    window_end_ = window_start_ + window;
    bounds_.clear();
    for (std::size_t j = 0; j <= parts; ++j) {
      bounds_.push_back(window_start_ + window * static_cast<Time>(j) / static_cast<Time>(parts));
    }
    put_sub.assign(parts, LatencyHist());
    get_sub.assign(parts, LatencyHist());
    completed_sub.assign(parts, 0);
    if (on_boundary) on_boundary(0);
    for (std::size_t j = 1; j <= parts; ++j) {
      loop([&] { return mono_ns() >= bounds_[j]; });
      if (on_boundary) on_boundary(j);
    }
    phase_ = Phase::kDrain;
    const Time drain_deadline = mono_ns() + kDrainTimeout;
    loop([&] { return outstanding_ == 0 || mono_ns() >= drain_deadline; });
    for (auto& s : sessions_) {
      for (const Op& op : s.window) fail_op(op, "no reply before the drain timeout");
      s.window.clear();
    }
  }

  /// Called on the generator thread as the measured window reaches each
  /// sub-window boundary (0 = window start, parts = window end).
  std::function<void(std::size_t)> on_boundary;

  Time window_start() const { return window_start_; }
  Time window_end() const { return window_end_; }
  const std::vector<Time>& bounds() const { return bounds_; }

  /// Index of the sub-window holding `t`, or -1 outside the window.
  long sub_of(Time t) const {
    if (bounds_.empty() || t < bounds_.front() || t >= bounds_.back()) return -1;
    return static_cast<long>(std::upper_bound(bounds_.begin(), bounds_.end(), t) - bounds_.begin()) - 1;
  }

  // --- results ---
  LatencyHist put_hist, get_hist, late_hist;
  std::vector<LatencyHist> put_sub, get_sub;  ///< by issue (due) time
  std::vector<std::uint64_t> completed_sub;   ///< by completion time
  std::uint64_t completed_in_window = 0;
  std::uint64_t attempted_in_window = 0;
  std::uint64_t failed_in_window = 0;
  std::uint64_t sends = 0;
  std::uint64_t completed() const { return completed_; }
  /// Traced runs: (client_id, seq) -> (send, receive) for sampled writes.
  std::unordered_map<std::uint64_t, std::pair<Time, Time>> client_spans;

  static std::uint64_t span_key(std::uint64_t client_id, std::uint64_t seq) {
    return client_id * 0x100000000ULL + seq;
  }

  /// key -> session seq of its last acknowledged PUT (0 = never written).
  const std::vector<std::uint64_t>& last_acked() const { return last_acked_; }
  std::size_t owner(std::uint32_t key) const { return key % spec_.sessions; }

 private:
  static int connect_to(std::uint16_t port) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      return -1;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
  }

  std::size_t preload_left() const {
    std::size_t n = 0;
    for (const auto& s : sessions_) n += s.preload.size();
    return n;
  }

  std::size_t pick_session() {
    return std::uniform_int_distribution<std::size_t>(0, spec_.sessions - 1)(arrivals_);
  }

  void fail_op(const Op& op, const std::string& why) {
    if (op.in_window) ++failed_in_window;
    if (failure_notes_++ < 3) result_.fail("op_completion", why);
  }

  /// Create the session's next op (workload mix) due at `due`.
  void new_op(std::size_t si, Time due) {
    Session& s = sessions_[si];
    Op op;
    op.due = due;
    op.in_window = phase_ == Phase::kRun && due >= window_start_ && window_start_ != 0 &&
                   due < window_end_;
    if (phase_ == Phase::kPreload) {
      op.key = s.preload.back();
      s.preload.pop_back();
    } else {
      op.key = static_cast<std::uint32_t>(
          si + spec_.sessions * std::uniform_int_distribution<std::size_t>(
                                    0, keys_per_session_ - 1)(s.rng));
      op.is_read = std::uniform_real_distribution<double>(0, 1)(s.rng) >= spec_.put_share;
    }
    if (op.is_read) {
      op.seq = s.next_read_seq++;
    } else {
      op.seq = s.next_seq++;
      if (!put_seqs_.empty()) put_seqs_[op.key].push_back(op.seq);
    }
    if (op.in_window) ++attempted_in_window;
    s.window.push_back(op);
    ++outstanding_;
    queue_send(si, s.window.back());
  }

  void queue_send(std::size_t si, Op& op) {
    Session& s = sessions_[si];
    op.needs_send = false;
    ++op.attempts;
    ++sends;
    if (op.is_read) {
      ClientRead rd;
      rd.client_id = s.client_id;
      rd.read_seq = op.seq;
      rd.query = make_payload(KvStore::encode_get(key_name(op.key)));
      conns_[s.conn].pending.emplace_back(std::move(rd));
    } else {
      ClientRequest req;
      req.client_id = s.client_id;
      req.session_seq = op.seq;
      req.command =
          make_payload(KvStore::encode_put(key_name(op.key), make_value(si, op.seq, op.key)));
      conns_[s.conn].pending.emplace_back(std::move(req));
    }
    if (op.sent == 0) sent_now_.push_back({si, op.seq});
  }

  /// Closed loop and preload: top every session up to its depth.
  void refill(std::size_t si, Time now) {
    Session& s = sessions_[si];
    if (s.dead) return;
    const std::size_t depth = phase_ == Phase::kPreload ? 8 : spec_.pipeline;
    while (s.window.size() < depth) {
      if (phase_ == Phase::kPreload) {
        if (s.preload.empty()) break;
      } else if (phase_ != Phase::kRun || spec_.open_loop) {
        break;
      }
      new_op(si, now);
    }
  }

  void issue(Time now) {
    if (phase_ == Phase::kPreload || (phase_ == Phase::kRun && !spec_.open_loop)) {
      if (!started_closed_) {
        started_closed_ = true;
        for (std::size_t si = 0; si < sessions_.size(); ++si) refill(si, now);
      }
    }
    if (phase_ == Phase::kRun && spec_.open_loop) {
      while (next_due_ <= now && (window_end_ == 0 || next_due_ < window_end_)) {
        new_op(next_session_, next_due_);
        next_due_ += static_cast<Time>(
            std::exponential_distribution<double>(spec_.rate)(arrivals_) * 1e9);
        next_session_ = pick_session();
      }
    }
    // Resends after backpressure, in seq order per session.
    if (resend_pending_) {
      resend_pending_ = false;
      for (std::size_t si = 0; si < sessions_.size(); ++si) {
        Session& s = sessions_[si];
        for (Op& op : s.window) {
          if (!op.needs_send) continue;
          if (now < s.retry_after) {
            resend_pending_ = true;
            break;
          }
          queue_send(si, op);
        }
      }
    }
  }

  void flush(Time now) {
    for (auto [si, seq] : sent_now_) {
      for (Op& op : sessions_[si].window) {
        if (op.seq != seq || op.sent != 0) continue;
        op.sent = now;
        if (op.in_window && spec_.open_loop) late_hist.add(now - op.due);
        if (tracing_ && !op.is_read && op.in_window && op.seq % spec_.trace_every == 0) {
          client_spans[span_key(sessions_[si].client_id, op.seq)] = {now, 0};
        }
      }
    }
    sent_now_.clear();
    for (Conn& c : conns_) {
      while (!c.pending.empty()) {
        ClientFrame frame;
        const std::size_t n = std::min<std::size_t>(c.pending.size(), 1024);
        frame.msgs.assign(std::make_move_iterator(c.pending.begin()),
                          std::make_move_iterator(c.pending.begin() + static_cast<long>(n)));
        c.pending.erase(c.pending.begin(), c.pending.begin() + static_cast<long>(n));
        Bytes wire = encode_client_frame_with_prefix(frame);
        c.tx.insert(c.tx.end(), wire.begin(), wire.end());
      }
      write_some(c);
    }
  }

  void write_some(Conn& c) {
    while (c.tx_off < c.tx.size()) {
      ssize_t n = ::send(c.fd, c.tx.data() + c.tx_off, c.tx.size() - c.tx_off,
                         MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.tx_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      result_.fail("client_connection", "send failed");
      conn_broken_ = true;
      return;
    }
    c.tx.clear();
    c.tx_off = 0;
  }

  void read_some(Conn& c, Time now) {
    std::uint8_t buf[65536];
    for (;;) {
      ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        c.rx.insert(c.rx.end(), buf, buf + n);
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      result_.fail("client_connection", "connection closed by the server");
      conn_broken_ = true;
      return;
    }
    std::size_t off = 0;
    while (c.rx.size() - off >= 4) {
      std::uint32_t len = 0;
      for (int i = 0; i < 4; ++i) len |= std::uint32_t{c.rx[off + static_cast<std::size_t>(i)]} << (8 * i);
      if (c.rx.size() - off - 4 < len) break;
      ClientFrame frame = decode_client_frame({c.rx.data() + off + 4, len});
      for (auto& msg : frame.msgs) {
        if (auto* r = std::get_if<ClientReply>(&msg)) on_reply(*r, now);
      }
      off += 4 + len;
    }
    c.rx.erase(c.rx.begin(), c.rx.begin() + static_cast<long>(off));
  }

  void on_reply(const ClientReply& r, Time now) {
    if (r.client_id < kFirstClient || r.client_id - kFirstClient >= sessions_.size()) return;
    const std::size_t si = r.client_id - kFirstClient;
    Session& s = sessions_[si];
    auto it = std::find_if(s.window.begin(), s.window.end(),
                           [&](const Op& op) { return op.seq == r.session_seq; });
    if (it == s.window.end() || it->needs_send) return;  // stale or superseded
    Op& op = *it;
    switch (r.status) {
      case ClientStatus::kOk:
        break;
      case ClientStatus::kRejectedWindow:
      case ClientStatus::kRejectedBytes:
      case ClientStatus::kNotMember:
        // Backpressure turned this seq and everything pipelined above it
        // away: resend the tail in order after a short backoff.
        if (op.attempts >= 50) {
          s.dead = true;
          for (const Op& o : s.window) fail_op(o, "request stayed rejected");
          outstanding_ -= s.window.size();
          s.window.clear();
          return;
        }
        for (auto jt = it; jt != s.window.end(); ++jt) jt->needs_send = true;
        s.retry_after = now + kMillisecond;
        resend_pending_ = true;
        return;
      case ClientStatus::kBadRequest:
        fail_op(op, "request answered kBadRequest");
        s.window.erase(it);
        --outstanding_;
        return;
    }

    const Time from = spec_.open_loop ? op.due : op.sent;
    const bool counted = op.in_window;
    const long sub = sub_of(op.due);
    bool good = true;
    if (op.is_read) {
      Bytes answer(r.reply.begin(), r.reply.end());
      if (plant_ == "corrupt-get" && ++gets_seen_ == 100 && answer.size() > 8) answer[8] ^= 0x01;
      good = check_get(op.key, answer);
      if (counted && good) {
        get_hist.add(now - from);
        if (sub >= 0) get_sub[static_cast<std::size_t>(sub)].add(now - from);
      }
    } else {
      const bool reply_ok = r.reply.size() == 2 && r.reply.data()[0] == 'O' &&
                            r.reply.data()[1] == 'K';
      if (!reply_ok) {
        good = false;
        if (failure_notes_++ < 3) result_.fail("put_reply", "PUT answered other than OK");
      }
      last_acked_[op.key] = std::max(last_acked_[op.key], op.seq);
      if (counted && good) {
        put_hist.add(now - from);
        if (sub >= 0) put_sub[static_cast<std::size_t>(sub)].add(now - from);
      }
      if (tracing_ && counted && op.seq % spec_.trace_every == 0) {
        auto cs = client_spans.find(span_key(s.client_id, op.seq));
        if (cs != client_spans.end()) cs->second.second = now;
      }
    }
    if (counted && !good) ++failed_in_window;
    if (const long done_sub = sub_of(now); done_sub >= 0 && good) {
      ++completed_in_window;
      ++completed_sub[static_cast<std::size_t>(done_sub)];
    }
    ++completed_;
    s.window.erase(it);
    --outstanding_;
    if (!spec_.open_loop || phase_ == Phase::kPreload) refill(si, now);
  }

  bool check_get(std::uint32_t key, const Bytes& answer) {
    auto value = KvStore::decode_get_reply(answer);
    std::string why;
    if (!value) {
      why = "GET " + key_name(key) + " found no value";
    } else {
      auto id = parse_value({reinterpret_cast<const std::uint8_t*>(value->data()), value->size()});
      const auto& seqs = put_seqs_[key];
      if (!id || id->key != key || id->session != owner(key) ||
          !std::binary_search(seqs.begin(), seqs.end(), id->seq) ||
          *value != make_value(id->session, id->seq, id->key)) {
        why = "GET " + key_name(key) + " returned a value never written to it";
      }
    }
    if (why.empty()) return true;
    if (failure_notes_++ < 3) result_.fail("get_value", why);
    return false;
  }

  template <typename Done>
  void loop(Done done) {
    std::vector<pollfd> fds(conns_.size());
    while (!done() && !conn_broken_) {
      Time now = mono_ns();
      if (plant_ == "stall-generator" && window_start_ != 0 &&
          now >= window_start_ + (window_end_ - window_start_) / 2) {
        // Planted fault: the generator stops keeping its schedule.
        plant_.clear();
        ::usleep(300000);
        now = mono_ns();
      }
      issue(now);
      flush(now);
      Time wait = kMillisecond;
      if (phase_ == Phase::kRun && spec_.open_loop) wait = std::clamp<Time>(next_due_ - now, 0, wait);
      if (resend_pending_) wait = std::min<Time>(wait, 200 * kMicrosecond);
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        fds[i].fd = conns_[i].fd;
        fds[i].events = POLLIN | (conns_[i].tx.empty() ? 0 : POLLOUT);
        fds[i].revents = 0;
      }
      timespec ts{static_cast<time_t>(wait / kSecond), static_cast<long>(wait % kSecond)};
      int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (n <= 0) continue;
      now = mono_ns();
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (fds[i].revents & POLLOUT) write_some(conns_[i]);
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_some(conns_[i], now);
      }
    }
  }

  const TcpSpec& spec_;
  bool tracing_;
  std::string plant_;
  RunResult& result_;
  std::vector<Conn> conns_;
  std::vector<Session> sessions_;
  std::size_t keys_per_session_ = 0;
  Phase phase_ = Phase::kPreload;
  bool started_closed_ = false;
  bool resend_pending_ = false;
  bool conn_broken_ = false;
  std::uint64_t outstanding_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t gets_seen_ = 0;
  std::uint64_t failure_notes_ = 0;
  std::mt19937_64 arrivals_;
  Time next_due_ = 0;
  std::size_t next_session_ = 0;
  Time window_start_ = 0;
  Time window_end_ = 0;
  std::vector<Time> bounds_;
  std::vector<std::pair<std::size_t, std::uint64_t>> sent_now_;
  std::vector<std::uint64_t> last_acked_;
  std::vector<std::vector<std::uint64_t>> put_seqs_;  ///< key -> PUT seqs issued
};

/// Wait until every replica delivered the same stream, then compare the
/// rolling hashes, the KvStore fingerprints and every key's final value.
void check_replicas(Cluster& cluster, const Generator& gen, RunResult& result) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> prev;
  int stable = 0;
  const Time deadline = mono_ns() + 5 * kSecond;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> cur;
  while (mono_ns() < deadline) {
    cur.clear();
    cluster.on_each([&](Replica& r) { cur.emplace_back(r.delivered, r.rolling); });
    stable = cur == prev ? stable + 1 : 0;
    prev = cur;
    const bool equal = std::all_of(cur.begin(), cur.end(), [&](auto& c) { return c == cur[0]; });
    if (equal && stable >= 2) break;
    if (!equal && stable >= 20) break;  // settled apart: a real divergence
    ::usleep(5000);
  }
  for (std::size_t i = 1; i < cur.size(); ++i) {
    if (cur[i] != cur[0]) {
      result.fail("delivery_hash",
                  "replica " + std::to_string(i) + " delivered " + std::to_string(cur[i].first) +
                      " messages (rolling hash " + std::to_string(cur[i].second) +
                      ") vs replica 0's " + std::to_string(cur[0].first) + " (" +
                      std::to_string(cur[0].second) + ")");
    }
  }
  std::vector<std::uint64_t> fps;
  cluster.on_each([&](Replica& r) { fps.push_back(r.store.fingerprint()); });
  for (std::size_t i = 1; i < fps.size(); ++i) {
    if (fps[i] != fps[0]) {
      result.fail("kv_fingerprint", "replica " + std::to_string(i) + " store differs from replica 0");
    }
  }
  const auto& last = gen.last_acked();
  cluster.on_each([&](Replica& r) {
    std::size_t bad = 0;
    std::string first;
    for (std::uint32_t k = 0; k < kKeys; ++k) {
      auto got = r.store.get(key_name(k));
      const std::string want = make_value(gen.owner(k), last[k], k);
      if (!got || *got != want) {
        if (bad++ == 0) first = key_name(k);
      }
    }
    if (bad) {
      result.fail("final_value", "replica " + std::to_string(r.id) + ": " + std::to_string(bad) +
                                     " keys differ from their last acknowledged PUT (first " +
                                     first + ")");
    }
  });
}


/// Per-replica data the metrics need, copied off the I/O threads.
struct ReplicaData {
  std::vector<Snapshot> snaps;
  std::vector<Time> submit_at;
  std::vector<std::vector<Time>> deliver_at;
  std::vector<Mark> submit_marks, deliver_marks;
  std::vector<ApplySpan> apply_spans;
  LatencyHist apply_hist;
  std::size_t views = 0;
};

/// The quantiles a run reports from one sub-window's latency histogram.
/// They are kept instead of the histogram, so that the benchmark's own
/// bookkeeping stays small next to the peak RSS it reports.
struct SubLatency {
  static constexpr double kQuantiles[] = {0.5, 0.9, 0.99};
  std::uint64_t count = 0;
  double ms[std::size(kQuantiles)] = {};

  SubLatency() = default;
  explicit SubLatency(const LatencyHist& h) : count(h.count()) {
    for (std::size_t i = 0; i < std::size(kQuantiles); ++i) ms[i] = h.quantile_ms(kQuantiles[i]);
  }
  /// Ten samples beyond the quantile, as LatencyHist::supports.
  bool supports(double q) const { return count > 0 && static_cast<double>(count) * (1.0 - q) >= 10.0; }
  double at(double q) const {
    for (std::size_t i = 0; i < std::size(kQuantiles); ++i) {
      if (kQuantiles[i] == q) return ms[i];
    }
    std::abort();  // only the quantiles above are reported
  }
};

/// One sub-window of one cluster's measured window.
struct SubWindow {
  double secs = 0;
  double ops = 0;
  double cpu_us = 0;
  double bytes = 0;  ///< payload bytes TO-delivered at replica 0
  SubLatency put, get, deliver;
};

std::vector<ReplicaData> collect(Cluster& cluster) {
  std::vector<ReplicaData> data(kReplicas);
  cluster.on_each([&](Replica& r) {
    ReplicaData& d = data[r.id];
    d.snaps = r.snaps;
    d.submit_at = r.submit_at;
    d.deliver_at = r.deliver_at;
    d.submit_marks = r.submit_marks;
    d.deliver_marks = r.deliver_marks;
    d.apply_spans = r.machine.spans;
    d.apply_hist = r.machine.hist;
    d.views = r.views.size();
  });
  return data;
}

/// Split one cluster's window into sub-windows. Ring latency: a broadcast,
/// from its SubmitFn until the last replica delivered it.
void add_sub_windows(const std::vector<ReplicaData>& data, const Generator& gen,
                     const std::vector<double>& cpu_at, std::vector<SubWindow>& out) {
  const auto& bounds = gen.bounds();
  const std::size_t parts = bounds.size() - 1;
  const std::size_t first = out.size();
  for (std::size_t j = 0; j < parts; ++j) {
    SubWindow w;
    w.secs = static_cast<double>(bounds[j + 1] - bounds[j]) / 1e9;
    w.ops = static_cast<double>(gen.completed_sub[j]);
    w.cpu_us = cpu_at[j + 1] - cpu_at[j];
    w.bytes = static_cast<double>(data[0].snaps[j + 1].delivered_bytes -
                                  data[0].snaps[j].delivered_bytes);
    w.put = SubLatency(gen.put_sub[j]);
    w.get = SubLatency(gen.get_sub[j]);
    out.push_back(w);
  }
  std::vector<LatencyHist> deliver(parts);
  for (std::size_t origin = 0; origin < kReplicas; ++origin) {
    const auto& sub = data[origin].submit_at;
    for (std::size_t i = 0; i < sub.size(); ++i) {
      const long k = gen.sub_of(sub[i]);
      if (k < 0) continue;
      Time last = 0;
      for (const ReplicaData& d : data) {
        const auto& at = d.deliver_at[origin];
        last = (i < at.size() && at[i] >= 0 && last >= 0) ? std::max(last, at[i]) : -1;
      }
      if (last >= 0) deliver[static_cast<std::size_t>(k)].add(last - sub[i]);
    }
  }
  for (std::size_t j = 0; j < parts; ++j) out[first + j].deliver = SubLatency(deliver[j]);
}

/// End-to-end metrics: each is computed per sub-window of every measured
/// cluster, and the run reports the calm() figure over them. Sample counts
/// are totals.
void add_end_to_end(const TcpSpec& spec, const std::vector<SubWindow>& subs, RunResult& result) {
  auto over = [&](auto f, bool higher_is_better) {
    std::vector<double> v;
    for (const SubWindow& w : subs) v.push_back(f(w));
    return calm(v, higher_is_better);
  };
  // A quantile is taken over the sub-windows with enough samples for it
  // (ten beyond it); it is reported when at least half of them qualify,
  // so a slow host that thins one sub-window does not void the figure.
  auto latency = [&](std::vector<Metric>& out, SubLatency SubWindow::*h, const std::string& name,
                     double q) {
    std::uint64_t n = 0;
    std::vector<double> v;
    for (const SubWindow& w : subs) {
      n += (w.*h).count;
      if ((w.*h).supports(q)) v.push_back((w.*h).at(q));
    }
    out.push_back(Metric{name, "ms", calm(v, false), n, 2 * v.size() >= subs.size() && !v.empty()});
  };
  double ops = 0;
  for (const SubWindow& w : subs) ops += w.ops;
  auto& e = result.e2e;
  auto& x = result.extra;
  e.push_back(Metric{"ops_per_s", "1/s", over([](const SubWindow& w) { return w.ops / w.secs; }, true),
                     static_cast<std::uint64_t>(ops)});
  for (auto [what, h] : {std::pair{"write", &SubWindow::put}, std::pair{"deliver", &SubWindow::deliver}}) {
    const std::string name(what);
    latency(e, h, name + "_p50_ms", 0.5);
    latency(e, h, name + "_p90_ms", 0.9);
    latency(x, h, name + "_p99_ms", 0.99);
  }
  e.push_back(Metric{"goodput_mbps", "Mb/s",
                     over([](const SubWindow& w) { return w.bytes * 8 / w.secs / 1e6; }, true)});
  e.push_back(Metric{"cpu_us_per_op", "us",
                     over([](const SubWindow& w) { return ratio(w.cpu_us, w.ops); }, false)});
  if (spec.put_share < 1.0) {
    latency(x, &SubWindow::get, "read_p50_ms", 0.5);
    latency(x, &SubWindow::get, "read_p99_ms", 0.99);
  }
}

/// Open-loop validity: a generator that could not keep its schedule makes
/// the run invalid rather than slow.
void check_open_loop(const TcpSpec& spec, const Generator& gen, RunResult& result) {
  const double late_p99 = gen.late_hist.quantile_ms(0.99);
  const double secs = static_cast<double>(gen.window_end() - gen.window_start()) / 1e9;
  const double share = static_cast<double>(gen.completed_in_window) / secs / spec.rate;
  if (late_p99 <= kMaxLateP99Ms && share >= kMinRateShare) return;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "open-loop generator fell behind: late p99 %.3f ms (limit %.1f), "
                "completed %.1f%% of the offered rate (limit %.0f%%)",
                late_p99, kMaxLateP99Ms, share * 100, kMinRateShare * 100);
  result.invalid_reason = buf;
}

/// Per-layer metrics from the last cluster's whole window (traced runs).
void add_layers(const Options& opt, const TcpSpec& spec, const std::vector<ReplicaData>& data,
                const Generator& gen, double gen_cpu_us, RunResult& result) {
  const Time t0 = gen.window_start();
  const double secs = static_cast<double>(gen.window_end() - t0) / 1e9;
  const auto ops = static_cast<double>(gen.completed_in_window);
  auto& l = result.layers;
  l = default_layer_metrics();
  GatewayCounters g;
  EngineCounters en;
  TransportCounters tr;
  double busy_ns = 0;
  std::uint64_t grows = 0;
  std::size_t views = 0;
  LatencyHist apply;
  for (const ReplicaData& d : data) {
    const Snapshot& a = d.snaps.front();
    const Snapshot& b = d.snaps.back();
    g.requests += b.gateway.requests - a.gateway.requests;
    g.rejected_window += b.gateway.rejected_window - a.gateway.rejected_window;
    g.rejected_bytes += b.gateway.rejected_bytes - a.gateway.rejected_bytes;
    g.coalesced_envelopes += b.gateway.coalesced_envelopes - a.gateway.coalesced_envelopes;
    g.coalesce_flushes += b.gateway.coalesce_flushes - a.gateway.coalesce_flushes;
    en.piggyback_hits += b.engine.piggyback_hits - a.engine.piggyback_hits;
    en.piggyback_misses += b.engine.piggyback_misses - a.engine.piggyback_misses;
    en.records_pooled += b.engine.records_pooled - a.engine.records_pooled;
    en.records_allocated += b.engine.records_allocated - a.engine.records_allocated;
    grows += b.engine.window_grows;
    tr.tx_syscalls += b.transport.tx_syscalls - a.transport.tx_syscalls;
    tr.rx_syscalls += b.transport.rx_syscalls - a.transport.rx_syscalls;
    tr.tx_chunks += b.transport.tx_chunks - a.transport.tx_chunks;
    tr.tx_bytes += b.transport.tx_bytes - a.transport.tx_bytes;
    tr.tx_payload_copies += b.transport.tx_payload_copies - a.transport.tx_payload_copies;
    tr.rx_payload_copies += b.transport.rx_payload_copies - a.transport.rx_payload_copies;
    busy_ns += b.apply_busy_ns - a.apply_busy_ns;
    views += d.views;
    apply.merge(d.apply_hist);
  }
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  set_metric(l, "gateway.batch_envelopes", ratio(d(g.coalesced_envelopes), d(g.coalesce_flushes)));
  set_metric(l, "gateway.reject_frac",
             ratio(d(g.rejected_window + g.rejected_bytes), d(g.requests)));
  set_metric(l, "gateway.failover_attempts_per_op", ratio(d(gen.sends), d(gen.completed())));
  set_metric(l, "fsr.piggyback_frac",
             ratio(d(en.piggyback_hits), d(en.piggyback_hits + en.piggyback_misses)));
  set_metric(l, "fsr.pooled_frac",
             ratio(d(en.records_pooled), d(en.records_pooled + en.records_allocated)));
  set_metric(l, "fsr.window_grows", d(grows));
  set_metric(l, "transport.syscalls_per_op", ratio(d(tr.tx_syscalls + tr.rx_syscalls), ops));
  set_metric(l, "transport.iov_per_sendmsg", ratio(d(tr.tx_chunks), d(tr.tx_syscalls)));
  set_metric(l, "transport.copies_per_op",
             ratio(d(tr.tx_payload_copies + tr.rx_payload_copies), ops));
  set_metric(l, "transport.wire_bytes_per_op", ratio(d(tr.tx_bytes), ops));
  set_metric(l, "app.apply_us_p50", apply.quantile_ms(0.5) * 1e3, apply.count());
  set_metric(l, "app.busy_frac", busy_ns / (static_cast<double>(kReplicas) * secs * 1e9));
  set_metric(l, "vsc.views_installed", d(views));
  if (spec.open_loop) {
    set_metric(l, "client.late_p99_ms", gen.late_hist.quantile_ms(0.99), gen.late_hist.count());
  }
  set_latency(l, "client.read_p50_ms", "client.read_p99_ms", gen.get_hist);
  set_metric(l, "client.cpu_us_per_op", ratio(gen_cpu_us, ops));

  // Spans: each sampled write's client span splits at the SubmitFn and
  // DeliverFn marks of the replica that owns its session into admit,
  // order and reply, which therefore cover the client latency exactly.
  std::vector<std::unordered_map<std::uint64_t, Time>> submit(kReplicas), deliver(kReplicas);
  for (std::size_t n = 0; n < kReplicas; ++n) {
    for (const Mark& m : data[n].submit_marks) {
      submit[n].try_emplace(Generator::span_key(m.client_id, m.seq), m.at);
    }
    for (const Mark& m : data[n].deliver_marks) {
      deliver[n].try_emplace(Generator::span_key(m.client_id, m.seq), m.at);
    }
  }
  LatencyHist admit, order, reply;
  std::uint64_t traced = 0, covered = 0;
  std::vector<std::string> lines;
  char buf[256];
  for (const auto& [key, span] : gen.client_spans) {
    if (span.second == 0) continue;
    ++traced;
    const std::uint64_t cid = key >> 32;
    const std::uint64_t seq = key & 0xFFFFFFFFULL;
    const std::size_t node = (cid - kFirstClient) % kReplicas;
    auto s = submit[node].find(key);
    auto dl = deliver[node].find(key);
    if (s == submit[node].end() || dl == deliver[node].end()) continue;
    const Time ts[4] = {span.first, s->second, dl->second, span.second};
    if (!(ts[0] <= ts[1] && ts[1] <= ts[2] && ts[2] <= ts[3])) continue;
    ++covered;
    admit.add(ts[1] - ts[0]);
    order.add(ts[2] - ts[1]);
    reply.add(ts[3] - ts[2]);
    if (opt.trace_dir.empty()) continue;
    const char* names[4] = {"client", "admit", "order", "reply"};
    for (int k = 0; k < 4; ++k) {
      const Time a = k == 0 ? ts[0] : ts[k - 1];
      const Time b = k == 0 ? ts[3] : ts[k];
      std::snprintf(buf, sizeof(buf),
                    "{\"req\": [%llu, %llu], \"span\": \"%s\", \"parent\": \"%s\", "
                    "\"node\": %zu, \"start_ns\": %lld, \"end_ns\": %lld}",
                    static_cast<unsigned long long>(cid), static_cast<unsigned long long>(seq),
                    names[k], k == 0 ? "" : "client", node, static_cast<long long>(a - t0),
                    static_cast<long long>(b - t0));
      lines.emplace_back(buf);
    }
  }
  if (!opt.trace_dir.empty()) {
    for (std::size_t n = 0; n < kReplicas; ++n) {
      for (const ApplySpan& a : data[n].apply_spans) {
        std::snprintf(buf, sizeof(buf),
                      "{\"req\": [%llu, %llu], \"span\": \"apply\", \"parent\": \"order\", "
                      "\"node\": %zu, \"start_ns\": %lld, \"end_ns\": %lld}",
                      static_cast<unsigned long long>(a.client_id),
                      static_cast<unsigned long long>(a.seq), n,
                      static_cast<long long>(a.start - t0), static_cast<long long>(a.end - t0));
        lines.emplace_back(buf);
      }
    }
    write_spans(opt.trace_dir, opt.workload, opt.seed, lines);
  }
  set_latency(l, "gateway.admit_p50_ms", "gateway.admit_p99_ms", admit);
  set_latency(l, "fsr.order_p50_ms", "fsr.order_p99_ms", order);
  set_latency(l, "gateway.reply_p50_ms", "gateway.reply_p99_ms", reply);
  set_metric(l, "trace.covered_frac", ratio(d(covered), d(traced)));
  set_metric(l, "trace.requests", d(traced));
}

}  // namespace

RunResult run_kv_tcp(const Options& opt) {
  const TcpSpec spec = spec_for(opt.workload);
  RunResult result;
  std::vector<double> setups;
  std::vector<SubWindow> subs;
  // Every run builds the cluster kSetups times and measures each one for
  // an equal share of the window, so set-up time and the figures are
  // medians over independently built clusters.
  const Time per_cluster = static_cast<Time>(opt.seconds * 1e9) / kSetups;
  const auto parts = static_cast<std::size_t>(std::max<Time>(1, per_cluster / kSubWindow));

  for (int attempt = 0; attempt < kSetups; ++attempt) {
    const bool last = attempt == kSetups - 1;
    const Time t_build = mono_ns();
    Cluster cluster(opt.trace, spec.trace_every, last && opt.plant == "drop-delivery");
    Generator gen(spec, cluster, opt.seed + static_cast<std::uint64_t>(attempt) * 7919, opt.trace,
                  last ? opt.plant : std::string(), result);
    if (!gen.ok()) {
      result.fail("client_connection", "could not connect to every replica");
      return result;
    }
    gen.preload();
    std::vector<double> cpu_at;
    double gen_cpu0 = 0;
    gen.on_boundary = [&](std::size_t j) {
      const bool first = j == 0;
      const bool final = j == parts;
      cluster.post_each([first, final](Replica& r) {
        r.snaps.push_back(r.snapshot());
        if (first) r.machine.timing = r.tracing;
        if (final) r.machine.timing = false;
      });
      cpu_at.push_back(process_cpu_us());
      if (first) gen_cpu0 = thread_cpu_us();
    };
    gen.run(per_cluster, parts);
    const double gen_cpu_us = thread_cpu_us() - gen_cpu0;
    setups.push_back(static_cast<double>(gen.window_start() - t_build) / 1e9);
    check_replicas(cluster, gen, result);
    const std::vector<ReplicaData> data = collect(cluster);
    add_sub_windows(data, gen, cpu_at, subs);
    result.attempted += gen.attempted_in_window;
    result.failed += gen.failed_in_window;
    if (spec.open_loop) check_open_loop(spec, gen, result);
    if (last && opt.trace) add_layers(opt, spec, data, gen, gen_cpu_us, result);
  }
  result.e2e.push_back(Metric{"setup_s", "s", median(setups), setups.size()});
  add_end_to_end(spec, subs, result);
  result.e2e.push_back(Metric{"peak_rss_mb", "MB", peak_rss_mb()});
  if (opt.trace) {
    // The traced run's own end-to-end figures, computed exactly as an
    // untraced run's: the difference is the tracing overhead.
    for (const char* name : {"ops_per_s", "write_p50_ms"}) {
      const Metric* m = find_metric(result.e2e, name);
      set_metric(result.layers, std::string("trace.") + name, m->value, m->samples);
    }
  }
  return result;
}

}  // namespace fsr::perfbench
