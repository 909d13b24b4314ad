// ring-paper and kv-failover: deterministic runs on the cluster simulator.
// Their latency, rate, goodput and outage figures are in simulated time and
// repeat exactly for a seed; only set-up time, CPU per op and RSS are host
// figures. A run repeats the same simulation until its wall-clock budget is
// spent, checks that every repetition produced identical simulated-time
// results, and reports the median of the host figures.
#include <sched.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <random>
#include <set>
#include <unordered_map>

#include "app/kv_store.h"
#include "bench_common.h"
#include "gateway/sim_gateway.h"
#include "host_speed.h"
#include "proto/client_codec.h"
#include "workloads.h"

namespace fsr::perfbench {
namespace {

// --- ring-paper: the paper's §5.1 k-to-n saturation on 100 Mb/s NICs ---
constexpr std::size_t kRingNodes = 5;
constexpr std::size_t kRingMessageBytes = 100 * 1024;
/// Own messages each sender keeps in flight (the engine's window).
constexpr std::size_t kRingDepth = 16;
constexpr Time kRingWarmup = 1 * kSecond;
/// Long enough for over a thousand messages, so the p99 has ten beyond it.
constexpr Time kRingWindow = 12 * kSecond;

// --- kv-failover: the gateway service with a sequencer crash mid-run ---
constexpr std::size_t kFoNodes = 3;
constexpr std::size_t kFoSessions = 64;
constexpr std::size_t kFoKeysPerSession = 16;
constexpr double kFoRate = 4000;  // offered PUTs per simulated second
constexpr Time kFoWarmup = 1 * kSecond;
constexpr Time kFoWindow = 3 * kSecond;
constexpr Time kFoCrashAt = kFoWarmup + kFoWindow / 3;
/// A client notices its replica died this long after the crash (the
/// connection reset a TCP client would see).
constexpr Time kFoResetDelay = 2 * kMillisecond;
constexpr Time kFoRetryTimeout = 200 * kMillisecond;
constexpr Time kFoBackoff = 2 * kMillisecond;
/// An op still unanswered this long after it was due has given up.
constexpr Time kFoGiveUp = 5 * kSecond;

double to_ms(Time t) { return static_cast<double>(t) / 1e6; }

/// When the last live node delivered each (origin, app_msg) that every live
/// node delivered, keyed origin << 40 | app_msg. One pass over the logs
/// (SimCluster::completion_time scans a whole log per query).
std::unordered_map<std::uint64_t, Time> completion_times(SimCluster& c) {
  std::unordered_map<std::uint64_t, std::pair<Time, std::size_t>> seen;
  std::size_t live = 0;
  for (std::size_t n = 0; n < c.size(); ++n) {
    if (!c.alive(static_cast<NodeId>(n))) continue;
    ++live;
    for (const auto& e : c.log(static_cast<NodeId>(n))) {
      auto& [at, count] = seen[(std::uint64_t{e.origin} << 40) | e.app_msg];
      at = std::max(at, e.at);
      ++count;
    }
  }
  std::unordered_map<std::uint64_t, Time> done;
  for (const auto& [key, v] : seen) {
    if (v.second == live) done.emplace(key, v.first);
  }
  return done;
}

Time lookup(const std::unordered_map<std::uint64_t, Time>& done, NodeId origin, std::uint64_t app) {
  auto it = done.find((std::uint64_t{origin} << 40) | app);
  return it == done.end() ? -1 : it->second;
}

/// Everything a repetition measured. The simulated-time part must repeat
/// exactly; `setup_s`, `cpu_us` and `speed` are host figures.
struct SimRep {
  std::vector<double> sim_figures;  ///< compared across repetitions
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double window_s = 0;
  LatencyHist write, deliver;
  double goodput_mbps = 0;
  double setup_s = 0;
  double cpu_us = 0;
  /// kv-failover: reference-speed factor of the repetition (host_speed.h),
  /// probed on the simulator's CPU just before and just after the measured
  /// window. ring-paper keeps 1: its CPU time is mostly streaming copies of
  /// 100 KB messages, which the host's slow stretches barely move (0.028
  /// IQR raw over ten runs) while the factor moves by 0.12.
  double speed = 1;
  std::uint64_t events = 0;
  EngineCounters engine;
  std::uint64_t wire_bytes = 0;
  // kv-failover only
  double outage_ms = 0;
  double view_install_ms = 0;
  std::size_t views_installed = 0;
  double attempts_per_op = 0;
  double batch_envelopes = 0;
  double reject_frac = 0;
  std::vector<std::string> spans;
};

/// Engine counters over the window: `end` minus `start` for the ratios the
/// report uses; window_grows stays a whole-run total, as on TCP.
EngineCounters window_delta(EngineCounters end, const EngineCounters& start) {
  end.records_pooled -= start.records_pooled;
  end.records_allocated -= start.records_allocated;
  end.piggyback_hits -= start.piggyback_hits;
  end.piggyback_misses -= start.piggyback_misses;
  return end;
}

std::uint64_t wire_bytes(SimCluster& c) {
  std::uint64_t total = 0;
  for (std::size_t n = 0; n < c.size(); ++n) {
    total += c.world().transport(static_cast<NodeId>(n)).counters().tx_bytes;
  }
  return total;
}

void latency_figures(std::vector<double>& out, const LatencyHist& h) {
  out.push_back(static_cast<double>(h.count()));
  out.push_back(h.quantile_ms(0.5));
  out.push_back(h.quantile_ms(0.99));
}

SimRep ring_once(std::uint64_t seed, bool trace, RunResult& result) {
  SimRep rep;
  const Time wall0 = mono_ns();
  ClusterConfig cfg = bench::paper_cluster(kRingNodes);
  cfg.net.seed = seed;
  SimCluster c(cfg);
  bool sending = true;
  std::vector<std::vector<Time>> own_at(kRingNodes);  // [origin][app_msg]
  std::vector<std::uint64_t> sent(kRingNodes, 0);
  auto send_next = [&](NodeId node) {
    c.broadcast(node, test_payload(node, ++sent[node], kRingMessageBytes));
  };
  c.set_delivery_tap([&](NodeId node, const Delivery& d) {
    if (node != d.origin) return;
    auto& v = own_at[node];
    if (v.size() <= d.app_msg) v.resize(d.app_msg + 1, -1);
    v[d.app_msg] = c.sim().now();
    // Saturating sender: refill the slot its delivered message freed.
    if (sending) c.sim().schedule(0, [&send_next, node] { send_next(node); });
  });
  for (std::size_t n = 0; n < kRingNodes; ++n) {
    for (std::size_t i = 0; i < kRingDepth; ++i) send_next(static_cast<NodeId>(n));
  }
  c.sim().run_until(kRingWarmup);
  rep.setup_s = static_cast<double>(mono_ns() - wall0) / 1e9;

  const EngineCounters e0 = c.engine_counters();
  const std::uint64_t wire0 = wire_bytes(c);
  const std::uint64_t ev0 = c.sim().executed();
  const double cpu0 = process_cpu_us();
  c.sim().run_until(kRingWarmup + kRingWindow);
  rep.cpu_us = process_cpu_us() - cpu0;
  rep.events = c.sim().executed() - ev0;
  rep.engine = window_delta(c.engine_counters(), e0);
  rep.wire_bytes = wire_bytes(c) - wire0;
  sending = false;
  c.sim().run();  // drain what is in flight, so every log is complete

  if (std::string err = c.check_all(); !err.empty()) result.fail("sim_invariants", err);

  std::uint64_t bytes = 0;
  for (const auto& e : c.log(0)) {
    if (e.at >= kRingWarmup && e.at < kRingWarmup + kRingWindow) {
      ++rep.ops;
      bytes += e.bytes;
    }
  }
  rep.window_s = static_cast<double>(kRingWindow) / 1e9;
  rep.goodput_mbps = static_cast<double>(bytes) * 8 / rep.window_s / 1e6;
  const auto done = completion_times(c);
  for (std::size_t n = 0; n < kRingNodes; ++n) {
    const auto origin = static_cast<NodeId>(n);
    for (std::uint64_t app = 1; app <= sent[n]; ++app) {
      const Time submit = c.submit_time(origin, app);
      if (submit < kRingWarmup || submit >= kRingWarmup + kRingWindow) continue;
      ++rep.attempted;
      const Time all = lookup(done, origin, app);
      const Time own = app < own_at[n].size() ? own_at[n][app] : -1;
      if (all < 0 || own < 0) {
        ++rep.failed;
        continue;
      }
      rep.write.add(own - submit);
      rep.deliver.add(all - submit);
      if (trace) {
        char buf[200];
        std::snprintf(buf, sizeof(buf),
                      "{\"req\": [%zu, %llu], \"span\": \"order\", \"node\": %zu, "
                      "\"start_ns\": %lld, \"end_ns\": %lld, \"all_delivered_ns\": %lld}",
                      n, static_cast<unsigned long long>(app), n, static_cast<long long>(submit),
                      static_cast<long long>(own), static_cast<long long>(all));
        rep.spans.emplace_back(buf);
      }
    }
  }
  rep.sim_figures = {static_cast<double>(rep.ops), rep.goodput_mbps,
                     static_cast<double>(rep.events), static_cast<double>(rep.wire_bytes)};
  latency_figures(rep.sim_figures, rep.write);
  latency_figures(rep.sim_figures, rep.deliver);
  return rep;
}

// --- kv-failover ---

struct FailoverState {
  LatencyHist write;
  std::vector<Time> completions;  ///< every acknowledged write, in order
  std::vector<std::uint64_t> last_acked;  ///< key -> seq of last acked PUT
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t sends = 0;
  std::uint64_t acked = 0;
  std::uint64_t ops_in_window = 0;
  std::vector<std::string> failures;
  bool trace = false;
  std::vector<std::string> spans;  ///< traced runs: one client span per write
};

std::string fo_key(std::size_t key) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "k%zu", key);
  return buf;
}

std::string fo_value(std::size_t session, std::uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "s%zuq%llu", session, static_cast<unsigned long long>(seq));
  return buf;
}

/// An open-loop session client inside the simulation: ops are sent when
/// due whatever is outstanding; the session fails over to the next live
/// replica when its connection resets and resends its unanswered tail,
/// which the gateway's session table makes exactly-once.
class SimSession {
 public:
  SimSession(SimGatewayCluster& gc, FailoverState& st, std::size_t index, NodeId replica)
      : gc_(gc), st_(st), index_(index), client_id_(5000 + index), replica_(replica) {}

  ~SimSession() {
    for (std::size_t i = 0; i < gc_.size(); ++i) {
      ShardRouter& rt = gc_.router(static_cast<NodeId>(i));
      ThreadRoleRegion role(rt.role());
      rt.on_client_disconnect(client_id_, 0);
    }
  }

  SimSession(const SimSession&) = delete;
  SimSession& operator=(const SimSession&) = delete;

  void issue(std::size_t key, bool in_window) {
    Op op;
    op.seq = next_seq_++;
    op.key = key;
    op.due = gc_.sim().now();
    op.in_window = in_window;
    if (in_window) ++st_.attempted;
    window_.push_back(op);
    send(window_.back());
    arm_retry();
  }

  void on_replica_lost(NodeId dead) {
    if (replica_ != dead) return;
    {
      ShardRouter& rt = gc_.router(replica_);
      ThreadRoleRegion role(rt.role());
      rt.on_client_disconnect(client_id_, epoch_);
    }
    ++epoch_;
    replica_ = gc_.pick_alive(dead);
    for (Op& op : window_) send(op);
  }

 private:
  struct Op {
    std::uint64_t seq = 0;
    std::size_t key = 0;
    Time due = 0;
    Time last_send = 0;
    bool in_window = false;
  };

  void send(Op& op) {
    ++st_.sends;
    op.last_send = gc_.sim().now();
    const Bytes cmd = KvStore::encode_put(fo_key(op.key), fo_value(index_, op.seq));
    ClientRequest req;
    req.client_id = client_id_;
    req.session_seq = op.seq;
    req.envelope = make_payload(encode_envelope(client_id_, op.seq, cmd));
    req.command = parse_envelope(req.envelope)->command;
    const std::uint64_t epoch = epoch_;
    ShardRouter& rt = gc_.router(replica_);
    ThreadRoleRegion role(rt.role());
    // Replies arrive inside Gateway::on_delivery; bounce them through the
    // event queue so the client never re-enters the gateway mid-delivery.
    rt.on_request(
        req,
        [this, epoch](const ClientReply& r) {
          if (epoch != epoch_) return;
          gc_.sim().schedule(0, [this, epoch, r] {
            if (epoch == epoch_) on_reply(r);
          });
        },
        epoch);
  }

  void on_reply(const ClientReply& r) {
    auto it = std::find_if(window_.begin(), window_.end(),
                           [&](const Op& op) { return op.seq == r.session_seq; });
    if (it == window_.end()) return;
    const Time now = gc_.sim().now();
    switch (r.status) {
      case ClientStatus::kOk:
        break;
      case ClientStatus::kRejectedWindow:
      case ClientStatus::kRejectedBytes:
      case ClientStatus::kNotMember:
        // The replica is behind (fresh failover) or backpressured: resend
        // this seq and everything above it, in order, after a backoff.
        if (!backoff_armed_) {
          backoff_armed_ = true;
          const std::uint64_t from = r.session_seq;
          gc_.sim().schedule(kFoBackoff, [this, from] {
            backoff_armed_ = false;
            for (Op& op : window_) {
              if (op.seq >= from) send(op);
            }
          });
        }
        return;
      case ClientStatus::kBadRequest:
        fail(*it, "PUT answered kBadRequest");
        window_.erase(it);
        return;
    }
    if (r.reply.size() != 2 || std::memcmp(r.reply.data(), "OK", 2) != 0) {
      fail(*it, "PUT answered other than OK");
    } else {
      ++st_.acked;
      st_.completions.push_back(now);
      st_.last_acked[it->key] = std::max(st_.last_acked[it->key], it->seq);
      if (it->in_window) st_.write.add(now - it->due);
      if (st_.trace) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "{\"req\": [%llu, %llu], \"span\": \"client\", \"node\": %u, "
                      "\"start_ns\": %lld, \"end_ns\": %lld}",
                      static_cast<unsigned long long>(client_id_),
                      static_cast<unsigned long long>(it->seq), replica_,
                      static_cast<long long>(it->due), static_cast<long long>(now));
        st_.spans.emplace_back(buf);
      }
      if (now >= kFoWarmup && now < kFoWarmup + kFoWindow) ++st_.ops_in_window;
    }
    window_.erase(it);
  }

  void fail(const Op& op, const std::string& why) {
    if (op.in_window) ++st_.failed;
    if (st_.failures.size() < 3) st_.failures.push_back(why);
  }

  void arm_retry() {
    if (retry_armed_) return;
    retry_armed_ = true;
    gc_.sim().schedule(kFoRetryTimeout, [this] {
      retry_armed_ = false;
      const Time now = gc_.sim().now();
      while (!window_.empty() && now - window_.front().due >= kFoGiveUp) {
        fail(window_.front(), "PUT gave up unanswered");
        window_.pop_front();
      }
      if (window_.empty()) return;
      if (now - window_.front().last_send >= kFoRetryTimeout) {
        if (!gc_.alive(replica_)) on_replica_lost(replica_);
        for (Op& op : window_) send(op);
      }
      arm_retry();
    });
  }

  SimGatewayCluster& gc_;
  FailoverState& st_;
  std::size_t index_;
  std::uint64_t client_id_;
  NodeId replica_;
  std::uint64_t epoch_ = 1;
  std::uint64_t next_seq_ = 1;
  std::deque<Op> window_;
  bool retry_armed_ = false;
  bool backoff_armed_ = false;
};

SimRep failover_once(std::uint64_t seed, bool trace, bool plant_drop, RunResult& result) {
  SimRep rep;
  const Time wall0 = mono_ns();
  SimGatewayConfig gcfg;
  gcfg.cluster = bench::paper_cluster(kFoNodes);
  gcfg.cluster.net.seed = seed;
  SimGatewayCluster gc(gcfg);
  // DeliverFn wrapper: forwards to the gateway exactly as the harness does;
  // the planted fault makes the last replica skip one delivery.
  std::uint64_t seen_last = 0;
  gc.cluster().set_delivery_tap([&](NodeId id, const Delivery& d) {
    if (plant_drop && id == kFoNodes - 1 && ++seen_last == 2000) return;
    Gateway& g = gc.gateway(id);
    ThreadRoleRegion role(g.role());
    g.on_delivery(d);
  });
  std::vector<std::pair<NodeId, Time>> installs;
  std::set<ViewId> new_views;
  gc.cluster().set_view_tap([&](NodeId id, const View& v) {
    installs.emplace_back(id, gc.sim().now());
    new_views.insert(v.id);
    if (trace) {
      rep.spans.push_back("{\"span\": \"view\", \"node\": " + std::to_string(id) +
                          ", \"view\": " + std::to_string(v.id) +
                          ", \"at_ns\": " + std::to_string(gc.sim().now()) + "}");
    }
  });

  FailoverState st;
  st.trace = trace;
  st.last_acked.assign(kFoSessions * kFoKeysPerSession, 0);
  std::vector<std::unique_ptr<SimSession>> sessions;
  for (std::size_t s = 0; s < kFoSessions; ++s) {
    sessions.push_back(std::make_unique<SimSession>(gc, st, s, static_cast<NodeId>(s % kFoNodes)));
  }
  // Seeded Poisson arrivals; each picks a session and one of its own keys,
  // so every key has a single writer.
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(kFoRate);
  std::uniform_int_distribution<std::size_t> pick_session(0, kFoSessions - 1);
  std::uniform_int_distribution<std::size_t> pick_key(0, kFoKeysPerSession - 1);
  for (Time t = 0;;) {
    t += static_cast<Time>(gap(rng) * 1e9);
    if (t >= kFoWarmup + kFoWindow) break;
    const std::size_t s = pick_session(rng);
    const std::size_t key = s + kFoSessions * pick_key(rng);
    const bool in_window = t >= kFoWarmup;
    gc.sim().schedule_at(t, [&sessions, s, key, in_window] { sessions[s]->issue(key, in_window); });
  }
  gc.sim().schedule_at(kFoCrashAt, [&gc] { gc.crash(0); });
  gc.sim().schedule_at(kFoCrashAt + kFoResetDelay, [&sessions] {
    for (auto& s : sessions) s->on_replica_lost(0);
  });

  gc.sim().run_until(kFoWarmup);
  rep.setup_s = static_cast<double>(mono_ns() - wall0) / 1e9;
  const EngineCounters e0 = gc.cluster().engine_counters();
  const GatewayCounters g0 = gc.gateway_counters();
  const std::uint64_t wire0 = wire_bytes(gc.cluster());
  const std::uint64_t ev0 = gc.sim().executed();
  const double speed0 = speed_factor(sched_getcpu());
  const double cpu0 = process_cpu_us();
  gc.sim().run_until(kFoWarmup + kFoWindow);
  rep.cpu_us = process_cpu_us() - cpu0;
  rep.speed = (speed0 + speed_factor(sched_getcpu())) / 2;
  rep.events = gc.sim().executed() - ev0;
  rep.engine = window_delta(gc.cluster().engine_counters(), e0);
  rep.wire_bytes = wire_bytes(gc.cluster()) - wire0;
  const GatewayCounters g1 = gc.gateway_counters();
  gc.sim().run_until(kFoWarmup + kFoWindow + 2 * kFoGiveUp);

  for (const auto& f : st.failures) result.fail("op_completion", f);
  if (std::string err = gc.cluster().check_all(); !err.empty()) result.fail("sim_invariants", err);
  if (std::string err = gc.check_replicas_converged(); !err.empty()) {
    result.fail("kv_fingerprint", err);
  }
  for (std::size_t n = 1; n < kFoNodes; ++n) {
    std::size_t bad = 0;
    for (std::size_t k = 0; k < st.last_acked.size(); ++k) {
      auto got = gc.store(static_cast<NodeId>(n)).get(fo_key(k));
      const std::uint64_t seq = st.last_acked[k];
      const bool ok = seq == 0 ? !got.has_value()
                               : got && *got == fo_value(k % kFoSessions, seq);
      bad += ok ? 0 : 1;
    }
    if (bad) {
      result.fail("final_value", "replica " + std::to_string(n) + ": " + std::to_string(bad) +
                                     " keys differ from their last acknowledged PUT");
    }
  }

  rep.spans.insert(rep.spans.end(), st.spans.begin(), st.spans.end());
  rep.ops = st.ops_in_window;
  rep.attempted = st.attempted;
  rep.failed = st.failed;
  rep.window_s = static_cast<double>(kFoWindow) / 1e9;
  rep.write = st.write;
  // Outage: the longest stretch after the crash with no write acknowledged.
  Time prev = kFoCrashAt;
  Time longest = 0;
  for (Time t : st.completions) {
    if (t < kFoCrashAt) continue;
    if (t >= kFoWarmup + kFoWindow) break;
    longest = std::max(longest, t - prev);
    prev = t;
  }
  rep.outage_ms = to_ms(std::max(longest, kFoWarmup + kFoWindow - prev));
  Time last_install = -1;
  for (NodeId n = 1; n < kFoNodes; ++n) {
    Time first = -1;
    for (const auto& [id, at] : installs) {
      if (id == n && at >= kFoCrashAt) {
        first = at;
        break;
      }
    }
    last_install = (first < 0 || last_install == -2) ? -2 : std::max(last_install, first);
  }
  rep.view_install_ms = last_install >= 0 ? to_ms(last_install - kFoCrashAt) : 0;
  rep.views_installed = new_views.size();
  if (last_install < 0) result.fail("view_change", "a survivor never installed a view after the crash");

  // Ring latency: broadcasts submitted in the window, until every live
  // replica delivered them.
  SimCluster& c = gc.cluster();
  const auto done = completion_times(c);
  for (std::size_t n = 0; n < kFoNodes; ++n) {
    const auto origin = static_cast<NodeId>(n);
    for (std::uint64_t app = 1;; ++app) {
      const Time submit = c.submit_time(origin, app);
      if (submit < 0) break;
      if (submit < kFoWarmup || submit >= kFoWarmup + kFoWindow) continue;
      const Time all = lookup(done, origin, app);
      if (all >= 0) rep.deliver.add(all - submit);
    }
  }
  std::uint64_t bytes = 0;
  for (const auto& e : c.log(1)) {
    if (e.at >= kFoWarmup && e.at < kFoWarmup + kFoWindow) bytes += e.bytes;
  }
  rep.goodput_mbps = static_cast<double>(bytes) * 8 / rep.window_s / 1e6;
  rep.attempts_per_op = st.acked ? static_cast<double>(st.sends) / static_cast<double>(st.acked) : 0;
  const auto flushes = static_cast<double>(g1.coalesce_flushes - g0.coalesce_flushes);
  rep.batch_envelopes =
      flushes > 0 ? static_cast<double>(g1.coalesced_envelopes - g0.coalesced_envelopes) / flushes : 0;
  const auto requests = static_cast<double>(g1.requests - g0.requests);
  rep.reject_frac = requests > 0 ? static_cast<double>((g1.rejected_window - g0.rejected_window) +
                                                       (g1.rejected_bytes - g0.rejected_bytes)) /
                                       requests
                                 : 0;
  rep.sim_figures = {static_cast<double>(rep.ops), rep.goodput_mbps, rep.outage_ms,
                     rep.view_install_ms, static_cast<double>(rep.views_installed),
                     static_cast<double>(rep.events), rep.attempts_per_op};
  latency_figures(rep.sim_figures, rep.write);
  latency_figures(rep.sim_figures, rep.deliver);
  return rep;
}

/// Repeat `once` until the budget is spent (at least twice, so the
/// determinism check always has a pair), then report.
template <typename Once>
RunResult repeat_sim(const Options& opt, bool kv, Once once) {
  RunResult result;
  std::vector<SimRep> reps;
  const Time deadline = mono_ns() + static_cast<Time>(opt.seconds * 1e9);
  do {
    reps.push_back(once(reps.empty() && opt.trace, result));
    if (!result.failed_checks.empty()) break;
  } while (reps.size() < 2 || mono_ns() < deadline);
  const SimRep& r = reps.front();
  for (std::size_t i = 1; i < reps.size(); ++i) {
    if (reps[i].sim_figures != r.sim_figures) {
      result.fail("sim_determinism", "repetition " + std::to_string(i) +
                                         " gave different simulated-time results for the same seed");
      break;
    }
  }
  // kv-failover's set-up and CPU time are at reference speed (`speed`
  // stays 1 on ring-paper); the table also shows them raw.
  std::vector<double> setups, setups_raw, cpu, cpu_raw, speed;
  for (const SimRep& x : reps) {
    speed.push_back(x.speed);
    setups.push_back(x.setup_s * x.speed);
    setups_raw.push_back(x.setup_s);
    cpu.push_back(ratio(x.cpu_us * x.speed, static_cast<double>(x.ops)));
    cpu_raw.push_back(ratio(x.cpu_us, static_cast<double>(x.ops)));
  }
  const double ops = static_cast<double>(r.ops);
  result.attempted = r.attempted;
  result.failed = r.failed;
  auto& e = result.e2e;
  e.push_back(Metric{"setup_s", "s", median(setups), setups.size()});
  e.push_back(Metric{"ops_per_s", "1/s", ops / r.window_s});
  for (auto [what, h] : {std::pair{"write", &r.write}, std::pair{"deliver", &r.deliver}}) {
    const std::string name(what);
    e.push_back(latency_metric(*h, name + "_p50_ms", 0.5));
    e.push_back(latency_metric(*h, name + "_p90_ms", 0.9));
    result.extra.push_back(latency_metric(*h, name + "_p99_ms", 0.99));
  }
  e.push_back(Metric{"goodput_mbps", "Mb/s", r.goodput_mbps});
  e.push_back(Metric{"cpu_us_per_op", "us", median(cpu), cpu.size()});
  e.push_back(Metric{"peak_rss_mb", "MB", peak_rss_mb()});
  if (kv) {
    result.extra.push_back(Metric{"setup_s_raw", "s", median(setups_raw), setups_raw.size()});
    result.extra.push_back(Metric{"cpu_us_per_op_raw", "us", median(cpu_raw), cpu_raw.size()});
    result.extra.push_back(Metric{"speed_factor", "x", median(speed), speed.size()});
    result.extra.push_back(Metric{"outage_ms", "ms", r.outage_ms});
  }
  if (!opt.trace) return result;

  auto& l = result.layers;
  l = default_layer_metrics();
  if (kv) {
    set_metric(l, "gateway.batch_envelopes", r.batch_envelopes);
    set_metric(l, "gateway.reject_frac", r.reject_frac);
    set_metric(l, "gateway.failover_attempts_per_op", r.attempts_per_op);
    set_metric(l, "vsc.view_install_ms", r.view_install_ms);
    set_metric(l, "client.outage_ms", r.outage_ms);
  } else {
    // Without a gateway, a write is the broadcast itself: its order span is
    // submit until delivery at the sender.
    set_latency(l, "fsr.order_p50_ms", "fsr.order_p99_ms", r.write);
  }
  set_metric(l, "vsc.views_installed", static_cast<double>(r.views_installed));
  set_metric(l, "fsr.piggyback_frac",
             ratio(static_cast<double>(r.engine.piggyback_hits),
                   static_cast<double>(r.engine.piggyback_hits + r.engine.piggyback_misses)));
  set_metric(l, "fsr.pooled_frac",
             ratio(static_cast<double>(r.engine.records_pooled),
                   static_cast<double>(r.engine.records_pooled + r.engine.records_allocated)));
  set_metric(l, "fsr.window_grows", static_cast<double>(r.engine.window_grows));
  set_metric(l, "transport.wire_bytes_per_op", ratio(static_cast<double>(r.wire_bytes), ops));
  set_metric(l, "net.wire_efficiency", r.goodput_mbps / 100.0);
  set_metric(l, "sim.events_per_op", ratio(static_cast<double>(r.events), ops));
  std::vector<double> per_event;
  for (const SimRep& x : reps) {
    per_event.push_back(ratio(x.cpu_us * x.speed, static_cast<double>(x.events)));
  }
  set_metric(l, "sim.cpu_us_per_event", median(per_event));
  set_metric(l, "trace.ops_per_s", ops / r.window_s);
  set_metric(l, "trace.write_p50_ms", r.write.quantile_ms(0.5), r.write.count());
  set_metric(l, "trace.requests", static_cast<double>(r.write.count()));
  write_spans(opt.trace_dir, opt.workload, opt.seed, r.spans);
  return result;
}

}  // namespace

RunResult run_ring_paper(const Options& opt) {
  return repeat_sim(opt, false, [&](bool trace, RunResult& result) {
    return ring_once(opt.seed, trace, result);
  });
}

RunResult run_kv_failover(const Options& opt) {
  // The simulator is single-threaded: keep it on one CPU, so the speed
  // probe measures the CPU it runs on.
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(sched_getcpu(), &one);
  sched_setaffinity(0, sizeof(one), &one);
  return repeat_sim(opt, true, [&](bool trace, RunResult& result) {
    return failover_once(opt.seed, trace, opt.plant == "drop-delivery", result);
  });
}

}  // namespace fsr::perfbench
