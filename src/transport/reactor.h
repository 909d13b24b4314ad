// One epoll event loop: the single I/O engine under the TCP stack. Every
// TcpTransport and every GatewayServer event loop is a Reactor plus the
// connection state it owns.
//
// A Reactor runs one thread that holds the reactor's ThreadRole for its
// whole life. Everything the loop runs — fd readiness handlers, posted
// closures, timers and the end-of-iteration hook — runs under that role, so
// the code on top stays single-threaded per reactor. One iteration:
//   1. wait in epoll_pwait2 until an fd is ready, a closure is posted
//      (eventfd wake) or the earliest timer is due, at the timer's own
//      nanosecond precision;
//   2. run the readiness handlers of the ready fds;
//   3. run every posted closure;
//   4. fire the due timers;
//   5. run the end-of-iteration hook: the owner's single flush point, so
//      everything queued during the iteration leaves together.
//
// post() is the only cross-thread entry. Whenever no loop thread runs —
// before start() and after stop() — post() runs the queue on the calling
// thread instead, adopting the role under a recursive drain mutex, so
// posted work (and post_wait() callers) never strands.
//
// Fds are watched edge-triggered for input and output: a handler must drain
// reads to a short read or EAGAIN and resume writes on the next EPOLLOUT
// edge. A handler may see a spurious call, so it acts on the results of
// recv/send/accept, never on the event flags alone.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sys/epoll.h>

#include "common/bytes.h"
#include "common/sync.h"
#include "proto/wire.h"
#include "transport/transport.h"

namespace fsr {

void set_nodelay(int fd);

/// A bound, listening, nonblocking TCP socket.
struct Listener {
  int fd = -1;
  std::uint16_t port = 0;  ///< the bound port (resolves port 0)
};

/// Bind and listen on host:port (port 0 = ephemeral). Throws
/// std::runtime_error if the socket cannot be bound or put to listen.
Listener listen_tcp(const std::string& host, std::uint16_t port, int backlog);

/// Accept one pending connection as a nonblocking TCP_NODELAY socket.
/// Returns -1 once none is pending (or the listener failed).
int accept_stream(int listen_fd);

/// One element of an outbox: bytes the connection owns (frame headers,
/// control messages, small payloads) or a reference-counted payload view
/// transmitted without copying.
struct OutChunk {
  Bytes own;
  Payload ref;

  const std::uint8_t* data() const { return ref ? ref.data() : own.data(); }
  std::size_t size() const { return ref ? ref.size() : own.size(); }
};

/// A nonblocking stream socket: a ChunkBuffer for received bytes and an
/// outbox sent by scatter-gather sendmsg with partial-write resume.
/// `ctr`, where given, accounts the syscalls in TransportCounters.
struct StreamConn {
  int fd = -1;
  ChunkBuffer rx;
  std::deque<OutChunk> outbox;
  std::size_t outbox_bytes = 0;
  std::size_t out_offset = 0;  ///< progress within outbox.front()

  void push(OutChunk chunk) {
    outbox_bytes += chunk.size();
    outbox.push_back(std::move(chunk));
  }

  /// Receive until the socket is drained: EAGAIN, or a short read unless
  /// `hung_up` (the event reported a hang-up, and an EOF that has already
  /// arrived raises no further edge). False on EOF or a socket error.
  bool receive(std::size_t recv_chunk, bool hung_up, TransportCounters* ctr = nullptr);

  /// Send the outbox until it is empty or the socket would block (the rest
  /// waits for the next EPOLLOUT edge). False on a socket error.
  bool send_outbox(TransportCounters* ctr = nullptr);
};

class Reactor {
 public:
  using ReadyFn = std::function<void(std::uint32_t epoll_events)>;

  explicit Reactor(const char* name);
  /// Stops the loop and closes every fd still watched.
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// The capability of the loop thread (and of post-stop drainers).
  ThreadRole& role() FSR_RETURN_CAPABILITY(role_) { return role_; }
  const ThreadRole& role() const FSR_RETURN_CAPABILITY(role_) { return role_; }

  /// Monotonic clock in nanoseconds.
  static Time now();

  /// Start the loop thread and wait until it runs. Set the iteration hook
  /// first.
  void start();

  /// Stop and join the loop thread, run what is still posted, and close
  /// every watched fd. Idempotent; never call it from the loop itself.
  void stop() FSR_EXCLUDES(role_);

  /// Run `fn` under the role: on the loop thread while it runs, on the
  /// calling thread otherwise. Thread-safe.
  void post(std::function<void()> fn);

  /// post() and wait until `fn` has run. Self-deadlocks on the loop thread;
  /// statically excluded and checked at runtime.
  void post_wait(std::function<void()> fn) FSR_EXCLUDES(role_);

  /// Runs after every loop iteration. Single-threaded setup, before start().
  void set_iteration_hook(std::function<void()> fn) { iteration_hook_ = std::move(fn); }

  /// Watch `fd` (edge-triggered, in and out). The reactor owns the fd from
  /// here on and closes it in close_fd(), stop() or its destructor.
  void watch(int fd, ReadyFn on_ready) FSR_REQUIRES(role_);

  /// Stop watching `fd` and close it. The handler is destroyed at the end
  /// of the iteration, so a handler may close its own fd.
  void close_fd(int fd) FSR_REQUIRES(role_);

  /// One-shot timer; returns an id for cancel_timer (never 0).
  std::uint64_t set_timer(Time delay, std::function<void()> fn) FSR_REQUIRES(role_);
  /// Cancelling a fired or unknown id is a no-op.
  void cancel_timer(std::uint64_t id) FSR_REQUIRES(role_);

 private:
  struct Watch {
    int fd;
    ReadyFn on_ready;
  };

  void run();  // adopts role_ for the loop's whole lifetime
  void wait_and_dispatch(std::vector<epoll_event>& events) FSR_REQUIRES(role_);
  void drain_posted() FSR_REQUIRES(role_);
  /// No loop thread: run the queue here, serialized by drain_mutex_.
  void drain_inline();
  void fire_due_timers() FSR_REQUIRES(role_);
  void close_all() FSR_REQUIRES(role_);

  ThreadRole role_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd; closed only in the destructor
  std::function<void()> iteration_hook_;

  /// False only while a loop thread may run closures. Cleared by start(),
  /// set by stop() after the join, so inline drainers are ordered after
  /// every loop-thread access.
  std::atomic<bool> io_dead_{true};
  Mutex start_mutex_;
  CondVar start_cv_;
  bool started_ FSR_GUARDED_BY(start_mutex_) = false;  // the loop thread runs
  Mutex post_mutex_;
  RecursiveMutex drain_mutex_;  // serializes inline drains
  std::deque<std::function<void()>> posted_ FSR_GUARDED_BY(post_mutex_);

  bool stop_requested_ FSR_GUARDED_BY(role_) = false;
  std::unordered_map<int, std::unique_ptr<Watch>> watches_ FSR_GUARDED_BY(role_);
  /// Closed this iteration; freed after it, so events already fetched for
  /// them are skipped instead of reaching freed memory.
  std::vector<std::unique_ptr<Watch>> retired_ FSR_GUARDED_BY(role_);

  // Timers ordered by (deadline, serial), so same-deadline timers fire in
  // creation order; set, cancel and fire are O(log n).
  std::uint64_t next_timer_serial_ FSR_GUARDED_BY(role_) = 1;
  std::map<std::pair<Time, std::uint64_t>, std::function<void()>> timers_
      FSR_GUARDED_BY(role_);
  std::unordered_map<std::uint64_t, Time> timer_deadlines_
      FSR_GUARDED_BY(role_);  // serial -> deadline of each pending timer

  Thread thread_;  // last: runs on every member above
};

}  // namespace fsr
