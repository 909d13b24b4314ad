#include "transport/reactor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <system_error>

#include "common/log.h"

namespace fsr {

namespace {

/// Max iovec entries per sendmsg. Linux caps at IOV_MAX (1024); 64 chunks
/// per syscall is already far past the point of diminishing returns.
constexpr std::size_t kMaxIov = 64;

}  // namespace

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Listener listen_tcp(const std::string& host, std::uint16_t port, int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) throw std::system_error(errno, std::generic_category(), "socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) errno = EINVAL;
  else if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
           ::listen(fd, backlog) == 0) {
    socklen_t len = sizeof(addr);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    return Listener{fd, ntohs(addr.sin_port)};
  }
  const int err = errno;
  ::close(fd);
  throw std::system_error(err, std::generic_category(),
                          "listen on " + host + ":" + std::to_string(port));
}

int accept_stream(int listen_fd) {
  for (;;) {
    int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd >= 0) {
      set_nodelay(fd);
      return fd;
    }
    if (errno != EINTR) return -1;
  }
}

// --- StreamConn ---

bool StreamConn::receive(std::size_t recv_chunk, bool hung_up, TransportCounters* ctr) {
  for (;;) {
    std::uint64_t compacted = 0;
    auto buf = rx.writable(recv_chunk, &compacted);
    if (ctr != nullptr && compacted > 0) {
      ++ctr->rx_compactions;
      ctr->rx_compaction_bytes += compacted;
    }
    ssize_t n = ::recv(fd, buf.data(), buf.size(), 0);
    if (n > 0) {
      rx.commit(static_cast<std::size_t>(n));
      if (ctr != nullptr) {
        ++ctr->rx_syscalls;
        ctr->rx_bytes += static_cast<std::uint64_t>(n);
      }
      // A short read drained the socket; bytes arriving later raise a new
      // edge. A full read may have left bytes behind.
      if (static_cast<std::size_t>(n) < buf.size() && !hung_up) return true;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
}

bool StreamConn::send_outbox(TransportCounters* ctr) {
  while (!outbox.empty()) {
    // Gather up to kMaxIov chunks — typically many frames — into a single
    // sendmsg. The first chunk may already be partially written.
    iovec iov[kMaxIov];
    std::size_t niov = 0;
    std::size_t batch_bytes = 0;
    for (auto it = outbox.begin(); it != outbox.end() && niov < kMaxIov; ++it) {
      const std::size_t skip = niov == 0 ? out_offset : 0;
      iov[niov].iov_base = const_cast<std::uint8_t*>(it->data() + skip);
      iov[niov].iov_len = it->size() - skip;
      batch_bytes += iov[niov].iov_len;
      ++niov;
    }
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    ssize_t n = ::sendmsg(fd, &mh, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // Blocked, or a connect still in progress: the EPOLLOUT edge resumes.
      return errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOTCONN ||
             errno == EINPROGRESS;
    }
    if (ctr != nullptr) {
      ++ctr->tx_syscalls;
      ctr->tx_bytes += static_cast<std::uint64_t>(n);
      ctr->tx_chunks += niov;
      ctr->tx_max_batch = std::max<std::uint64_t>(ctr->tx_max_batch, niov);
    }
    outbox_bytes -= static_cast<std::size_t>(n);
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0) {
      std::size_t avail = outbox.front().size() - out_offset;
      if (left < avail) {
        out_offset += left;
        break;
      }
      left -= avail;
      outbox.pop_front();
      out_offset = 0;
    }
    if (static_cast<std::size_t>(n) < batch_bytes) return true;  // short write
  }
  return true;
}

// --- Reactor ---

Reactor::Reactor(const char* name) : role_(name) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    const int err = errno;
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    throw std::system_error(err, std::generic_category(), "reactor epoll/eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = nullptr;  // the wake fd; watches carry their Watch*
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

Reactor::~Reactor() {
  stop();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

Time Reactor::now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Reactor::start() {
  io_dead_.store(false);
  thread_ = Thread([this] { run(); });
  // Return only once the loop thread runs (see run()), so reactors started
  // one after another bind their threads' malloc arenas in start order.
  MutexLock lock(start_mutex_);
  while (!started_) start_cv_.wait(start_mutex_);
}

void Reactor::stop() {
  if (role_.held_by_me()) sync_fatal("stop() called from the reactor's own thread", role_.name());
  if (thread_.joinable()) {
    post([this] {
      role_.assert_held();  // lambda: runs inside drain_posted on the loop
      stop_requested_ = true;
    });
    thread_.join();
    // Published only after the join: inline drainers (here and in post())
    // are ordered after every loop-thread access.
    io_dead_.store(true);
  }
  RecursiveMutexLock drain_lock(drain_mutex_);
  ThreadRoleRegion role(role_);
  drain_posted();
  close_all();
}

void Reactor::post(std::function<void()> fn) {
  bool was_empty;
  {
    MutexLock lock(post_mutex_);
    was_empty = posted_.empty();
    posted_.push_back(std::move(fn));
  }
  // One wakeup per empty->non-empty transition: the loop empties the whole
  // queue per wakeup, so further writes would only add syscalls.
  if (was_empty) {
    std::uint64_t one = 1;
    [[maybe_unused]] ssize_t w = ::write(wake_fd_, &one, sizeof(one));
  }
  // No loop thread left to run the closure: drain it here. If io_dead_
  // still reads false, stop()'s own drain (which runs after it is set and
  // loops until the queue is empty) is guaranteed to pick the closure up —
  // the shared post_mutex_ orders the two cases.
  if (io_dead_.load()) drain_inline();
}

void Reactor::post_wait(std::function<void()> fn) {
  if (role_.held_by_me()) {
    sync_fatal("post_wait() called from the thread it would wait on", role_.name());
  }
  Mutex m;
  CondVar cv;
  bool done = false;
  post([&] {
    fn();
    MutexLock lock(m);
    done = true;
    cv.notify_one();
  });
  MutexLock lock(m);
  cv.wait(m, [&] { return done; });
}

void Reactor::drain_inline() {
  // drain_mutex_ is recursive because a drained closure may itself post()
  // and re-enter; the nested adoption of role_ on the same thread nests too.
  RecursiveMutexLock drain_lock(drain_mutex_);
  ThreadRoleRegion role(role_);
  drain_posted();
}

void Reactor::drain_posted() {
  for (;;) {
    std::function<void()> fn;
    {
      MutexLock lock(post_mutex_);
      if (posted_.empty()) return;
      fn = std::move(posted_.front());
      posted_.pop_front();
    }
    fn();
  }
}

void Reactor::watch(int fd, ReadyFn on_ready) {
  auto w = std::make_unique<Watch>(Watch{fd, std::move(on_ready)});
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
  ev.data.ptr = w.get();
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    FSR_ERROR("%s: epoll_ctl(ADD, fd %d) failed (errno %d)", role_.name(), fd, errno);
    std::abort();
  }
  watches_[fd] = std::move(w);
}

void Reactor::close_fd(int fd) {
  auto it = watches_.find(fd);
  if (it == watches_.end()) return;
  ::close(fd);  // also leaves the epoll set
  it->second->fd = -1;
  retired_.push_back(std::move(it->second));
  watches_.erase(it);
}

void Reactor::close_all() {
  for (auto& [fd, w] : watches_) ::close(fd);
  watches_.clear();
  retired_.clear();
}

std::uint64_t Reactor::set_timer(Time delay, std::function<void()> fn) {
  const std::uint64_t serial = next_timer_serial_++;
  const Time deadline = now() + delay;
  timers_.emplace(std::make_pair(deadline, serial), std::move(fn));
  timer_deadlines_.emplace(serial, deadline);
  return serial;
}

void Reactor::cancel_timer(std::uint64_t id) {
  auto it = timer_deadlines_.find(id);
  if (it == timer_deadlines_.end()) return;  // fired, cancelled or unknown
  timers_.erase({it->second, id});
  timer_deadlines_.erase(it);
}

void Reactor::fire_due_timers() {
  // Only timers already due at entry: one a callback arms (deadline at or
  // after now()) waits for the next iteration. A callback that cancels a
  // later timer due in this same batch removes it before it can fire.
  const Time t = now();
  while (!timers_.empty() && timers_.begin()->first.first <= t) {
    auto due = timers_.extract(timers_.begin());
    timer_deadlines_.erase(due.key().second);
    due.mapped()();
  }
}

void Reactor::wait_and_dispatch(std::vector<epoll_event>& events) {
  timespec ts{};
  timespec* timeout = nullptr;  // no timer: sleep until an fd or a post
  if (!timers_.empty()) {
    Time left = std::max<Time>(0, timers_.begin()->first.first - now());
    ts.tv_sec = static_cast<time_t>(left / kSecond);
    ts.tv_nsec = static_cast<long>(left % kSecond);
    timeout = &ts;
  }
  int n = ::epoll_pwait2(epoll_fd_, events.data(), static_cast<int>(events.size()),
                         timeout, nullptr);
  if (n < 0 && errno != EINTR) {
    FSR_ERROR("%s: epoll_pwait2 failed (errno %d)", role_.name(), errno);
    std::abort();
  }
  for (int i = 0; i < n; ++i) {
    auto* w = static_cast<Watch*>(events[i].data.ptr);
    if (w == nullptr) {
      std::uint64_t drained = 0;
      [[maybe_unused]] ssize_t r = ::read(wake_fd_, &drained, sizeof(drained));
    } else if (w->fd >= 0) {  // skip fds closed earlier this iteration
      w->on_ready(events[i].events);
    }
  }
}

void Reactor::run() {
  ThreadRoleRegion role(role_);
  // The default 50 us timer slack would stretch a sub-millisecond timer
  // (the gateway's coalescing backstop) by a sixth; wake on time instead.
  ::prctl(PR_SET_TIMERSLACK, 1000UL);
  // Allocated first, before start() returns: a thread's first allocation
  // binds it to a malloc arena. Binding in start order keeps a process that
  // restarts its reactors (a benchmark's repeated clusters) handing each
  // new thread the arena of the thread it replaces, instead of whichever
  // arena happened to be free at its first event — which grew every arena
  // to the largest thread's peak.
  std::vector<epoll_event> events(128);
  {
    MutexLock lock(start_mutex_);
    started_ = true;
    start_cv_.notify_one();
  }
  while (!stop_requested_) {
    wait_and_dispatch(events);
    drain_posted();
    fire_due_timers();
    if (iteration_hook_) iteration_hook_();
    retired_.clear();
  }
}

}  // namespace fsr
