// Positive twin of the negative-compilation suite: the same shapes as the
// nc_*.cpp cases written correctly. Must compile warning-free under
// -Werror=thread-safety — if this file fails, the suite's failures mean
// nothing (the harness, not the violations, would be broken).
#include "common/sync.h"
#include "transport/reactor.h"

namespace {

struct Counter {
  fsr::Mutex mu;
  int value FSR_GUARDED_BY(mu) = 0;

  void bump() {
    fsr::MutexLock lock(mu);
    ++value;
  }
};

struct Table {
  fsr::Mutex mu;
  int rows FSR_GUARDED_BY(mu) = 0;

  void insert_locked() FSR_REQUIRES(mu) { ++rows; }

  void insert() FSR_EXCLUDES(mu) {
    fsr::MutexLock lock(mu);
    insert_locked();
  }
};

class Replica {
 public:
  fsr::ThreadRole& role() FSR_RETURN_CAPABILITY(role_) { return role_; }

  void on_delivery() FSR_REQUIRES(role_) { ++deliveries_; }

 private:
  fsr::ThreadRole role_{"Replica::event"};
  int deliveries_ FSR_GUARDED_BY(role_) = 0;
};

struct Door {
  fsr::Mutex mu;

  void pass() {
    mu.lock();
    mu.unlock();
  }
};

// Twin of nc_gateway_event_loop: cross-thread work reaches a reactor
// through post(), and the posted closure re-asserts the loop's role before
// calling role-only methods.
void arm_on_loop(fsr::Reactor& loop) {
  loop.post([&loop] {
    loop.role().assert_held();
    loop.set_timer(0, [] {});
  });
}

void use() {
  Counter c;
  c.bump();

  Table t;
  t.insert();

  Replica r;
  {
    fsr::ThreadRoleRegion region(r.role());
    r.on_delivery();
  }

  Door d;
  d.pass();

  fsr::Reactor loop("positive::loop");
  arm_on_loop(loop);

  fsr::Mutex m;
  fsr::CondVar cv;
  bool ready = false;
  {
    fsr::MutexLock lock(m);
    ready = true;
    cv.notify_one();
  }
  {
    fsr::MutexLock lock(m);
    cv.wait(m, [&] { return ready; });
  }
}

}  // namespace
