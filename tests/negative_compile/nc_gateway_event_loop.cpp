// Negative-compilation case: the reactor's role model, as the gateway event
// loops and the transport use it. A Reactor's watch table and timers
// are loop-thread state: watch() / set_timer() are FSR_REQUIRES(role).
// Other threads reach a reactor only through post(). A cross-thread
// function that arms a timer directly, without adopting the role, races
// with the loop and must be rejected by -Werror=thread-safety.
#include "transport/reactor.h"

namespace {

// Cross-thread entry (e.g. the transport I/O thread handing a reply to a
// gateway loop). The correct version posts the work to the reactor.
void arm_from_another_thread(fsr::Reactor& loop) {
  loop.set_timer(0, [] {});  // expected error: requires holding role
}

}  // namespace

void use(fsr::Reactor& loop) { arm_from_another_thread(loop); }
