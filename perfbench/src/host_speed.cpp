#include "host_speed.h"

#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "report.h"

namespace fsr::perfbench {
namespace {

/// Kernel runs per probe; the probe reports their median.
constexpr int kProbeRuns = 5;

// Where the kernel's result goes, so the compiler cannot drop the work.
volatile std::uint64_t g_kernel_sink = 0;

/// Runs the reference kernel once on the calling thread; returns its
/// thread CPU time in microseconds.
double time_reference_kernel() {
  // The buffers live as long as the (probe) process, so only the first run
  // faults their pages in.
  constexpr std::size_t kSlots = std::size_t{1} << 20;  // 8 MiB: past the L2 cache
  constexpr int kOps = 16000;
  static std::vector<std::uint64_t> table(kSlots);
  static std::vector<std::uint64_t> keys(kOps);
  static std::vector<std::uint8_t> a(16384, 1), b(16384);
  const double t0 = thread_cpu_us();
  std::fill(table.begin(), table.end(), 0);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t acc = 0;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  auto slot_of = [](std::uint64_t k) {
    return static_cast<std::size_t>((k * 0xFF51AFD7ED558CCDULL) >> 44);
  };
  for (int i = 0; i < kOps; ++i) {
    const std::uint64_t k = next();
    // Open-addressing insert-or-update, linear probing.
    std::size_t slot = slot_of(k);
    while (table[slot] != 0 && table[slot] != (k | 1)) slot = (slot + 1) % kSlots;
    table[slot] = k | 1;
    keys[static_cast<std::size_t>(i)] = k;
    if (i % 64 == 0) {
      std::memcpy(b.data(), a.data(), a.size());
      a[static_cast<std::size_t>(k % a.size())] = static_cast<std::uint8_t>(k);
    }
  }
  // Random lookups: the share of cache-missing work that makes the kernel
  // slow down with the host about as much as the simulator does.
  for (int i = 0; i < 2 * kOps; ++i) acc += table[slot_of(next())];
  std::sort(keys.begin(), keys.end());
  for (std::uint64_t k : keys) acc += table[k % kSlots] + b[k % b.size()];
  g_kernel_sink = acc;
  return thread_cpu_us() - t0;
}

}  // namespace

int run_speed_probe(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return 1;
  time_reference_kernel();  // faults the buffers in
  std::vector<double> runs;
  for (int i = 0; i < kProbeRuns; ++i) runs.push_back(time_reference_kernel());
  std::printf("%.3f\n", median(std::move(runs)));
  return 0;
}

double speed_factor(int cpu) {
  int out[2];
  if (pipe(out) != 0) return 1.0;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  char self[] = "/proc/self/exe";
  char flag[] = "--speed-probe";
  std::string which = std::to_string(cpu);
  char* argv[] = {self, flag, which.data(), nullptr};
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, self, &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  std::string text;
  char buf[64];
  for (ssize_t n; rc == 0 && (n = read(out[0], buf, sizeof(buf))) != 0;) {
    if (n > 0) {
      text.append(buf, static_cast<std::size_t>(n));
    } else if (errno != EINTR) {
      break;
    }
  }
  close(out[0]);
  int status = 0;
  if (rc != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return 1.0;
  }
  const double kernel_us = std::strtod(text.c_str(), nullptr);
  return kernel_us > 0 ? kReferenceKernelUs / kernel_us : 1.0;
}

}  // namespace fsr::perfbench
