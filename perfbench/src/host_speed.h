// Host-speed reference for kv-failover's CPU-time figures.
//
// On a shared virtual machine each virtual CPU switches between fast and
// slow stretches, as other tenants contend for the shared cache and memory.
// The stretches last from seconds to minutes and move the CPU time of the
// same simulation by up to 70 %, so a raw CPU figure says as much about the
// neighbours as about the code. The benchmark therefore times a fixed CPU
// kernel, which depends on nothing in the repository, on the simulator's
// CPU just before and just after each measured window, and reports CPU time
// at reference speed:
//
//     cpu at reference speed = cpu measured * kReferenceKernelUs / kernel time
//
// The factor depends only on the host, so a change that makes the code
// cheaper or dearer moves the figure by the same share as the raw one; a
// host stretch that slows every cache miss moves the kernel too and largely
// cancels out. perfbench/README.md says why only kv-failover uses it.
#pragma once

namespace fsr::perfbench {

/// The kernel's thread-CPU time at reference speed, in microseconds: about
/// its calm time on the 4-vCPU cloud VM (Intel Xeon, 2 MiB L2 per core,
/// GCC 12) on which the benchmark was calibrated.
constexpr double kReferenceKernelUs = 2500;

/// Reference-speed factor of CPU `cpu` now: kReferenceKernelUs over the
/// median of a few runs there of the reference kernel (hash-table inserts
/// and random lookups over 8 MiB, a sort and block copies, a mix of
/// cache-bound and compute-bound work like the simulator's own). The kernel runs in a child process
/// (this executable with `--speed-probe <cpu>`), so that its buffers never
/// count towards this process's peak RSS. It takes a few milliseconds of
/// that CPU, so it runs next to a measured window, never inside it.
/// Returns 1 if the probe could not run.
double speed_factor(int cpu);

/// Body of `--speed-probe <cpu>`: pins itself to `cpu` and prints the
/// median kernel time in microseconds. Returns the process exit code.
int run_speed_probe(int cpu);

}  // namespace fsr::perfbench
