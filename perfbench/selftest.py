#!/usr/bin/env python3
"""Self-test of the benchmark's own checks. Run from the repository root:

    python3 perfbench/selftest.py

1. Planted divergence: each planted fault must make the run exit non-zero
   and name the check that caught it.
2. Open-loop validity: a clean kv-paced run completes the offered rate and
   reports how late the generator ran; a generator that stalls mid-window
   is marked invalid (exit 3, no result), not reported as slow.
3. Sim determinism: ring-paper and kv-failover give identical simulated-time
   metrics for the same seed, and a different seed changes the schedule.

Exits non-zero if any expectation fails. Takes about two minutes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SECONDS = "2"

# Metrics in simulated time on the sim workloads (host figures excluded).
SIM_E2E = ["ops_per_s", "write_p50_ms", "write_p90_ms", "deliver_p50_ms",
           "deliver_p90_ms", "goodput_mbps"]
SIM_LAYERS = ["fsr.piggyback_frac", "transport.wire_bytes_per_op", "sim.events_per_op",
              "vsc.view_install_ms", "vsc.views_installed", "client.outage_ms",
              "gateway.failover_attempts_per_op"]


def run(workload, seed=1, trace=0, plant=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace)]
    if plant:
        cmd += ["--plant", plant]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return res.returncode, res.stdout, result


failures = []


def expect(cond, what):
    print(("PASS  " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def planted_divergence():
    for workload, plant, check in [("kv-saturate", "drop-delivery", "delivery_hash"),
                                   ("kv-paced", "corrupt-get", "get_value"),
                                   ("kv-failover", "drop-delivery", "kv_fingerprint")]:
        code, out, _ = run(workload, plant=plant)
        expect(code != 0 and ("CHECK FAILED: " + check) in out,
               "%s with planted %s exits non-zero naming %s (exit %d)"
               % (workload, plant, check, code))


def open_loop_validity():
    code, out, res = run("kv-paced", seed=5)
    rate = res["metrics"]["ops_per_s"]["value"] if res else 0
    expect(code == 0 and abs(rate / 20000 - 1) < 0.03,
           "clean kv-paced run completes the offered 20000 ops/s (got %.0f)" % rate)
    code, out, res = run("kv-paced", seed=5, trace=1)
    late = res["metrics"]["client.late_p99_ms"]["value"] if res else -1
    expect(code == 0 and 0 < late < 10, "traced kv-paced reports client.late_p99_ms (%.4f ms)" % late)
    code, out, res = run("kv-paced", seed=5, plant="stall-generator")
    expect(code == 3 and "INVALID RUN" in out and res is None,
           "a stalled open-loop generator marks the run invalid (exit %d)" % code)


def sim_determinism():
    for workload in ["ring-paper", "kv-failover"]:
        figures = {}
        for seed, trace in [(1, 0), (1, 0), (2, 0), (1, 1), (1, 1), (2, 1)]:
            code, _, res = run(workload, seed=seed, trace=trace)
            names = SIM_LAYERS if trace else SIM_E2E
            vals = tuple(res["metrics"][n]["value"] for n in names) if code == 0 and res else None
            figures.setdefault((seed, trace), []).append(vals)
        for trace in (0, 1):
            a, b = figures[(1, trace)]
            c = figures[(2, trace)][0]
            kind = "per-layer" if trace else "end-to-end"
            expect(a is not None and a == b,
                   "%s: seed 1 repeats its simulated-time %s metrics exactly" % (workload, kind))
            expect(a is not None and c is not None and a != c,
                   "%s: seed 2 changes the simulated-time %s metrics" % (workload, kind))


def main():
    planted_divergence()
    open_loop_validity()
    sim_determinism()
    print("%d expectation(s) failed" % len(failures) if failures else "all expectations hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
