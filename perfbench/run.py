#!/usr/bin/env python3
"""Repository benchmark: builds the protocol library and the benchmark from
source, runs one workload in its own process and passes its report through.

    python3 perfbench/run.py --workload kv-saturate --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory, traced runs write their spans to
<build>/traces. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--workload all` runs every
workload untraced and traced, prints a summary with the tracing overhead and
exits non-zero if any run failed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["kv-saturate", "kv-paced", "ring-paper", "kv-failover"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure and build; returns the benchmark binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "fsr", "engine.cpp")):
        log("perfbench: protocol sources (src/) not found; nothing to build")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON report.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, "fsr_perfbench")


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host_fingerprint():
    """What a number depends on besides the code: host, compiler, build."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if ":" in line and "=" in line and not line.startswith(("//", "#")):
                    key, val = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = val
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    commit = "not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            commit = res.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?") + " (assertions on)",
        "git_commit": commit,
        "source_sha256": source_digest(),
    }


def run_one(binary, args, workload, seed, trace, plant=None):
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--trace-dir", trace_dir]
    if plant:
        cmd += ["--plant", plant]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run kills the child and waits for it before raising.
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, ""
    sys.stderr.write(res.stderr)
    return res.returncode, res.stdout


def last_json(out):
    lines = [l for l in out.strip().splitlines() if l.startswith("{")]
    return json.loads(lines[-1]) if lines else None


def run_all(binary, args):
    """Every workload untraced then traced; summary with tracing overhead."""
    rows, ok = [], True
    for w in WORKLOADS:
        results = {}
        for trace in (0, 1):
            code, out = run_one(binary, args, w, args.seed, trace)
            sys.stdout.write(out)
            results[trace] = last_json(out) if code == 0 else None
            ok = ok and code == 0
        rows.append((w, results))
    print("\n== summary (seed %d, %s s per run) ==" % (args.seed, args.seconds))
    for w, res in rows:
        plain, traced = res.get(0), res.get(1)
        if not plain or not traced:
            print("%-12s FAILED" % w)
            continue
        m, t = plain["metrics"], traced["metrics"]
        ops, tops = m["ops_per_s"]["value"], t["trace.ops_per_s"]["value"]
        p50, tp50 = m["write_p50_ms"]["value"], t["trace.write_p50_ms"]["value"]
        print("%-12s ops_per_s %.6g (traced %.6g, %+.1f%%)  write_p50_ms %.6g "
              "(traced %.6g, %+.1f%%)" % (w, ops, tops, 100 * (tops / ops - 1), p50, tp50,
                                         100 * (tp50 / p50 - 1)))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--plant", choices=["drop-delivery", "corrupt-get", "stall-generator"],
                   help="self-test only: plant a fault the checks must catch")
    args = p.parse_args()

    binary = build()
    print("host: " + json.dumps(host_fingerprint(), sort_keys=True), flush=True)
    if args.workload == "all":
        return run_all(binary, args)
    code, out = run_one(binary, args, args.workload, args.seed, args.trace, args.plant)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
