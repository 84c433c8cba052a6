#!/usr/bin/env python3
"""Build and run the layered benchmark; print its result line.

Usage, from the root of a checkout:

    python3 labench/run.py --workload kernels|farm_zipf|gate_sweep \\
        --seed N --seconds S --trace 0|1 [--gate-rate R] [--gate-limit-ms L]
    python3 labench/run.py --record     # re-record labench/expected_kernels.tsv

The first call configures and builds labench (Release) into .bench_build/
from this checkout's sources; later calls rebuild only what changed.  The
run's notes and provenance go to stdout as "# ..." lines; the last line is
one JSON object with exactly the keys correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 (a separate, traced invocation) its per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "labench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("labench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ next to labench/: run from the root of a full checkout")
    jobs = str(os.cpu_count() or 1)
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "labench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "labench", "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def source_digest():
    """Content hash of everything the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "labench", "progs"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--gate-rate", type=float, default=30)
    ap.add_argument("--gate-limit-ms", type=float, default=250)
    ap.add_argument("--record", action="store_true")
    a = ap.parse_args()

    build()
    expected = os.path.join(ROOT, "labench", "expected_kernels.tsv")
    base = [BINARY, "--progs", os.path.join(ROOT, "progs"), "--expected", expected]
    if a.record:
        sys.exit(subprocess.run(base + ["--record"], cwd=ROOT).returncode)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % a.workload)
    wanted = [m["name"] for m in spec["per_layer" if a.trace else "end_to_end"]]

    cmd = base + ["--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", repr(a.seconds), "--trace", str(a.trace),
                  "--gate-rate", repr(a.gate_rate),
                  "--gate-limit-ms", repr(a.gate_limit_ms)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    if p.returncode != 0 or not p.stdout.strip():
        fail("labench exited with %d" % p.returncode)
    report = json.loads(p.stdout.strip().splitlines()[-1])

    metrics = report["metrics"]
    bad = [n for n, m in metrics.items() if not isinstance(m["value"], (int, float))]
    if bad:
        fail("metrics without a measured value: %s" % bad)
    missing = [m for m in wanted if m not in metrics]
    extra = [m for m in metrics if m not in wanted]
    if missing or extra:
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s"
             % (missing, extra))

    provenance = {
        "commit": commit(),
        "source_digest": source_digest(),
        "build_type": report.get("build_type", "unknown"),
        "compiler": report.get("compiler", "unknown"),
        "host": "%s, nproc %d" % (platform.machine(), os.cpu_count() or 0),
        "workload": a.workload,
        "seed": a.seed,
        "run_seconds": a.seconds,
        "trace": a.trace,
        "gate_rate": a.gate_rate,
        "gate_limit_ms": a.gate_limit_ms,
        "repeats": next((n[len("repeats: "):] for n in report.get("notes", [])
                         if n.startswith("repeats: ")), "traced probes"),
    }
    print("# provenance " + json.dumps(provenance, sort_keys=True))
    for note in report.get("notes", []):
        print("# " + note)
    for name in wanted:
        m = metrics[name]
        print("# %-28s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {n: metrics[n] for n in wanted},
    }))


if __name__ == "__main__":
    main()
