#!/usr/bin/env python3
"""GGA-Sim benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

W is one of sweep_pull, sweep_push, serve_mixed, graph_cold (see
perfbench/README.md). The script builds the benchmark package (this
directory's CMakeLists.txt, which pulls in the repository's libraries and
gga_serve) into .bench_build, then runs one workload. Build output goes
to .bench_build/build.log; everything the run writes lands in .bench_out.
The last line of standard output is the run's JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_pull", "sweep_push", "serve_mixed", "graph_cold")
TARGETS = ("perfbench", "perfbench_selftest", "gga_serve_bin")
RUN_TIMEOUT_S = 170


def log(msg):
    print("[perfbench] " + msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure (once) and build the benchmark; returns the build dir."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    build_log = os.path.join(out, "build.log")
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release", "-DGGA_WERROR=OFF"])
    steps.append(["cmake", "--build", out, "-j", "4", "--target", *TARGETS])
    with open(build_log, "a") as sink:
        for cmd in steps:
            if subprocess.call(cmd, stdout=sink, stderr=subprocess.STDOUT) != 0:
                with open(build_log) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write(tail)
                log("build failed: " + " ".join(cmd))
                sys.exit(1)
    return out


def revision():
    """The git revision, or a hash of the sources when not in a repo."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return rev.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:12]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    out = build()
    if args.selftest:
        return subprocess.call([os.path.join(out, "perfbench_selftest"),
                                os.path.join(ROOT, "BENCHMARK.json")])

    run_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--serve-bin", os.path.join(out, "gga", "gga_serve"),
           "--out-dir", run_dir,
           "--revision", revision()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
