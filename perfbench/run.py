#!/usr/bin/env python3
"""Repository benchmark: builds the driver from source and runs one workload.

    python3 perfbench/run.py --workload fleet_daily_resume --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout. The first run configures the repository's
own CMake project with perfbench/inject.cmake and builds perfbench_driver
under .bench_build/ (or $CARGO_TARGET_DIR); later runs only rebuild what
changed. The driver runs the workload, checks its outputs and reports every
metric it measured. This script keeps the metrics BENCHMARK.json lists for the
requested mode (--trace 0: end_to_end, --trace 1: per_layer), asserts that the
deterministic counters equal those of earlier runs with the same seed in this
checkout and sources, stores the full result with the host fingerprint under
.bench_build/results/, and prints the result object as the last line of
stdout. It exits non-zero on any correctness failure.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DRIVER_TIMEOUT_S = 170

# Per-workload names (see README) of the generic end-to-end metrics.
WORKLOAD_NAMES = {
    "fleet_daily_resume": {"ops_per_s": "device_days_per_s"},
    "iss_kernels": {"ops_per_s": "iss_calls_per_s"},
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(root, build_root):
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(root, "src")
    ):
        raise RuntimeError("run from the root of a checkout: CMakeLists.txt and src/ are missing")
    build_dir = os.path.join(build_root, "cmake")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", root, "-B", build_dir,
             "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "inject.cmake")],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_driver",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench_driver")


def revision(root):
    """git revision when the checkout is a repository, plus a digest of the
    sources the driver is built from (the benchmark's checkout has no .git)."""
    rev = "unknown"
    if os.path.isdir(os.path.join(root, ".git")):
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            rev = out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", os.path.relpath(HERE, root)):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            digest.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return rev, digest.hexdigest()[:16]


def check_counters(build_root, key, counters, failures):
    """Deterministic counters must repeat exactly across runs of one seed on
    the same sources (`key` includes the source digest)."""
    path = os.path.join(build_root, "counters", key + ".json")
    if os.path.isfile(path):
        with open(path) as fh:
            before = json.load(fh)
        for name in sorted(set(before) | set(counters)):
            if before.get(name) != counters.get(name):
                failures.append("counter %s: %s in an earlier run, %s now"
                                % (name, before.get(name), counters.get(name)))
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(counters, fh, indent=1, sort_keys=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_NAMES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

    driver = build(root, build_root)
    workdir = os.path.join(build_root, "work", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed no result (exit code %d)" % proc.returncode)
    out = json.loads(lines[-1])
    failures = list(out["failures"])
    failed = out["failed"]

    rev, source_digest = revision(root)
    key = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    n_before = len(failures)
    check_counters(build_root, "%s-%s" % (key, source_digest), out["counters"], failures)
    failed += len(failures) - n_before

    metrics = {}
    for m in wanted:
        got = out["metrics"].get(m["name"])
        if got is None or not math.isfinite(got["value"]) or got["unit"] != m["unit"]:
            failures.append("metric %s missing or malformed: %r" % (m["name"], got))
            failed += 1
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    host = dict(out["host"], git_revision=rev, source_digest=source_digest)
    correct = not failures
    attempted = max(1, out["attempted"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "correct": correct, "attempted": attempted,
        "failed": failed, "failed_frac": failed / attempted, "failures": failures,
        "driver_s": time.monotonic() - t0, "metrics": out["metrics"],
        "counters": out["counters"],
    }
    os.makedirs(os.path.join(build_root, "results"), exist_ok=True)
    with open(os.path.join(build_root, "results", key + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print("host: " + json.dumps(host, sort_keys=True))
    aliases = WORKLOAD_NAMES[args.workload]
    for name, m in sorted(out["metrics"].items()):
        alias = " (%s)" % aliases[name] if name in aliases else ""
        print("%-34s %16.6g %s%s" % (name, m["value"], m["unit"], alias))
    print("%-34s %16.6g %s" % ("failed_frac", failed / attempted, "ratio"))
    for f in failures:
        print("FAILED: " + f)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
