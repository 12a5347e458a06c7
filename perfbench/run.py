#!/usr/bin/env python3
"""End-to-end benchmark for the NAAS reproduction.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the root CMake project and the
benchmark's programs in Release under .bench_build/, runs one workload for
about --seconds seconds, checks every output, and prints one JSON object as
the last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 measures the end-to-end metrics; --trace 1 builds and runs the
separate per-layer program (perfbench_layers) on the same workload inputs.
"""
import time

from pace import probe

# Set-up is timed from T0 and scaled by the host's speed just before it;
# the probe itself is not set-up.
START_PROBE = probe()
T0 = time.perf_counter()

import argparse  # noqa: E402
import fcntl  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
E2E_TARGETS = ["perfbench_e2e", "naas_serve", "naas_router"]
# The traced run takes its inputs (the zoo) from perfbench_e2e too.
TRACE_TARGETS = ["perfbench_layers", "perfbench_e2e"]
WORKLOADS = list(workloads.SEARCHES) + list(workloads.SESSIONS)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(targets):
    """Configures once, then builds only `targets`; returns seconds spent."""
    start = time.perf_counter()
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no NAAS sources next to the benchmark (need CMakeLists.txt and src/)")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(os.path.join(BUILD_ROOT, "lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", str(harness.NPROC),
                      "--target", *targets])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path, errors="replace") as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed: {' '.join(cmd)}")
    return time.perf_counter() - start


def check_manifest(metrics, trace):
    """Fails unless `metrics` holds exactly BENCHMARK.json's metrics of the
    run's kind, each in the manifest's unit."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    want = {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}
    got = {k: u for k, (_, u) in metrics.items()}
    if got != want:
        wrong = sorted(k for k in want.keys() | got.keys()
                       if want.get(k) != got.get(k))
        fail(f"metrics differ from BENCHMARK.json: "
             f"{[(k, want.get(k), got.get(k)) for k in wrong]}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    build_s = build(TRACE_TARGETS if args.trace else E2E_TARGETS)
    workdir = os.path.join(BUILD_ROOT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    ctx = workloads.Ctx(BUILD_DIR, workdir, args.seed, args.seconds, T0,
                        START_PROBE, build_s)
    try:
        if args.trace:
            metrics, attempted, failed = layers.trace_workload(ctx, args.workload)
        elif args.workload in workloads.SEARCHES:
            metrics, attempted, failed = workloads.search_workload(ctx, args.workload)
        else:
            metrics, attempted, failed = workloads.session_workload(ctx, args.workload)
    except (checks.CheckError, harness.ProgramError) as e:
        fail(f"{args.workload}: {e}")
    finally:
        harness.kill_all()
        shutil.rmtree(workdir, ignore_errors=True)
    check_manifest(metrics, args.trace)
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
