#!/usr/bin/env python3
"""Builds and runs Ariadne's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the root of a checkout. It compiles the library and the
benchmark program (perfbench/perfbench.cc) from source with CMake into
the build directory ($CARGO_TARGET_DIR, default .bench_build), then runs
one workload. The program's last stdout line is the result JSON
{correct, attempted, failed, metrics}; the lines before it record the
commit, source digest, build type, nproc and every thread count.
The metric names and units in the result must be the ones BENCHMARK.json
lists for the mode (end_to_end, or per_layer with --trace 1); any
difference exits 2.
With --trace 1 the span trace is written as Chrome trace-event JSON to
<build dir>/traces/<workload>-seed<n>.json.

Workloads, metrics and the layer -> end-to-end prediction table are
described in perfbench/METRICS.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("capture-full", "serve-lineage")
RUN_TIMEOUT_S = 170
BUILD_TYPE = "Release"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """sha256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit_id(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def listed_metrics(root, trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this mode."""
    path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
        return {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read the metric list from {path}: {e}")


def check_metrics(stdout, listed):
    """Fails unless the result line reports exactly the listed metrics."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError, AttributeError):
        fail("the benchmark program printed no result line")
    if reported != listed:
        diff = sorted(set(reported.items()) ^ set(listed.items()))
        fail("reported metrics differ from BENCHMARK.json (name, unit): "
             f"{diff}")


def run_checked(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        code = proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        fail(f"build step failed ({code}): {' '.join(cmd)}")


def build(root, build_dir):
    if shutil.which("cmake") is None:
        fail("cmake not found")
    cmake_dir = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                     cmake_dir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(max(1, os.cpu_count() or 1))
    run_checked(["cmake", "--build", cmake_dir, "--target",
                 "ariadne_perfbench", "-j", jobs])
    binary = os.path.join(cmake_dir, "ariadne_perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no benchmark program at {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in [1, 60]")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail(f"ariadne sources not found under {root}/src")

    listed = listed_metrics(root, args.trace)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(root, ".bench_build"))
    # Validate every output location before building or running.
    work_dir = os.path.join(build_dir, "work",
                            f"{args.workload}-{os.getpid()}")
    trace_out = os.path.join(build_dir, "traces",
                             f"{args.workload}-seed{args.seed}.json")
    try:
        os.makedirs(work_dir, exist_ok=True)
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        if args.trace:
            with open(trace_out, "a"):
                pass
    except OSError as e:
        fail(f"cannot prepare output paths: {e}")

    binary = build(root, build_dir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--commit", commit_id(root),
           "--source-digest", source_digest(root)]
    if args.trace:
        cmd += ["--trace-out", trace_out]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    stdout = None
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    if stdout is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
    # The program's metric names must be the ones BENCHMARK.json lists.
    if proc.returncode == 0:
        check_metrics(stdout, listed)
    sys.stdout.write(stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
