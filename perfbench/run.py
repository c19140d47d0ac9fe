#!/usr/bin/env python3
"""End-to-end serving benchmark of the MEANet edge/cloud system.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_serve and meanet_cloudd from the sources in this
checkout (CMake + Ninja, Release) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), trains the models once into that
directory's work/ folder, then runs one workload. Every line of the
run's output is passed through; the last line is the JSON result. Its
metric names and units are checked against BENCHMARK.json before it is
printed: end-to-end metrics when --trace 0, per-layer metrics when
--trace 1. Traced runs also write their spans to
work/traces/<workload>-seed<N>.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# Sources the benchmark builds; hashed into the run header.
SOURCE_PATHS = ["CMakeLists.txt", "src", "tools", "bench", "perfbench"]
PREPARE_TIMEOUT_S = 780
BUILD_TIMEOUT_S = 600


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    return parser.parse_args()


def run_quiet(cmd, cwd, timeout):
    """Runs a build/prepare step with its output on stderr."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited with {proc.returncode}", 1)


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
                  + generator, ROOT, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs], ROOT, BUILD_TIMEOUT_S)


def git_commit():
    """HEAD of the checkout, or "unknown" when it is not a git work tree
    of its own (an enclosing repository's HEAD would be wrong)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def source_digest():
    digest = hashlib.sha256()
    for top in SOURCE_PATHS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path) for f in fs
            if "__pycache__" not in d)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def run_serving(cmd, cwd, timeout):
    """Runs the benchmark binary in its own process group, so a timeout
    stops the spawned meanet_cloudd too; returns (code, stdout lines)."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        fail(f"run exceeded {timeout:.0f} s and was stopped", 1)
    return proc.returncode, out.splitlines()


def check_result(line, trace):
    """The result must name exactly the metrics BENCHMARK.json declares
    for this mode, with the declared units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if trace else "end_to_end"]
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result has keys {sorted(result)}", 1)
    expected = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             f"wrong unit {wrong}", 1)


def main():
    args = parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "session.h")):
        fail(f"the meanet sources are not in {ROOT}; run from a full checkout")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    build(build_dir)
    binary = os.path.join(build_dir, "perfbench_serve")
    work = os.path.join(build_dir, "work")
    os.makedirs(os.path.join(work, "traces"), exist_ok=True)
    for name in os.listdir(work):
        if name.endswith(".sock"):  # left by a run that was killed
            os.unlink(os.path.join(work, name))
    if not os.path.exists(os.path.join(work, "models", "READY")):
        run_quiet([binary, "--prepare"], work, PREPARE_TIMEOUT_S)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(),
           "--source-digest", source_digest()]
    if args.trace:
        cmd += ["--trace-out", os.path.join("traces", f"{args.workload}-seed{args.seed}.json")]
    code, lines = run_serving(cmd, work, timeout=min(170.0, 60.0 + 3.0 * args.seconds))
    if not lines or not lines[-1].startswith("{"):
        print("\n".join(lines))
        fail(f"run exited with {code} and printed no result", code or 1)
    print("\n".join(lines[:-1]))
    check_result(lines[-1], args.trace)
    print(lines[-1])
    sys.exit(code)


if __name__ == "__main__":
    main()
