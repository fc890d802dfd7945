#!/usr/bin/env python3
"""Served-traffic benchmark for the raster-join HTTP stack.

Builds the benchmark (perfbench/CMakeLists.txt, which builds the library
from ../src) and runs one workload in one process:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads and metrics are listed in BENCHMARK.json at the repository root.
The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics"; --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. Build output goes to
standard error. Result files and span dumps are written under
.bench_build/perfbench/runs.

    python3 perfbench/run.py --self-test

runs the benchmark's own checks: every workload completes at a tiny size
with the metric names BENCHMARK.json lists, and a response corrupted on
purpose is caught by the oracle.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
# Every workload the benchmark can run. BENCHMARK.json gates the steady ones;
# dashboard_zipf runs and self-tests like the others but is not gated (its
# sub-millisecond latencies follow the host's speed modes).
WORKLOADS = ["dashboard_zipf", "adhoc_sharded", "disk_zoom"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures and builds the benchmark; returns the binary path."""
    out = build_dir()
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "perfbench", "-j",
              str(os.cpu_count() or 1)]]
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench")


def source_id():
    """The git commit when available, else a hash of the library sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True,
                             timeout=10).stdout.strip()
        if sha:
            return "git:" + sha
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run(binary, args, capture=False):
    cmd = [binary] + args + [
        "--out", os.path.join(build_dir(), "runs"),
        "--source-id", source_id()]
    return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                          stdout=subprocess.PIPE if capture else None)


def last_json(stdout):
    lines = [l for l in stdout.strip().splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, listed in (("0", spec["end_to_end"]),
                              ("1", spec["per_layer"])):
            p = run(binary, ["--workload", workload, "--seed", "7",
                             "--seconds", "1", "--trace", trace, "--tiny"],
                    capture=True)
            result = last_json(p.stdout)
            check(p.returncode == 0 and result is not None
                  and result["correct"] is True
                  and sorted(result) == ["attempted", "correct", "failed",
                                         "metrics"],
                  f"{workload} trace={trace}: completes at a tiny size")
            want = {m["name"]: m["unit"] for m in listed}
            got = ({k: v["unit"] for k, v in result["metrics"].items()}
                   if result else {})
            check(got == want,
                  f"{workload} trace={trace}: metric names and units match "
                  f"BENCHMARK.json")
    p = run(binary, ["--workload", WORKLOADS[0], "--seed", "7",
                     "--seconds", "1", "--trace", "0", "--tiny",
                     "--corrupt-one"], capture=True)
    result = last_json(p.stdout)
    check(p.returncode != 0 and result is not None
          and result["correct"] is False and result["failed"] >= 1,
          "a corrupted response value is caught by the oracle")
    print("self-test:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds,
                                       args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if args.self_test:
        return self_test(binary)
    try:
        return run(binary, ["--workload", args.workload, "--seed", args.seed,
                            "--seconds", args.seconds,
                            "--trace", args.trace]).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
