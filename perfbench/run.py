#!/usr/bin/env python3
"""Layered ART-9 benchmark runner.

    python3 perfbench/run.py --workload sim_long|serve_short|toolchain_cold \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  Builds perfbench/ (and through it the
repository's src/ libraries) in Release under $CARGO_TARGET_DIR (default
.bench_build), runs one workload, and passes its output through: the
last stdout line is {"correct", "attempted", "failed", "metrics"}.  The
exit code is the benchmark's: 0 only when every correctness check held.

--self-test runs every workload in smoke mode (a few operations), checks
that each metric named in BENCHMARK.json is printed with its unit, and
checks that a deliberately wrong expected digest makes the run fail.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
WORKLOADS = ("sim_long", "serve_short", "toolchain_cold")


def build_dir():
    out = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(out if os.path.isabs(out) else os.path.join(ROOT, out), "perfbench")


def build():
    """Configures and builds in Release; returns the binary path or None."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "art9_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % " ".join(cmd))
                return None
    return os.path.join(bdir, "art9_perfbench")


def run(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 124, ""
    return proc.returncode, proc.stdout


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in WORKLOADS:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1", "--smoke"]
        for trace in ("0", "1"):
            code, out = run(binary, base + ["--trace", trace])
            result = last_json(out)
            tag = "%s trace=%s" % (workload, trace)
            if code != 0 or not result or not result.get("correct"):
                failures.append("%s: exit %d, result %s" % (tag, code, result))
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            for name, unit in want[trace].items():
                if got.get(name) != unit:
                    failures.append("%s: metric %s printed as %s, want unit %s"
                                    % (tag, name, got.get(name), unit))
            for name in sorted(set(got) - set(want[trace])):
                failures.append("%s: unlisted metric %s" % (tag, name))
        code, out = run(binary, base + ["--trace", "0", "--corrupt-golden"])
        result = last_json(out)
        if code == 0 or not result or result.get("correct") or result.get("failed", 0) == 0:
            failures.append("%s: a wrong expected digest was not caught (exit %d, %s)"
                            % (workload, code, result))
        print("self-test %s: %s" % (workload, "ok" if not failures else "see below"))
    for f in failures:
        print("FAIL " + f)
    print("self-test: %s" % ("passed" if not failures else "%d failures" % len(failures)))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true", help="a few operations per phase")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.self_test:
        return self_test(binary)

    cmd = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace == "1":
        traces = os.path.join(os.path.dirname(build_dir()), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    code, out = run(binary, cmd)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
