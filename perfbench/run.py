#!/usr/bin/env python3
"""Builds and runs the PhoneBit benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload yolo416 --seed 1 --seconds 15 --trace 0

The first run configures and builds the library and the `perfbench` binary
under .bench_build/perfbench; later runs rebuild only what changed. Build
output goes to stderr. The binary's stdout is passed through: its last line
is the JSON result. A traced run (--trace 1) also writes its spans as Chrome
trace-event JSON under .bench_build/perfbench/traces/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no PhoneBit sources next to perfbench/ (CMakeLists.txt, src/)")
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
        fail("build failed")
    return os.path.join(BUILD, "perfbench")


def metric_names(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [m["name"] for m in json.load(f)[kind]]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["yolo416", "fleet-quicknet", "cascade-server"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--fleet-limit-ms", type=float, required=True)
    p.add_argument("--cascade-limit-ms", type=float, required=True)
    a = p.parse_args()

    binary = build()
    work = os.path.join(BUILD, "work", "%s-%d" % (a.workload, os.getpid()))
    traces = os.path.join(BUILD, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--work-dir", work,
           "--fleet-limit-ms", repr(a.fleet_limit_ms),
           "--cascade-limit-ms", repr(a.cascade_limit_ms)]
    if a.trace:
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (a.workload, a.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 5)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1):
        sys.stdout.write("\n".join(lines[:-1] if lines[-1].startswith("{")
                                   else lines) + "\n")
        fail("benchmark exited with code %d" % proc.returncode,
             proc.returncode)
    result = json.loads(lines[-1])
    expected = metric_names("per_layer" if a.trace else "end_to_end")
    if sorted(result["metrics"]) != sorted(expected):
        fail("metrics do not match BENCHMARK.json: %s" %
             sorted(set(result["metrics"]) ^ set(expected)), 6)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
