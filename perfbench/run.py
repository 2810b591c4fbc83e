#!/usr/bin/env python3
"""Build and run the oocc benchmark.

Usage (from the repository root):
    python3 perfbench/run.py --workload jacobi|gaxpy|serve --seed N \
        --seconds S --trace 0|1

Configures and builds perfbench/ (which compiles the oocc library from
src/) into .bench_build/perfbench, runs the benchmark with its scratch files
under .bench_build, and relays its output. The last line of standard output
is the benchmark's JSON result. Traced runs write a Chrome trace-event file
to .bench_build/perfbench-traces/.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"oocc sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cfg = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if cfg.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.stderr.write(cfg.stdout)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    res = subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "oocc_perfbench", "-j", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if res.returncode != 0:
        sys.stderr.write(res.stdout)
        fail("build failed")
    return BUILD / "oocc_perfbench"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=["jacobi", "gaxpy", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    binary = build()
    work = ROOT / ".bench_build" / "perfbench-work" / f"run-{os.getpid()}"
    traces = ROOT / ".bench_build" / "perfbench-traces"
    traces.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Every run uses the library's defaults: no OOCC_* knob from the caller's
    # environment, and temporary files stay inside the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("OOCC_")}
    env["TMPDIR"] = str(work)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--workdir", str(work)]
    if args.trace == "1":
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        res = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stdout.write(res.stdout)
    sys.stdout.flush()
    if res.returncode != 0:
        fail(f"benchmark exited with code {res.returncode}")


if __name__ == "__main__":
    main()
