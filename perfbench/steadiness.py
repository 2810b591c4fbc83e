#!/usr/bin/env python3
"""Steadiness report for the oocc benchmark.

Usage (from the repository root):
    python3 perfbench/steadiness.py [--runs 10] [--sets 1] [--workload W ...]
                                    [--seed0 1] [--out report.md]

Runs perfbench/run.py --trace 0 `runs` times per workload, each with
another seed, and reports per end-to-end metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json. With --sets 2 the whole set
is run twice and the two medians are compared as well. It also checks that
every run is correct and that the deterministic counters are identical
across all runs of a workload. Exits non-zero when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run failed ({res.returncode})")
    counters = next((json.loads(l[len("counters: "):]) for l in lines
                     if l.startswith("counters: ")), None)
    return json.loads(lines[-1]), counters


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    ok = True
    out = [f"# Steadiness: {args.runs} runs x {args.sets} set(s), "
           f"{args.seconds:g} s each, seeds {args.seed0}..{args.seed0 + args.runs - 1}", ""]
    for w in workloads:
        sets = []
        counter_sets = set()
        for _ in range(args.sets):
            results = []
            for i in range(args.runs):
                result, counters = run_once(w, args.seed0 + i, args.seconds)
                if not result["correct"] or result["failed"]:
                    ok = False
                    out.append(f"- {w} seed {args.seed0 + i}: INCORRECT {result}")
                counter_sets.add(json.dumps(counters, sort_keys=True))
                results.append(result["metrics"])
                print(f"{w} seed {args.seed0 + i}: " + ", ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                    for m in metrics), file=sys.stderr, flush=True)
            sets.append(results)
        out += [f"## {w}", "",
                "| metric | unit | median | q1 | q3 | spread | bound | spread < bound/3 |"
                + (" set-2 median | change |" if args.sets > 1 else ""),
                "|---|---|---|---|---|---|---|---|" + ("---|---|" if args.sets > 1 else "")]
        for m in metrics:
            vals = [r[m["name"]]["value"] for r in sets[0]]
            med, q1, q3, sp = spread(vals)
            steady = sp < m["bound"] / 3
            if m["name"] != "setup_s" and sp > m["bound"]:
                ok = False
            row = (f"| {m['name']} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                   f"{sp:.4f} | {m['bound']} | {'yes' if steady else 'NO'} |")
            if args.sets > 1:
                med2 = statistics.median(r[m["name"]]["value"] for r in sets[1])
                worse = (med2 - med) / med if m["better"] == "lower" else (med - med2) / med
                if worse > m["bound"]:
                    ok = False
                row += f" {med2:.6g} | {worse:+.4f} |"
            out.append(row)
        same = len(counter_sets) == 1
        ok = ok and same
        out += ["", f"Deterministic counters identical across all runs: "
                f"{'yes' if same else 'NO'}", ""]
    text = "\n".join(out) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
