#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark on this host.

Builds the benchmark once, then runs SETS sets of RUNS runs per workload,
alternating workloads inside each set (run i of every workload uses seed
i + 1, so both sets see the same inputs). After each set it makes one
traced run per workload for the host reference readings (`host.*`) and
the exact per-op counts.

For every end-to-end metric it prints, per set, the median, quartiles
(`statistics.quantiles(values, n=4)`), min and max, the spread
(quartile distance / median) against the metric's bound from
BENCHMARK.json, and the change of the median from the first set. It also
checks that exact counts (`*_allocs`, `*_per_op` counts) agree between
sets. Exits 1 if a spread exceeds its bound (setup_s excepted), a median
worsens by more than its bound, or an exact count differs.

Run from the repository root:

    python3 perfbench/steadiness.py --sets 2 --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads onnode_defer
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", manifest],
        check=True,
    )
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: run failed ({result['failed']} checks)")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def is_exact(name, unit):
    return unit == "count" or name.endswith("_allocs") or name.endswith("alloc_bytes")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--workloads", default=None, help="comma-separated subset")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    e2e = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    binary = build()
    # sets[s][workload] = list of metric dicts; traced[s][workload] = dict
    sets, traced = [], []
    for s in range(args.sets):
        t0 = time.time()
        runs = {w: [] for w in workloads}
        for i in range(args.runs):
            for w in workloads:
                runs[w].append(run_once(binary, w, i + 1, seconds, False))
        sets.append(runs)
        traced.append({w: run_once(binary, w, 1, seconds, True) for w in workloads})
        print(f"set {s + 1}: {time.time() - t0:.0f} s", file=sys.stderr)

    bad = 0
    for w in workloads:
        print(f"\n== {w}  ({args.runs} runs x {args.sets} sets, {seconds} s each)")
        print(f"{'metric':<24}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'min':>12}{'max':>12}{'spread':>9}{'bound':>7}{'vs set1':>9}")
        for m in e2e:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            first = None
            for s, runs in enumerate(sets):
                vals = [r[name] for r in runs[w]]
                q1, med, q3, sp = spread(vals)
                first = med if first is None else first
                worse = (med / first - 1) if lower else (1 - med / first)
                flag = ""
                if name != "setup_s" and sp > bound:
                    flag, bad = " SPREAD", bad + 1
                elif name != "setup_s" and sp > bound / 3:
                    flag = " wide"
                if worse > bound:
                    flag, bad = flag + " DRIFT", bad + 1
                print(f"{name:<24}{s + 1:>4}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                      f"{min(vals):>12.5g}{max(vals):>12.5g}{sp:>9.4f}{bound:>7}"
                      f"{worse:>+9.4f}{flag}")
        hosts = "  ".join(
            f"set {s + 1}: clock {t[w]['host.clock_read_ns']:.1f} ns, "
            f"mutex {t[w]['host.mutex_ns']:.1f} ns"
            for s, t in enumerate(traced))
        print(f"host  {hosts}")
        for name, unit in units.items():
            if is_exact(name, unit):
                vals = {t[w][name] for t in traced}
                if len(vals) > 1:
                    bad += 1
                    print(f"EXACT COUNT DIFFERS {name}: {sorted(vals)}")
    print(f"\n{'FAIL' if bad else 'OK'}: {bad} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
