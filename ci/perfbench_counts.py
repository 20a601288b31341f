#!/usr/bin/env python3
"""Gate perfbench's exact per-op counts against a committed baseline.

    perfbench_counts.py BASELINE WORKLOAD OUTPUT [--update]

OUTPUT is the stdout of one `perfbench --trace 1` run. Its last line is a
JSON object whose "metrics" hold, among wall-clock readings, counts that
do not depend on the host: bytes per put, future and conjoin allocations,
progress calls, deferrals and wakeups per op, future cells and when_all
nodes per op, wire messages per op, and the matching rounds and reads.
Those must equal the WORKLOAD entry of BASELINE exactly, with no
tolerance; a count that appears or disappears fails too. `--update`
rewrites the WORKLOAD entry from OUTPUT instead.

The allocations per rput/rget/fetch_add/fetch_add_into are not gated
here: crates/core/tests/alloc_counts.rs pins them, in every
`cargo test --workspace`.
"""

import json
import sys

EXACT = {
    "rma.put_alloc_bytes",
    "ctx.progress_calls_per_op",
    "ctx.deferred_per_op",
    "ctx.wakeups_per_op",
    "future.cell_allocs_per_op",
    "future.when_all_nodes_per_op",
    "matching.rounds",
    "matching.rma_reads",
}


PINNED_BY_TEST = {
    "rma.put_allocs",
    "rma.get_allocs",
    "atomics.fetch_add_allocs",
    "atomics.fetch_add_into_allocs",
}


def gated(name):
    if name in PINNED_BY_TEST:
        return False
    return (
        name in EXACT
        or name.endswith("_allocs")
        or (name.startswith("net.") and name.endswith("_per_op"))
    )


def counts(output_path):
    with open(output_path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        sys.exit(f"{output_path}: no output")
    metrics = json.loads(lines[-1])["metrics"]
    return {k: v["value"] for k, v in sorted(metrics.items()) if gated(k)}


def main(argv):
    args = [a for a in argv if a != "--update"]
    if len(args) != 3:
        sys.exit(__doc__)
    baseline_path, workload, output_path = args
    got = counts(output_path)
    with open(baseline_path) as f:
        baseline = json.load(f)
    if "--update" in argv:
        baseline[workload] = got
        with open(baseline_path, "w") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"{baseline_path}: {workload} updated ({len(got)} counts)")
        return
    want = baseline.get(workload)
    if want is None:
        sys.exit(f"{baseline_path}: no entry for {workload}")
    bad = [
        f"  {k}: baseline {want.get(k)}, got {got.get(k)}"
        for k in sorted(set(want) | set(got))
        if want.get(k) != got.get(k)
    ]
    if bad:
        print(f"{workload}: exact counts differ from {baseline_path}:", file=sys.stderr)
        print("\n".join(bad), file=sys.stderr)
        sys.exit(1)
    print(f"{workload}: {len(got)} exact counts match the baseline")


if __name__ == "__main__":
    main(sys.argv[1:])
