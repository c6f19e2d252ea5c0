#!/usr/bin/env python3
"""Per-layer deltas between two traced benchmark runs, largest first.

    python3 perfbench/run.py --workload sim_dense --seed 7 --seconds 10 --trace 1 > before.txt
    (change the code)
    python3 perfbench/run.py --workload sim_dense --seed 7 --seconds 10 --trace 1 > after.txt
    python3 perfbench/bench_diff.py before.txt after.txt

Each input is a run's stdout (its last line is the result object) or a
file holding just that object. Metrics are ordered by the size of their
relative change; "worse" and "better" follow each metric's direction in
BENCHMARK.json. Every metric is printed; layers the workload does not
cross read 0 on both sides and sort last. End-to-end results diff the
same way.
"""
import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    with open(path) as f:
        lines = [l for l in f.read().splitlines() if l.strip()]
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise SystemExit("%s: not a correct run" % path)
    return result["metrics"]


def directions():
    try:
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def rows(before, after, better):
    out = []
    for name in sorted(set(before) | set(after)):
        a = before.get(name, {}).get("value")
        b = after.get(name, {}).get("value")
        unit = (after.get(name) or before.get(name))["unit"]
        if a is None or b is None:
            out.append((math.inf, name, a, b, unit, "only in one run"))
            continue
        if a == b:
            rel = 0.0
        else:
            rel = (b - a) / abs(a) if a else math.inf
        verdict = ""
        if b != a and name in better:
            higher_is_better = better[name] == "higher"
            verdict = "better" if (b > a) == higher_is_better else "worse"
        out.append((abs(rel), name, a, b, unit, verdict))
    out.sort(key=lambda r: (-r[0], r[1]))
    return out


def fmt(value):
    return "-" if value is None else "%.6g" % value


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("before")
    ap.add_argument("after")
    args = ap.parse_args()
    table = rows(load(args.before), load(args.after), directions())
    print("%-40s %14s %14s %9s  %s" % ("metric", "before", "after", "change", ""))
    for _, name, a, b, unit, verdict in table:
        if b is None:
            change = "gone"
        elif a == b:
            change = "0"
        elif not a:
            change = "new"
        else:
            change = "%+8.1f%%" % (100 * (b - a) / abs(a))
        print("%-40s %14s %14s %9s  %s %s"
              % (name, fmt(a), fmt(b), change, unit, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
