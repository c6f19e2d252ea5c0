#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports its run-to-run spread.

    python3 perfbench/repeat.py --runs 10 [--workload rt_race ...] [--seconds 10]

For each workload and end-to-end metric it prints the median of the runs
and the quartile spread (Q3 - Q1) / median, with quartiles as Python's
statistics.quantiles(values, n=4) gives them, next to the metric's bound
from BENCHMARK.json. It also prints the host-health drift across the set:
the loopback TIME_WAIT count, load and steal ticks at each run's start,
and the least-squares slope of ops_per_s against the TIME_WAIT count, so
a trend from socket exhaustion can be told apart from a code change.
--out writes every run's record as JSON lines.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    health = json.loads(lines[-2])["host_health"] if len(lines) >= 2 else None
    result = json.loads(lines[-1]) if lines else {"correct": False}
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "result": result, "host_health": health}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def slope(xs, ys):
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx if sxx else 0.0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    help="repeatable; default every workload")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--out", help="append every run record here (JSON lines)")
    args = ap.parse_args()

    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        records = []
        for i in range(args.runs):
            rec = run_once(workload, args.first_seed + i, args.seconds, 0)
            records.append(rec)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(rec) + "\n")
            if not rec["result"].get("correct"):
                print("%s seed %d: FAILED (exit %d)" % (workload, rec["seed"], rec["exit"]))
                ok = False
        good = [r for r in records if r["result"].get("correct")]
        if len(good) < 4:
            continue
        print("== %s: %d runs" % (workload, len(good)))
        for m in spec["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in good]
            med, rel = spread(vals)
            flag = "" if rel <= m["bound"] / 3 else ("  > bound/3" if rel <= m["bound"] else "  > BOUND")
            print("  %-14s median %12.5g %-5s spread %6.3f  bound %.2f%s"
                  % (m["name"], med, m["unit"], rel, m["bound"], flag))
        tw = [r["host_health"]["start"]["tcp_time_wait"] for r in good]
        ops = [r["result"]["metrics"]["ops_per_s"]["value"] for r in good]
        load = [r["host_health"]["start"]["loadavg"][0] for r in good]
        steal = [r["host_health"]["end"]["steal_ticks"] - r["host_health"]["start"]["steal_ticks"]
                 for r in good]
        print("  host: time_wait at start %s" % tw)
        print("        load1 at start %s" % load)
        print("        steal ticks per run %s" % steal)
        s = slope(tw, ops)
        print("  ops_per_s vs time_wait: slope %.3g per 1k sockets (%.2f%% of median per 1k)"
              % (s * 1000, 100 * s * 1000 / statistics.median(ops)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
