#!/usr/bin/env python3
"""Builds and runs the indiroute benchmark; prints one JSON result line.

    python3 perfbench/run.py --workload sim_sparse --seed 1 --seconds 10 --trace 0

The first run configures and builds perfbench/ (the library sources in
src/ plus the benchmark binary) into $CARGO_TARGET_DIR, default
.bench_build, at the checkout root; later runs rebuild only what changed.

The last stdout line is {"correct", "attempted", "failed", "metrics"}:
with --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. A per-layer metric a workload's path does
not cross (for example a relay hop on a sim workload) reads 0. The line
before it is the host-health record of the run. The exit code is 0 only
for a correct run with every metric present.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_sparse", "sim_dense", "rt_race")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no library sources at src/ beside perfbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def select(raw, names, fill_missing):
    """Picks `names` out of the binary's metrics; None if one is absent."""
    out = {}
    for name in names:
        if name in raw:
            out[name] = raw[name]
        elif fill_missing is not None:
            out[name] = {"value": 0, "unit": fill_missing[name]}
        else:
            log("metric %s missing from the run" % name)
            return None
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs (the benchmark's own tests)")
    ap.add_argument("--expect-digest", help="override the recorded sim digest")
    ap.add_argument("--fault-truncate", action="store_true",
                    help="truncate every body sent through a relay (gate test)")
    args = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        binary = build()
    except (OSError, ValueError, RuntimeError,
            subprocess.CalledProcessError) as e:
        log("cannot build the benchmark: %s" % e)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.expect_digest:
        cmd += ["--expect-digest", args.expect_digest]
    if args.fault_truncate:
        cmd.append("--fault-truncate")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("benchmark binary printed no result (exit %d)" % proc.returncode)
        return 1

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = select(raw["metrics"], names, units)
    else:
        metrics = select(raw["metrics"],
                         [m["name"] for m in spec["end_to_end"]], None)
    correct = bool(raw["correct"]) and proc.returncode == 0 and metrics is not None
    for err in raw.get("errors", []):
        log("gate: " + err)
    print(json.dumps({"host_health": raw.get("host_health")}))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
