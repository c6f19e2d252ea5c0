#!/usr/bin/env python3
"""The benchmark's own tests: every workload at a tiny size, and the gates.

    python3 perfbench/test_bench.py

Builds the benchmark binary like run.py does, then checks that each workload emits
every end-to-end metric (untraced) and every per-layer metric of its
layers (traced) with the units BENCHMARK.json gives, and that a run
fails without reporting numbers when the default-seed digest is wrong or
when rt bodies are truncated. Takes about half a minute.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

SIM_LAYERS = [
    "testbed.fleet_build_ms", "testbed.plan_ms", "testbed.merge_ms",
    "sim.events_per_transfer", "sim.reschedules_per_transfer",
    "sim.cancels_per_transfer", "sim.ns_per_event",
    "flow.reallocs_per_transfer", "flow.flows_touched_per_realloc",
    "flow.maxmin_rounds_per_realloc", "flow.timer_rearms_per_transfer",
    "flow.skipped_per_transfer", "overlay.transfers_started_per_transfer",
    "core.races_per_transfer", "core.probe_failures", "core.retries",
    "core.indirect_frac", "obs.trace_overhead",
]
RT_LAYERS = [
    "origin.cpu_ms_per_op", "relay.cpu_ms_per_op", "client.cpu_ms_per_op",
    "reactor.polls_per_op", "reactor.dispatches_per_op",
    "reactor.timers_per_op",
] + ["reactor.%s.%s_per_op" % (role, what)
     for role in ("origin", "relay", "client")
     for what in ("polls", "dispatches", "timers")] + [
    "relay.upstream_connects_per_op", "relay.requests_parsed_per_op",
    "relay.bytes_forwarded_per_op", "relay.forward_chunk_p50_bytes",
    "origin.requests_per_op", "origin.response_bytes_per_op",
    "hop.relay_parse_us_p50", "hop.relay_upstream_connect_us_p50",
    "hop.relay_first_byte_us_p50", "hop.origin_parse_us_p50",
    "hop.origin_stream_ms_p50", "client.self_ms_p50", "obs.trace_overhead",
]
LAYERS = {
    "sim_sparse": SIM_LAYERS,
    "sim_dense": SIM_LAYERS,
    "rt_race": RT_LAYERS + [
        "race.probe_ms_p50", "race.remainder_ms_p50", "race.indirect_frac",
        "race.retries_per_op", "race.lanes_failed",
        # from the traced run's bulk loop
        "fetch.first_byte_ms_p50", "fetch.stream_ms_p50",
        "relay.relayed_over_direct", "hop.relay_stream_ms_p50"],
}


def run_binary(*args):
    """Runs the built binary directly; returns (exit code, raw result)."""
    proc = subprocess.run([BINARY, "--tiny", "--seconds", "1", *args],
                          stdout=subprocess.PIPE, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def bench(*args):
    """Runs run.py; returns (exit code, final result line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--tiny",
         "--seconds", "1", *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class Workloads(unittest.TestCase):
    def test_end_to_end_metrics(self):
        for workload in LAYERS:
            with self.subTest(workload=workload):
                code, res = bench("--workload", workload, "--seed", "5",
                                  "--trace", "0")
                self.assertEqual(code, 0)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertGreaterEqual(res["attempted"], 100)
                self.assertEqual([m["name"] for m in SPEC["end_to_end"]],
                                 list(res["metrics"]))
                for name, m in res["metrics"].items():
                    self.assertEqual(m["unit"], UNITS[name])
                    self.assertGreater(m["value"], 0, name)

    def test_layer_metrics(self):
        for workload, names in LAYERS.items():
            with self.subTest(workload=workload):
                code, raw = run_binary("--workload", workload, "--seed", "5",
                                   "--trace", "1")
                self.assertEqual(code, 0, raw["errors"])
                for name in names:
                    self.assertIn(name, raw["metrics"])
                    self.assertEqual(raw["metrics"][name]["unit"], UNITS[name])
                for name in raw["metrics"]:
                    self.assertIn(name, UNITS)
                for key in ("start", "end"):
                    health = raw["host_health"][key]
                    self.assertEqual(set(health), {"t", "tcp_time_wait",
                                                   "loadavg", "steal_ticks"})

    def test_traced_result_lists_every_layer(self):
        code, res = bench("--workload", "rt_race", "--seed", "9", "--trace", "1")
        self.assertEqual(code, 0)
        self.assertEqual([m["name"] for m in SPEC["per_layer"]],
                         list(res["metrics"]))


class Gates(unittest.TestCase):
    def test_wrong_expected_digest_fails_the_run(self):
        code, res = bench("--workload", "sim_sparse", "--seed", "5",
                          "--trace", "0", "--expect-digest", "0123456789abcdef")
        self.assertNotEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertEqual(res["metrics"], {})

    def test_truncated_rt_bodies_fail_the_run(self):
        # Relayed bodies are cut after 4 KiB: races still win over the
        # direct lane, but every relayed bulk fetch of the traced run fails.
        code, raw = run_binary("--workload", "rt_race", "--seed", "5",
                           "--trace", "1", "--fault-truncate")
        self.assertNotEqual(code, 0)
        self.assertFalse(raw["correct"])
        self.assertTrue(any("bulk relayed op failed" in e for e in raw["errors"]),
                        raw["errors"])
        self.assertEqual(raw["metrics"], {})
        code, res = bench("--workload", "rt_race", "--seed", "5", "--trace", "1",
                          "--fault-truncate")
        self.assertNotEqual(code, 0)
        self.assertEqual(res["metrics"], {})

    def test_quantile_needs_ten_samples_beyond_it(self):
        # A 10 ms window cannot give 100 races: the p90 must be refused,
        # not reported.
        proc = subprocess.run(
            [BINARY, "--workload", "rt_race", "--seed", "5", "--seconds",
             "0.01", "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=170)
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertNotEqual(proc.returncode, 0)
        self.assertTrue(any(e.startswith("op_p90_ms") for e in raw["errors"]),
                        raw["errors"])
        self.assertEqual(raw["metrics"], {})


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
