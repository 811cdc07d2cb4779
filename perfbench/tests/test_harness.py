#!/usr/bin/env python3
"""Self-test of the benchmark harness (not of the library).

    python3 perfbench/tests/test_harness.py      # from the checkout root

1. Attribution: a fixed busy-wait injected into the broker's ingress
   decorator (--delay-ns) must raise lat_p50_us and the broker-frame
   segment (core.rx_frame_ns_p50) by about the delay, and leave every other
   timed layer where it was. All of these come from the traced run
   (--trace 1), which reports lat_p50_us from its untraced phase.
2. Failure accounting: one corrupted and one dropped delivery on the first
   subscriber (--corrupt-at / --drop-at) must each be counted as failed, mark
   the run incorrect and make it exit non-zero.
3. Trace join: broker spans labelled one event late (--span-shift 1) join
   each span to the wrong generator event; the traced run must find the
   negative segments and fail.

Runs are short and slow (--self-test: a few hundred events per second, no
rate ladder) so the injected delay cannot queue up behind itself.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOAD = "telemetry-small"
DELAY_US = 300.0
SELF_TEST = ["--self-test", "--setups", "1"]

# Timed per-layer segments that must not absorb the injected delay.
OTHER_LAYERS = [
    "transport.ingress_wait_us_p50",
    "transport.egress_wait_us_p50",
    "sub.rx_us_p50",
    "echo.publish_us_p50",
]


def run(trace, extra, seconds=3, expect_ok=True):
    cmd = [sys.executable, RUN, "--workload", WORKLOAD, "--seed", "7",
           "--seconds", str(seconds), "--trace", str(trace),
           "--extra"] + SELF_TEST + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError("no output from %s (exit %d)" % (cmd, proc.returncode))
    result = json.loads(lines[-1])
    if expect_ok and proc.returncode != 0:
        raise AssertionError("run failed (exit %d): %s" % (proc.returncode, lines[-1]))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return proc.returncode, result, metrics, proc.stdout


class Attribution(unittest.TestCase):
    def test_injected_delay_lands_in_one_layer(self):
        _, _, base, _ = run(1, [])
        _, _, slow, _ = run(1, ["--delay-ns", str(int(DELAY_US * 1000))])
        frame_delta_us = (slow["core.rx_frame_ns_p50"] - base["core.rx_frame_ns_p50"]) / 1000
        self.assertGreater(frame_delta_us, 0.8 * DELAY_US)
        self.assertLess(frame_delta_us, 1.3 * DELAY_US)
        for name in OTHER_LAYERS:
            self.assertLess(abs(slow[name] - base[name]), 0.2 * DELAY_US,
                            "%s moved: %.1f -> %.1f" % (name, base[name], slow[name]))
        lat_delta = slow["lat_p50_us"] - base["lat_p50_us"]
        self.assertGreater(lat_delta, 0.7 * DELAY_US)
        self.assertLess(lat_delta, 1.5 * DELAY_US)


class FailureAccounting(unittest.TestCase):
    def check_counted(self, flag):
        rc, result, _, _ = run(0, [flag, "100"], seconds=2, expect_ok=False)
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], result["failed"])

    def test_corrupted_delivery_is_a_failure(self):
        self.check_counted("--corrupt-at")

    def test_dropped_delivery_is_a_failure(self):
        self.check_counted("--drop-at")

    def test_clean_run_has_no_failures(self):
        rc, result, _, _ = run(0, [], seconds=2)
        self.assertEqual(rc, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)


class TraceJoin(unittest.TestCase):
    def test_misjoined_spans_fail_the_traced_run(self):
        rc, result, _, out = run(1, ["--span-shift", "1"], seconds=2, expect_ok=False)
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertRegex(out, r"FAILURE traced deliveries with a negative segment: [1-9]")

    def test_clean_traced_run_has_no_failures(self):
        rc, result, _, out = run(1, [], seconds=2)
        self.assertEqual(rc, 0)
        self.assertTrue(result["correct"])
        self.assertRegex(out, r" 0 with a negative segment")


if __name__ == "__main__":
    unittest.main()
