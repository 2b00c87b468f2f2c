#!/usr/bin/env python3
"""Self-test of the benchmark's parsing and checks (no build, no cluster):

    python3 ecbench/selftest.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

E2E = {"p99_us": True}
UNITS = {"p99_us": "us"}


def binary_output(*records):
    return ["# host: nproc=4", "metric p99_us 367.25 us 1200",
            "check thr-open.0.safety ok SafetyMonitor violations",
            "count 1200 0"] + list(records)


class ParsingTest(unittest.TestCase):
    def test_metric_line_round_trip(self):
        value = 367.25000000000006
        line = run.format_metric_line("p99_us", value, "us", 1200)
        parsed = run.parse_lines([line])
        self.assertEqual(parsed["metrics"]["p99_us"], (value, "us", 1200))

    def test_binary_format_parses(self):
        # EmitMetric prints %.17g; every double survives the trip exactly.
        parsed = run.parse_lines(["metric setup_s 0.02574519700000001 s 10"])
        self.assertEqual(parsed["metrics"]["setup_s"][0], 0.02574519700000001)

    def test_clean_run_is_correct(self):
        parsed = run.parse_lines(binary_output(
            "ledger thr-open.0 offered=10 committed=8 rejected=1 taborted=1"))
        failures = run.verify(parsed, E2E, {})
        self.assertEqual(failures, [])
        res = run.result(parsed, E2E, UNITS, failures)
        self.assertEqual(res, {"correct": True, "attempted": 1200,
                               "failed": 0,
                               "metrics": {"p99_us": {"value": 367.25,
                                                      "unit": "us"}}})


class CheckTest(unittest.TestCase):
    def test_conservation_violation_fails_the_run(self):
        parsed = run.parse_lines(binary_output(
            "ledger sock-open.3 offered=10 committed=8 rejected=1 taborted=0"))
        failures = run.verify(parsed, E2E, {})
        self.assertEqual(len(failures), 1)
        self.assertIn("conservation violated in sock-open.3", failures[0])
        self.assertFalse(run.result(parsed, E2E, UNITS, failures)["correct"])

    def test_failed_check_fails_the_run(self):
        parsed = run.parse_lines(binary_output(
            "check sock-open.0.overflow_drops fail 3"))
        self.assertEqual(run.verify(parsed, E2E, {}),
                         ["check sock-open.0.overflow_drops failed: 3"])

    def test_golden_mismatch_fails_the_run(self):
        parsed = run.parse_lines(binary_output("golden 7 EC.commits 15056"))
        self.assertEqual(run.verify(parsed, E2E, {"7": {"EC.commits": 15056}}),
                         [])
        self.assertEqual(len(run.verify(
            parsed, E2E, {"7": {"EC.commits": 15057}})), 1)

    def test_missing_or_zero_metric_fails_the_run(self):
        parsed = run.parse_lines(["count 5 0"])
        self.assertEqual(run.verify(parsed, E2E, {}), ["metric p99_us missing"])
        parsed = run.parse_lines(["count 5 0", "metric p99_us 0 us 5"])
        self.assertEqual(len(run.verify(parsed, E2E, {})), 1)


if __name__ == "__main__":
    unittest.main()
