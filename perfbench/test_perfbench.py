"""Self-tests of the benchmark's own code.

    python3 perfbench/test_perfbench.py

PERFBENCH_INTEGRATION=1 also runs a serving workload end to end on two
seeds (it builds the binaries first, from the repository root)."""

import math
import os
import subprocess
import sys
import unittest

import serving
import stats
import sweeps


class PercentileRule(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        hundred = list(range(1, 101))
        self.assertEqual(stats.percentile(hundred, 50), 50)
        self.assertEqual(stats.percentile(hundred, 90), 90)  # exactly 10 beyond
        self.assertIsNone(stats.percentile(hundred, 95))  # only 5 beyond
        self.assertEqual(stats.percentile(list(range(200)), 95), 189)
        self.assertIsNone(stats.percentile(list(range(999)), 99))
        self.assertEqual(stats.percentile(list(range(1000)), 99), 989)
        self.assertIsNone(stats.percentile([], 50))

    def test_summary_carries_the_sample_count(self):
        s = stats.latency_summary([1.0] * 30)
        self.assertEqual(s["n"], 30)
        self.assertEqual(s["p50"], 1.0)
        self.assertIsNone(s["p95"])


class SelfTime(unittest.TestCase):
    @staticmethod
    def span(id_, parent, start, end):
        return {"id": id_, "parent": parent, "start_ns": start, "end_ns": end}

    def test_span_minus_union_of_children(self):
        spans = [
            self.span(1, 0, 0, 100),
            self.span(2, 1, 10, 30),
            self.span(3, 1, 20, 50),  # overlaps its sibling: counted once
            self.span(4, 1, 90, 120),  # overhangs the parent: clipped
            self.span(5, 3, 25, 45),  # a grandchild: only its parent loses it
        ]
        selfs = stats.self_times(spans)
        self.assertEqual(selfs[1], 100 - 40 - 10)
        self.assertEqual(selfs[2], 20)
        self.assertEqual(selfs[3], 30 - 20)
        self.assertEqual(selfs[5], 20)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(stats.self_times([self.span(7, 0, 5, 12)]), {7: 7})


class FailureAsMiss(unittest.TestCase):
    @staticmethod
    def result(line, resp, ms):
        return (line, resp, 0.0, ms / 1000.0)

    def test_failed_requests_count_and_miss_every_percentile(self):
        ok = '{"id":1,"row":0,"candidates":[],"n":0,"us":5}'
        shed = '{"id":1,"error":"shed","detail":"admission queue full","retry_after_ms":50}'
        lookup = serving.lookup_line(1, 0)
        results = [[self.result(lookup, ok, 10.0)] * 14 + [self.result(lookup, shed, 1.0)] * 16]
        s = serving.summarize(results, 1.0, 1.0)
        self.assertEqual((s["attempted"], s["failed"], s["served"]), (30, 16, 14))
        # Most requests failed: the median is a miss, not the fast shed
        # reply, so no finite median exists.
        self.assertIsNone(s["lookup"]["p50"])
        self.assertEqual(s["lookup"]["n"], 30)
        self.assertEqual(s["rows_per_s"], 14.0)

    def test_a_dropped_connection_and_a_refused_update_are_failures(self):
        upsert = '{"op":"upsert","id":2,"row":4,"text":"a b"}'
        self.assertFalse(serving.succeeded(serving.lookup_line(1, 0), ""))
        self.assertFalse(serving.succeeded(upsert, '{"id":2,"error":"wrong-shard"}'))
        self.assertTrue(serving.succeeded(upsert, '{"id":2,"op":"upsert","row":4,"ok":true}'))

    def test_miss_sorts_after_every_measurement(self):
        self.assertEqual(stats.percentile([1.0] * 10 + [stats.MISS] * 30, 50), math.inf)


class Streams(unittest.TestCase):
    TEXTS = [f"word{i} other{i % 7} common" for i in range(100)]

    def test_same_seed_same_requests_and_upsert_texts(self):
        for conn in range(serving.CONNECTIONS):
            self.assertEqual(serving.read_stream(5, conn, 50, 300),
                             serving.read_stream(5, conn, 50, 300))
            self.assertEqual(serving.mixed_stream(5, conn, 50, self.TEXTS, 600),
                             serving.mixed_stream(5, conn, 50, self.TEXTS, 600))
        self.assertNotEqual(serving.mixed_stream(5, 0, 50, self.TEXTS, 600),
                            serving.mixed_stream(6, 0, 50, self.TEXTS, 600))
        self.assertNotEqual(serving.read_stream(5, 0, 50, 300),
                            serving.read_stream(5, 1, 50, 300))

    def test_mixed_stream_shape(self):
        import json
        n = 4000
        for conn in range(serving.CONNECTIONS):
            ops = [json.loads(line) for line in
                   serving.mixed_stream(9, conn, 50, self.TEXTS, n)]
            kinds = [op.get("op", "query") for op in ops]
            self.assertAlmostEqual(kinds.count("query") / n, 0.90, delta=0.03)
            self.assertAlmostEqual(kinds.count("upsert") / n, 0.08, delta=0.02)
            self.assertAlmostEqual(kinds.count("delete") / n, 0.02, delta=0.01)
            self.assertEqual(kinds.count("compact"), n // serving.COMPACT_EVERY)
            owned = {op["row"] for op in ops if op.get("op") in ("upsert", "delete")}
            self.assertTrue(all(row % serving.CONNECTIONS == conn for row in owned))
            self.assertEqual(len({op["id"] for op in ops}), n)


class Reports(unittest.TestCase):
    def test_only_the_run_time_section_is_dropped(self):
        report = "\n".join([
            "Table VII(b): precision (PQ)", "| SBW | 0.9 |", "",
            sweeps.RT_HEADER, "| SBW | 3 ms |", "",
            "Section VI analysis", "| SBW | 0 |",
        ])
        kept = sweeps.without_rt(report)
        self.assertNotIn("ms", kept)
        self.assertIn("| SBW | 0.9 |", kept)
        self.assertIn("Section VI analysis", kept)


@unittest.skipUnless(os.environ.get("PERFBENCH_INTEGRATION") == "1",
                     "set PERFBENCH_INTEGRATION=1 to run workloads end to end")
class SecondSeed(unittest.TestCase):
    def test_two_seeds_pass_every_gate(self):
        here = os.path.dirname(os.path.abspath(__file__))
        for seed in (1, 2):
            r = subprocess.run([sys.executable, os.path.join(here, "run.py"), "--workload",
                                "serve_direct_mixed", "--seed", str(seed), "--seconds", "3"],
                               cwd=os.path.dirname(here), capture_output=True, text=True)
            self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
            self.assertIn('"correct": true', r.stdout.splitlines()[-1])


if __name__ == "__main__":
    unittest.main()
