"""Self-tests for the benchmark harness (no repro model, a stub server).

Run from the repository root::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import loadgen  # noqa: E402
import serving  # noqa: E402
import spans  # noqa: E402


class StubServer:
    """JSONL server whose reply depends on the request id modulo 5.

    0: status 429; 1: a correct vector; 2: no reply at all; 3: a wrong
    vector; 4: status 503.  The correct vector of request ``i`` is ``[i]``.
    """

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        async def handle(reader, writer):
            while line := await reader.readline():
                rid = json.loads(line)["id"]
                kind = rid % 5
                if kind == 2:
                    continue
                body = {"id": rid, "status": {0: 429, 4: 503}.get(kind, 200)}
                if body["status"] == 200:
                    body["vector"] = [float(rid) + (0.5 if kind == 3 else 0.0)]
                writer.write((json.dumps(body) + "\n").encode())
                await writer.drain()
            writer.close()

        def run():
            asyncio.set_event_loop(self.loop)
            self.server = self.loop.run_until_complete(
                asyncio.start_server(handle, "127.0.0.1", 0)
            )
            self.port = self.server.sockets[0].getsockname()[1]
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        started.wait()

    def close(self):
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)


class FakeTraffic:
    """Stands in for :class:`serving.Traffic`: item ``i`` expects ``[i]``."""

    def expected(self, item):
        return np.array([float(item)]), None


class HarnessTests(unittest.TestCase):
    def test_percentile_rule_keeps_ten_samples_beyond(self):
        self.assertEqual(loadgen.supported_percentile(1000, 99.0), 99.0)
        self.assertEqual(loadgen.supported_percentile(100, 99.0), 90.0)
        self.assertEqual(loadgen.supported_percentile(100, 90.0), 90.0)
        self.assertEqual(loadgen.supported_percentile(200, 99.0), 95.0)
        self.assertEqual(loadgen.supported_percentile(10, 99.0), 50.0)
        self.assertTrue(math.isnan(loadgen.supported_percentile(0, 99.0)))
        self.assertEqual(loadgen.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50.0), 3.0)
        self.assertEqual(loadgen.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90.0), 4.6)
        self.assertEqual(loadgen.percentile([1.0, 2.0, math.inf], 90.0), math.inf)
        self.assertEqual(loadgen.percentile([1.0, 2.0, math.inf], 25.0), 1.5)
        for n in (11, 57, 100, 999, 4000):
            q = loadgen.supported_percentile(n, 99.0)
            self.assertGreaterEqual(n * (1 - q / 100.0), 10 - 1e-9)

    def test_self_time_subtracts_the_union_of_children(self):
        rows = [
            (1, 0, "parent", 0.0, 10.0, {}),
            (2, 1, "a", 2.0, 4.0, {}),
            (3, 1, "b", 3.0, 6.0, {}),  # overlaps a
            (4, 1, "c", 8.0, 12.0, {}),  # runs past the parent's end
            (5, 2, "grandchild", 2.5, 3.0, {}),
        ]
        own = spans.self_times(rows)
        self.assertAlmostEqual(own[1], 10.0 - (6.0 - 2.0) - (10.0 - 8.0))
        self.assertAlmostEqual(own[2], 2.0 - 0.5)
        self.assertAlmostEqual(own[4], 4.0)
        self.assertAlmostEqual(own[5], 0.5)

    def test_wrapped_calls_nest_and_carry_across_threads(self):
        class Box:
            def outer(self):
                return self.inner()

            def inner(self):
                return 1

        class Work:
            def start(self):
                return object()

            def finish(self, token):
                return None

        before = len(spans.SPANS)
        spans.wrap(Box, "outer", "outer")
        spans.wrap(Box, "inner", "inner")
        Box().outer()
        (i_id, i_parent, *_), (o_id, o_parent, *_) = spans.SPANS[before:]
        self.assertEqual((i_parent, o_parent), (o_id, 0))

        # A result handed to another thread carries the span it was made
        # under; the carrying link is used once.
        class Request:
            def submit(self, work):
                return work.start()

        spans.wrap(Request, "submit", "submit")
        spans.wrap(Work, "start", "start", carrier=lambda a: None)
        spans.wrap(Work, "finish", "finish", carrier=lambda a: a[1])
        work = Work()
        token = Request().submit(work)
        submit_id = spans.SPANS[-1][0]
        t = threading.Thread(target=work.finish, args=(token,))
        t.start()
        t.join(timeout=10)
        start, submit, finish = spans.SPANS[-3:]
        self.assertEqual((start[2], submit[2], finish[2]), ("start", "submit", "finish"))
        self.assertEqual((start[1], finish[1]), (submit_id, submit_id))
        work.finish(token)
        self.assertEqual(spans.SPANS[-1][1], 0)

    def test_schedule_is_a_function_of_the_seed(self):
        a = loadgen.poisson_offsets(200.0, 500, [7, 2, 1])
        b = loadgen.poisson_offsets(200.0, 500, [7, 2, 1])
        c = loadgen.poisson_offsets(200.0, 500, [8, 2, 1])
        np.testing.assert_array_equal(a, b)
        self.assertFalse(np.array_equal(a, c))
        self.assertEqual(a[0], 0.0)
        self.assertTrue(np.all(np.diff(a) >= 0))
        self.assertAlmostEqual(a[-1] / 499, 1 / 200.0, delta=0.2 / 200.0)

    def test_every_failure_counts_against_attempts(self):
        stub = StubServer()
        try:
            n, base = 50, 3_000_000
            lines = [(json.dumps({"id": base + i}) + "\n").encode() for i in range(n)]
            due = loadgen.poisson_offsets(500.0, n, [1])
            result = loadgen.run_phase(
                "127.0.0.1", stub.port, lines, due, rate=500.0, n_conns=2,
                timeout_s=0.5, id_base=base,
            )
        finally:
            stub.close()
        items = [base + i for i in range(n)]
        check = serving.check_replies(FakeTraffic(), items, result)
        self.assertEqual(result.dropped, 10)
        self.assertEqual(check["failed"], 30)
        self.assertEqual(check["statuses"], {"429": 10, "503": 10, "dropped": 10})
        self.assertEqual(check["mismatched"], 10)
        summary = serving.summarize(result, slo_ms=1e9, late_limit_ms=1e9, check=check)
        self.assertEqual(summary["failed"], 40)
        self.assertEqual(summary["misses"], 40)  # failures miss any limit
        self.assertFalse(summary["meets_slo"])

    def test_bare_checkout_fails_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload",
                 "fig4_exact.serve_unique", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60,
                env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
