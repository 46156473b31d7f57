"""Open-loop load generator: a seeded Poisson schedule over pipelined sockets.

One process, one asyncio thread, at most ``n_conns`` connections.  Each
request line carries its own ``id``; replies are matched by id after the
phase, so the receive path only stamps arrival times.  Latency runs from
the moment a request was *due*, not from when it left, so a stalled
generator or server charges its delay to every request queued behind it.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

#: Percentiles are reported only where at least this many samples lie beyond.
TAIL_SAMPLES = 10


def poisson_offsets(rate: float, n: int, seed: int) -> np.ndarray:
    """Due times (s from phase start) of *n* Poisson arrivals at *rate*/s."""
    gaps = np.random.default_rng(seed).exponential(1.0 / rate, size=n)
    return np.cumsum(gaps) - gaps[0]


def supported_percentile(n: int, wanted: float) -> float:
    """*wanted*, lowered to the highest percentile with >= 10 samples beyond it."""
    if n <= TAIL_SAMPLES:
        return 50.0 if n else math.nan
    return min(wanted, 100.0 * (1.0 - TAIL_SAMPLES / n))


def percentile(values, q: float) -> float:
    """Percentile *q* of *values* (NumPy's linear rule); nan when empty.

    Infinite values (requests that never got a good reply) sort last; a
    percentile that falls among them is infinite.
    """
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if not arr.size:
        return math.nan
    pos = (arr.size - 1) * q / 100.0
    lo, hi = arr[int(math.floor(pos))], arr[int(math.ceil(pos))]
    if math.isinf(hi):
        return math.inf
    return float(lo + (hi - lo) * (pos - math.floor(pos)))


@dataclass
class PhaseResult:
    """What one open-loop phase sent, got back, and how late it ran."""

    rate: float
    due: np.ndarray
    sent: np.ndarray
    recv: np.ndarray
    replies: list = field(repr=False)
    dropped: int = 0

    @property
    def n(self) -> int:
        """Requests attempted."""
        return len(self.due)

    def latencies_s(self) -> np.ndarray:
        """Due-to-reply seconds per request; inf where no reply came."""
        return self.recv - self.due

    def lateness_s(self) -> np.ndarray:
        """How late each request left the generator."""
        return self.sent - self.due


async def _run_phase(host, port, lines, due, n_conns, timeout_s, id_base):
    n = len(lines)
    conns = [
        await asyncio.open_connection(host, port, limit=64 * 1024 * 1024)
        for _ in range(n_conns)
    ]
    sent = np.full(n, np.nan)
    recv = np.full(n, np.inf)
    replies: list = [None] * n
    raw: list = []
    outstanding = closed = 0
    sending_over = asyncio.Event()
    done = asyncio.Event()

    async def reader(r):
        nonlocal outstanding, closed
        try:
            while line := await r.readline():
                raw.append((time.perf_counter(), line))
                outstanding -= 1
                if outstanding == 0 and sending_over.is_set():
                    done.set()
        except (ConnectionError, OSError):
            pass
        closed += 1
        if closed == n_conns:
            done.set()

    readers = [asyncio.ensure_future(reader(r)) for r, _ in conns]
    t0 = time.perf_counter() + 0.01
    try:
        for i in range(n):
            wait = t0 + due[i] - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            w = conns[i % n_conns][1]
            outstanding += 1
            w.write(lines[i])
            sent[i] = time.perf_counter() - t0
            if w.transport.get_write_buffer_size() > 1 << 20:
                await w.drain()
        sending_over.set()
        if outstanding > 0:
            try:
                await asyncio.wait_for(done.wait(), timeout_s)
            except asyncio.TimeoutError:
                pass
    finally:
        for _, w in conns:
            w.close()
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _, w in conns:
            try:
                await w.wait_closed()
            except (ConnectionError, OSError):
                pass
    for t, line in raw:
        try:
            body = json.loads(line)
        except ValueError:
            continue  # an unreadable reply answers nothing: its request drops
        rid = body.get("id") if isinstance(body, dict) else None
        rid = rid - id_base if isinstance(rid, int) else -1
        if 0 <= rid < n and replies[rid] is None:
            replies[rid] = body
            recv[rid] = t - t0
    return sent, recv, replies


def run_phase(
    host, port, lines, due, *, rate, n_conns, timeout_s=10.0, id_base=0
) -> PhaseResult:
    """Send ``lines[i]`` at ``due[i]``; line *i* carries id ``id_base + i``."""
    sent, recv, replies = asyncio.run(
        _run_phase(host, port, lines, np.asarray(due), n_conns, timeout_s, id_base)
    )
    dropped = sum(1 for r in replies if r is None)
    return PhaseResult(rate, np.asarray(due), sent, recv, replies, dropped)
