"""Serving half of a workload: stock CLI server, seeded probes, open loop.

``serve_unique`` drives one ``python -m repro.serving serve`` process with
probes that are all distinct (the response cache never hits); ``fleet_hot``
drives ``python -m repro.serving fleet`` with a small Zipf-skewed hot set
spread over several tagged models (shard caches hit).  Both use the CLI's
default ``ServingConfig``.  Every reply is checked bit for bit against a
direct ``predict_vector`` (and ``reconstruct().sample()``) call on the model
the server loaded from the same registry.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import groups
import loadgen

HERE = Path(__file__).resolve().parent

#: Probe size: runs per seeded subset of a roster campaign.
PROBE_RUNS = 10
#: Draws requested by the requests that ask for samples.
N_DRAWS = 100
#: The ``max_rps_slo`` search: climb or descend from the high rate by the
#: coarse step, then bisect until the bracket is within the fine step, in at
#: most this many rungs.
COARSE_STEP, FINE_STEP, MAX_RUNGS = 1.5, 1.1, 4
#: A phase whose p99 generator lateness exceeds this is invalid, not fast.
LATE_LIMIT_MS = 20.0
#: A server that has not printed its address by then fails the run.
READY_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Plan:
    """Fixed traffic of one serving workload.

    Rates are offered requests per second.  ``low_rate`` leaves requests
    mostly alone.  ``high_rate`` is 70% of the lowest ``max_rps_slo`` the
    traced runs measured when the benchmark was written (``baseline.json``):
    the host's speed drifts, so capacity moves by 2x between runs, and at
    70% of its slow-phase value the server queues but still keeps up, so
    the checked high phase does not fail from drift alone.  ``slo_ms`` is
    the p99 limit the ladder tests each rung against.
    """

    cli: str
    tags: tuple  # (tag, model, representation); "default" is the CLI's own
    hot_set: int  # 0: every probe distinct; else Zipf over this many items
    low_rate: float
    high_rate: float
    slo_ms: float


PLANS = {
    "serve_unique": Plan(
        cli="serve",
        tags=(("default", "knn", "pearsonrnd"),),
        hot_set=0,
        low_rate=25.0,
        high_rate=155.0,
        slo_ms=250.0,
    ),
    "fleet_hot": Plan(
        cli="fleet",
        tags=(
            ("default", "knn", "pearsonrnd"),
            ("knn-hist", "knn", "histogram"),
            ("rf-hist", "rf", "histogram"),
        ),
        hot_set=24,
        low_rate=100.0,
        high_rate=400.0,
        slo_ms=100.0,
    ),
}


def campaigns():
    """The roster campaigns the CLI trains on (its defaults: intel, 300 runs)."""
    from repro.simbench import measure_all

    return measure_all("intel", n_runs=300)


def fit_and_save(plan: Plan, camps, root: Path) -> None:
    """Fit and tag every model of *plan* into the registry at *root*."""
    from repro.core.config import PredictConfig
    from repro.core.predictors import FewRunsPredictor
    from repro.serving.registry import ModelRegistry

    registry = ModelRegistry(root)
    for tag, model, rep in plan.tags:
        predictor = FewRunsPredictor.from_config(
            PredictConfig(model=model, representation=rep)
        ).fit(camps)
        registry.save(predictor, name=tag)


class Server:
    """One stock CLI server process group, started and stopped cleanly."""

    def __init__(self, plan: Plan, root: Path, workdir: Path, *, spans_out=None):
        # The CLI prints its address without flushing; unbuffered output
        # lets the ready line through a pipe.
        env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"), PYTHONUNBUFFERED="1")
        cli = [plan.cli, "--root", str(root), "--tag", "default", "--port", "0"]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.serving", *cli]
        else:
            cmd = [sys.executable, str(HERE / "launch_server.py"), str(spans_out), *cli]
        self.proc = subprocess.Popen(
            cmd, cwd=workdir, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self.port = None
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        if not self._ready.wait(READY_TIMEOUT_S) or self.port is None:
            self.stop()
            raise RuntimeError(f"{plan.cli} did not become ready")

    def _read_stdout(self) -> None:
        """Take the port from the CLI's ready line; drain stdout to its end."""
        for line in self.proc.stdout:
            if self.port is None and " on 127.0.0.1:" in line:
                self.port = int(line.rsplit("127.0.0.1:", 1)[1].split()[0])
                self._ready.set()
        self._ready.set()

    def request(self, body: dict) -> dict:
        """One synchronous request on its own connection."""
        from repro.serving.server import ServingClient

        with ServingClient("127.0.0.1", self.port, timeout_s=30.0) as client:
            return client.request(body)

    def cpu_s(self) -> float:
        """CPU seconds used so far by the server's process group."""
        total = 0
        for pid in groups.group_pids(self.proc.pid):
            try:
                fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue
            total += int(fields[11]) + int(fields[12])  # utime + stime
        return total / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """Sum of peak resident sets over the server's process group."""
        total = 0.0
        for pid in groups.group_pids(self.proc.pid):
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
        return total

    def stop(self) -> None:
        """Ctrl-C the CLI, wait for its whole process group to end."""
        groups.stop_group(self.proc, signal.SIGINT)
        self._reader.join()
        self.proc.stdout.close()


class Traffic:
    """Seeded request stream of one workload, with its direct answers."""

    def __init__(self, plan: Plan, camps, root: Path, seed: int):
        from repro.serving.registry import ModelRegistry

        self.plan = plan
        self.camps = camps
        self.names = sorted(camps)
        self.seed = seed
        registry = ModelRegistry(root)
        self.models = {tag: registry.load(tag) for tag, _m, _r in plan.tags}
        self._expected: dict = {}
        if plan.hot_set:
            rng = np.random.default_rng([seed, 0])
            self.items = [self._item(rng, k, k) for k in range(plan.hot_set)]
            weights = 1.0 / np.arange(1, plan.hot_set + 1) ** 1.2
            self.weights = weights / weights.sum()

    def _item(self, rng, slot: int, key):
        """One request: a seeded probe; its kind, draws and tag by *slot*.

        The mix is fixed by position, not drawn: one request in four carries
        a percentile-only sketch and one in four asks for draws.  Sketch
        requests take about twice as long as sample ones; a random or even
        mix would put the median in the gap between the two and move it from
        seed to seed.
        """
        from repro.core.sketch import SampleProbe, SketchProbe

        camp = self.camps[self.names[rng.integers(len(self.names))]]
        subset = camp.sample_runs(PROBE_RUNS, rng)
        probe = SketchProbe.from_campaign(subset) if slot % 4 == 1 else SampleProbe(subset)
        n_samples = N_DRAWS if slot % 8 in (2, 5) else 0
        tag = self.plan.tags[slot % len(self.plan.tags)][0]
        return (tag, probe, n_samples, int(rng.integers(2**31)), key)

    def phase(self, index: int, n: int, id_base: int, *, cycle: bool = False):
        """Request lines (ids ``id_base + i``) and items of phase *index*.

        With *cycle*, a hot set is sent in rank order, round and round.
        """
        from repro.serving.protocol import predict_request

        rng = np.random.default_rng([self.seed, 1, index])
        if self.plan.hot_set:
            picks = (
                np.arange(n) % self.plan.hot_set
                if cycle
                else rng.choice(self.plan.hot_set, size=n, p=self.weights)
            )
            items = [self.items[k] for k in picks]
        else:
            items = [self._item(rng, i, None) for i in range(n)]
        lines = [
            (json.dumps(predict_request(tag, probe, n_samples=ns, sample_seed=ss,
                                        request_id=id_base + i)) + "\n").encode()
            for i, (tag, probe, ns, ss, _k) in enumerate(items)
        ]
        return lines, items

    def expected(self, item):
        """Direct (vector, draws) for one request item."""
        key = item[4]
        if key is not None and key in self._expected:
            return self._expected[key]
        tag, probe, n_samples, sample_seed, _k = item
        predictor = self.models[tag]
        vector = predictor.predict_vector(probe)
        draws = None
        if n_samples:
            draws = predictor.representation.reconstruct(
                np.asarray(vector, dtype=np.float64)
            ).sample(n_samples, rng=np.random.default_rng(sample_seed))
        if key is not None:
            self._expected[key] = (vector, draws)
        return vector, draws


def check_replies(traffic: Traffic, items, result: loadgen.PhaseResult) -> dict:
    """Mark each reply good or not; count failures and output mismatches."""
    from repro.serving.protocol import decode_array

    statuses: dict = {}
    good = np.zeros(result.n, dtype=bool)
    failed = mismatched = 0
    for i, (item, reply) in enumerate(zip(items, result.replies)):
        status = "dropped" if reply is None else reply.get("status")
        if status != 200:
            failed += 1
            statuses[str(status)] = statuses.get(str(status), 0) + 1
            continue
        vector, draws = traffic.expected(item)
        ok = np.array_equal(np.asarray(reply["vector"], dtype=np.float64), vector)
        if draws is not None:
            ok = ok and "samples" in reply and np.array_equal(
                decode_array(reply["samples"]), draws
            )
        good[i] = ok
        mismatched += not ok
    return {"failed": failed, "mismatched": mismatched, "statuses": statuses,
            "good": good}


def summarize(result: loadgen.PhaseResult, slo_ms: float, late_limit_ms: float,
              check: dict) -> dict:
    """Latency percentiles (by the >=10-beyond rule), misses, lateness.

    A failed, refused or wrong reply misses any limit: its latency counts as
    infinite.
    """
    n = result.n
    lat_ms = np.where(check["good"], result.latencies_s() * 1e3, np.inf)
    late_ms = result.lateness_s()[np.isfinite(result.sent)] * 1e3
    q99 = loadgen.supported_percentile(n, 99.0)
    q90 = loadgen.supported_percentile(n, 90.0)
    misses = int(np.sum(lat_ms > slo_ms))
    answered = np.isfinite(result.recv)
    last_reply = float(np.max(result.recv[answered])) if answered.any() else np.inf
    drain_ms = (last_reply - float(result.due[-1])) * 1e3
    late_p99 = loadgen.percentile(late_ms, loadgen.supported_percentile(late_ms.size, 99.0))
    return {
        "rate": result.rate,
        "n": n,
        "failed": check["failed"] + check["mismatched"],
        "p50_ms": loadgen.percentile(lat_ms, 50.0),
        "p90_ms": loadgen.percentile(lat_ms, q90),
        "p99_ms": loadgen.percentile(lat_ms, q99),
        "q90": q90,
        "q99": q99,
        "misses": misses,
        "late_p99_ms": late_p99,
        "drain_ms": drain_ms,
        "generator_ok": bool(late_p99 <= late_limit_ms),
        "meets_slo": bool(misses <= 0.01 * n and drain_ms <= slo_ms
                          and late_p99 <= late_limit_ms),
        "statuses": check["statuses"],
        "mismatched": check["mismatched"],
    }


def run_phase(server: Server, traffic: Traffic, index: int, rate: float, n: int,
              *, cycle: bool = False):
    """One open-loop phase at *rate*; ids of phase *index* never repeat."""
    id_base = index * 1_000_000
    lines, items = traffic.phase(index, n, id_base, cycle=cycle)
    due = loadgen.poisson_offsets(rate, n, [traffic.seed, 2, index])
    result = loadgen.run_phase(
        "127.0.0.1", server.port, lines, due, rate=rate,
        n_conns=len(os.sched_getaffinity(0)), id_base=id_base,
    )
    return result, items, id_base
