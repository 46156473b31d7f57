#!/usr/bin/env python3
"""The repository's benchmark: both paths, end to end, from outside.

Each workload pairs one Fig. 4 grid (the evaluation path) with one serving
traffic mix (the serving path):

* ``fig4_exact.serve_unique`` — the UC1 grid on the exact split search
  (pooled workers, shm plane), then ``python -m repro.serving serve`` under
  open-loop traffic whose probes are all distinct, so the response cache
  never hits;
* ``fig4_hist.fleet_hot`` — the same grid on the histogram kernel
  (hist-shm and lockstep planes), then ``python -m repro.serving fleet``
  under a Zipf-skewed hot set over three tagged models, so shard caches hit.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig4_exact.serve_unique --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` reruns the same
inputs with ``repro.obs`` on and span wrappers installed and prints the
per-layer metrics instead.  The last stdout line is one JSON object.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "fig4_exact.serve_unique": ("exact", "serve_unique"),
    "fig4_hist.fleet_hot": ("hist", "fleet_hot"),
}
#: Set-up is repeated this many times per run; ``setup_s`` takes the median.
SETUP_ROUNDS = 3
#: Share of ``--seconds`` in which grids are started (whole grids, at least
#: one; three at 40 s).
GRID_SHARE = 0.5
#: Requests per second of ``--seconds`` in the low phase (at least 300 at
#: 40 s: p90 with 30 samples beyond it) and in the high phase (at least 1000:
#: enough for p99) and in each ladder rung; faster rates get more, in a fixed
#: share of the time.
N_LOW, N_HIGH, N_RUNG = 7.5, 25.0, 7.5
LOW_SHARE, HIGH_SHARE, RUNG_SHARE = 0.15, 0.075, 0.03

#: End-to-end metrics of the JSON result (the ones a change is gated on).
#: ``server_cpu_ms`` is the CPU time the server's processes spend per request
#: in the low phase.
END_TO_END = {
    "grid_wall_s": "s",
    "server_cpu_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Latency metrics: printed, not in the JSON result.  On a small shared
#: machine their run-to-run spread is wider than any bound a gate could use:
#: a fleet request crosses four processes, each wake-up waits on the host,
#: and queueing amplifies every change in CPU speed.  The low-rate ones are
#: measured on every run; the loaded ones by the traced run, on an untraced
#: server.
PRINTED = {
    "p50_ms.low": "ms",
    "p90_ms.low": "ms",
    "p50_ms.high": "ms",
    "p99_ms.high": "ms",
    "max_rps_slo": "1/s",
}

PER_LAYER = {
    "engine.featurize_s": "s",
    "engine.fit_s.knn": "s",
    "engine.fit_s.rf": "s",
    "engine.fit_s.xgboost": "s",
    "engine.folds.fitted": "count",
    "score_s": "s",
    "parallel.cores_busy": "cores",
    "pool.worker_utilization": "ratio",
    "parallel.pool_start_s": "s",
    "fold_batch_s.shm": "s",
    "fold_batch_s.hist-shm": "s",
    "fold_batch_s.lockstep": "s",
    "pool.map.retries": "count",
    "parallel.shm_tracker_errors": "count",
    "binning_s": "s",
    "tree.fits": "count",
    "tree.nodes": "count",
    "protocol.encode_us": "us",
    "protocol.decode_us": "us",
    "protocol.fingerprint_us": "us",
    "registry.resolve_us": "us",
    "registry.load_us": "us",
    "predict.compute_us": "us",
    "predict.decode_us": "us",
    "service.self_us": "us",
    "service.batch_size_mean": "requests",
    "service.cache_hit_ratio": "ratio",
    "service.rejected": "count",
    "service.expired": "count",
    "server.wire_us": "us",
    "router.self_us": "us",
    "router.hot_hit_ratio": "ratio",
    "router.forwards_per_request": "ratio",
    "admission.rho": "ratio",
    "admission.shed": "count",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead.grid_wall_s": "s",
    "trace.overhead.p50_ms.low": "ms",
    "trace.overhead.p99_ms.high": "ms",
}


def _phases(server, traffic, plan, seconds: float, *, loaded: bool, ladder: bool):
    """Warm-up and low phases; with *loaded*, the high phase; then the ladder.

    Every reply of every phase is checked.
    """
    import serving

    n_low = max(1, round(max(N_LOW, LOW_SHARE * plan.low_rate) * seconds))
    n_high = max(1, round(max(N_HIGH, HIGH_SHARE * plan.high_rate) * seconds))

    def phase(index, rate, n, *, cycle=False):
        result, items, id_base = serving.run_phase(
            server, traffic, index, rate, n, cycle=cycle
        )
        check = serving.check_replies(traffic, items, result)
        summary = serving.summarize(result, plan.slo_ms, serving.LATE_LIMIT_MS, check)
        summary.update(result=result, id_base=id_base)
        return summary

    # The warm-up loads every model and, for a hot set, sends each item
    # three times so both replicas of every hot model have cached it.
    n_warm = max(n_low // 8, 3 * plan.hot_set)
    out = {"warm": phase(0, plan.low_rate, n_warm, cycle=True), "rungs": []}
    cpu0 = server.cpu_s()
    out["low"] = phase(1, plan.low_rate, n_low)
    out["low"]["cpu_ms"] = (server.cpu_s() - cpu0) / n_low * 1e3
    if not loaded:
        return out
    out["high"] = phase(2, plan.high_rate, n_high)
    if not ladder:
        return out
    # Geometric search for the highest rate meeting the SLO: climb (or
    # descend) from the high rate by the coarse step until the verdict
    # flips, then bisect until the bracket is within the fine step.
    lo, hi = (plan.high_rate, None) if out["high"]["meets_slo"] else (None, plan.high_rate)
    for k in range(1, serving.MAX_RUNGS + 1):
        if hi is None:
            rate = lo * serving.COARSE_STEP
        elif lo is None:
            rate = hi / serving.COARSE_STEP
        elif hi / lo > serving.FINE_STEP:
            rate = (lo * hi) ** 0.5
        else:
            break
        rung = phase(10 + k, rate, max(1, round(max(N_RUNG, RUNG_SHARE * rate) * seconds)))
        out["rungs"].append(rung)
        if rung["meets_slo"]:
            lo = rate
        else:
            hi = rate
    out["max_rps_slo"] = lo or 0.0
    return out


def _serving_layers(prefix: Path, phases: dict, stats: dict, fleet: dict | None) -> dict:
    """Per-layer serving numbers from the traced processes' spans and ops."""
    import spans

    totals: dict = {}
    submit_self = 0.0
    n = 0
    submits = {}
    links = {}
    for path in sorted(prefix.parent.glob(prefix.name + ".*.jsonl")):
        rows = spans.load(path)
        own = spans.self_times(rows)
        for sid, _parent, name, start, end, attrs in rows:
            totals[name] = totals.get(name, 0.0) + (end - start)
            if name == "service.submit":
                n += 1
                submit_self += own[sid]
                submits[attrs.get("id")] = end - start
            elif name == "router.link" and attrs.get("op") == "predict":
                links[attrs.get("id")] = end - start
    n = max(1, n)

    def per_request_us(name):
        return totals.get(name, 0.0) / n * 1e6

    wire, router_self = [], []
    for key in ("warm", "low", "high"):
        res = phases[key]["result"]
        base = phases[key]["id_base"]
        for i in range(res.n):
            if not (res.recv[i] < float("inf")):
                continue
            rtt = res.recv[i] - res.sent[i]
            if base + i in submits:
                wire.append(rtt - submits[base + i])
            if base + i in links:
                router_self.append(rtt - links[base + i])

    shard_stats = list(stats["shards"].values()) if "shards" in stats else [stats["stats"]]
    hits = sum(s["cache_hits"] for s in shard_stats)
    lookups = hits + sum(s["cache_misses"] for s in shard_stats)
    batches = sum(s["batches"] for s in shard_stats)
    out = {
        "protocol.encode_us": per_request_us("protocol.encode"),
        "protocol.decode_us": per_request_us("protocol.decode"),
        "protocol.fingerprint_us": per_request_us("protocol.fingerprint"),
        "registry.resolve_us": per_request_us("registry.resolve"),
        "registry.load_us": per_request_us("registry.load"),
        "predict.compute_us": per_request_us("predict.compute"),
        "predict.decode_us": per_request_us("predict.decode"),
        "service.self_us": submit_self / n * 1e6,
        "service.batch_size_mean": (
            sum(s["batched_requests"] for s in shard_stats) / batches if batches else 0.0
        ),
        "service.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "service.rejected": sum(s["rejected"] for s in shard_stats),
        "service.expired": sum(s["expired"] for s in shard_stats),
        "server.wire_us": statistics.fmean(wire) * 1e6 if wire else 0.0,
        "router.self_us": statistics.fmean(router_self) * 1e6 if router_self else 0.0,
        "router.hot_hit_ratio": 0.0,
        "router.forwards_per_request": 0.0,
        "admission.rho": 0.0,
        "admission.shed": 0,
    }
    if fleet is not None:
        router = stats["stats"]
        requests = max(1, router["requests"])
        admissions = [h["admission"] for h in fleet["health"].values() if "admission" in h]
        out.update({
            "router.hot_hit_ratio": router["hot_hits"] / requests,
            "router.forwards_per_request": router["forwarded"] / requests,
            "admission.rho": max((a["rho"] for a in admissions), default=0.0),
            "admission.shed": sum(a["shed"] for a in admissions),
        })
    return out


def _serve(plan, root, workdir, traffic, seconds, cleanup, *, loaded, ladder,
           spans_prefix=None):
    """Launch one server, run the phases, read its ops, stop it."""
    import serving

    t0 = time.perf_counter()
    server = serving.Server(plan, root, workdir, spans_out=spans_prefix)
    launch_s = time.perf_counter() - t0
    cleanup.callback(server.stop)
    try:
        phases = _phases(server, traffic, plan, seconds, loaded=loaded, ladder=ladder)
        stats = server.request({"op": "stats"})
        fleet = server.request({"op": "fleet"}) if plan.cli == "fleet" else None
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return launch_s, phases, stats, fleet, rss


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        cleanup: contextlib.ExitStack) -> dict:
    """One benchmark run; returns metrics plus the facts behind them.

    Every process started is registered on *cleanup*, so an aborted run
    still stops them all.
    """
    import grid
    import serving

    kernel, plan_name = WORKLOADS[workload]
    plan = serving.PLANS[plan_name]
    root = workdir / "models"

    t0 = time.perf_counter()
    camps = serving.campaigns()
    serving.fit_and_save(plan, camps, root)
    fit_s = time.perf_counter() - t0

    rounds = []
    for _ in range(SETUP_ROUNDS - 1):
        child = grid.GridProcess(grid.spec(kernel, mode="setup"))
        cleanup.callback(child.stop)
        child.finish()
        t0 = time.perf_counter()
        server = serving.Server(plan, root, workdir)
        rounds.append(child.ready_s + time.perf_counter() - t0)
        cleanup.callback(server.stop)
        server.stop()

    child = grid.GridProcess(
        grid.spec(kernel, mode="trace" if trace else "measure",
                  budget_s=GRID_SHARE * seconds)
    )
    cleanup.callback(child.stop)
    grid_result = child.finish()
    oracle = grid.ORACLES[kernel]
    grids = grid_result["grids"] + ([grid_result["traced"]] if trace else [])
    grid_bad = sum(1 for g in grids if g["ks_checksum"] != oracle)

    traffic = serving.Traffic(plan, camps, root, seed)
    launch_s, phases, stats, fleet, server_rss = _serve(
        plan, root, workdir, traffic, seconds, cleanup, loaded=trace, ladder=trace
    )
    rounds.append(child.ready_s + launch_s)

    facts = {
        "kernel": kernel,
        "oracle": oracle,
        "grids": grids,
        "grid_mismatches": grid_bad,
        "phases": phases,
        "fit_s": fit_s,
        "rounds_s": rounds,
    }
    checked = [p for k, p in phases.items() if k in ("warm", "low", "high")]
    if trace:
        prefix = workdir / "spans"
        _, traced, t_stats, t_fleet, _ = _serve(
            plan, root, workdir, traffic, seconds, cleanup, loaded=True, ladder=False,
            spans_prefix=prefix,
        )
        checked += [traced["warm"], traced["low"], traced["high"]]
        facts["traced_phases"] = traced
        layers = dict(grid_result["layers"])
        layers["parallel.pool_start_s"] = grid_result["pool_start_s"]
        layers["parallel.shm_tracker_errors"] = child.shm_tracker_errors
        layers.update(_serving_layers(prefix, traced, t_stats, t_fleet))
        layers["loadgen.late_p99_ms"] = max(
            traced[k]["late_p99_ms"] for k in ("warm", "low", "high")
        )
        layers["trace.overhead.grid_wall_s"] = (
            grid_result["traced"]["wall_s"] - grid_result["grids"][-1]["wall_s"]
        )
        layers["trace.overhead.p50_ms.low"] = traced["low"]["p50_ms"] - phases["low"]["p50_ms"]
        layers["trace.overhead.p99_ms.high"] = (
            traced["high"]["p99_ms"] - phases["high"]["p99_ms"]
        )
        metrics = {name: layers[name] for name in PER_LAYER}
        units = PER_LAYER
        facts["printed"] = {
            "p50_ms.high": phases["high"]["p50_ms"],
            "p99_ms.high": phases["high"]["p99_ms"],
            "max_rps_slo": phases["max_rps_slo"],
        }
    else:
        metrics = {
            "grid_wall_s": statistics.median(g["wall_s"] for g in grids),
            "server_cpu_ms": phases["low"]["cpu_ms"],
            "setup_s": fit_s + statistics.median(rounds),
            "peak_rss_mb": grid_result["peak_rss_mb"] + server_rss,
        }
        units = END_TO_END
        facts["printed"] = {
            "p50_ms.low": phases["low"]["p50_ms"],
            "p90_ms.low": phases["low"]["p90_ms"],
        }
    # A latency with no good reply behind it is infinite: the run fails and
    # the value is written as -1 (JSON has no infinity).
    finite = all(math.isfinite(v) for v in metrics.values())
    metrics = {k: v if math.isfinite(v) else -1.0 for k, v in metrics.items()}
    attempted = len(grids) + sum(p["n"] for p in checked)
    failed = grid_bad + sum(p["failed"] for p in checked)
    mismatched = sum(p["mismatched"] for p in checked + phases["rungs"])
    generator_ok = all(p["generator_ok"] for p in checked)
    facts.update(
        metrics=metrics, units=units, attempted=attempted, failed=failed,
        mismatched=mismatched, generator_ok=generator_ok,
        correct=grid_bad == 0 and mismatched == 0 and generator_ok and failed == 0
        and finite,
    )
    return facts


def report(workload: str, seed: int, facts: dict) -> None:
    """Human-readable table on stdout (everything but the last line)."""
    print(f"# {workload} seed={seed} grid={facts['kernel']}")
    for g in facts["grids"]:
        ok = "ok" if g["ks_checksum"] == facts["oracle"] else "MISMATCH"
        print(f"  grid wall {g['wall_s']:.3f} s  cpu {g['cpu_s']:.2f} s  "
              f"ks_checksum {g['ks_checksum']!r} ({ok})")
    phases = [(k, p) for k, p in facts["phases"].items() if k in ("warm", "low", "high")]
    if "traced_phases" in facts:
        phases += [(f"t.{k}", facts["traced_phases"][k]) for k in ("warm", "low", "high")]
    for key, p in phases:
        print(f"  {key:7s} {p['rate']:7.1f}/s n={p['n']:5d} p50 {p['p50_ms']:8.2f} ms "
              f"p{p['q90']:.1f} {p['p90_ms']:8.2f} ms p{p['q99']:.1f} {p['p99_ms']:8.2f} ms "
              f"failed {p['failed']} late_p99 {p['late_p99_ms']:.2f} ms {p['statuses']}")
    for p in facts["phases"]["rungs"]:
        verdict = "meets" if p["meets_slo"] else "misses"
        print(f"  rung    {p['rate']:7.1f}/s n={p['n']:5d} p99 {p['p99_ms']:8.2f} ms "
              f"misses {p['misses']} drain {p['drain_ms']:.1f} ms -> {verdict} SLO")
    print(f"  setup: fit+save {facts['fit_s']:.3f} s, rounds "
          + ", ".join(f"{r:.3f}" for r in facts["rounds_s"]) + " s")
    print(f"  error_rate {facts['failed']}/{facts['attempted']} "
          f"mismatches {facts['mismatched']} generator_ok {facts['generator_ok']}")
    for name, value in facts["metrics"].items():
        print(f"  {name:32s} {value:14.6g} {facts['units'][name]}")
    for name, value in facts["printed"].items():
        print(f"  {name:32s} {value:14.6g} {PRINTED[name]}  (not gated)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its servers (their finally blocks run).
    # Handling SIGINT here also un-ignores it for the servers this process
    # starts (a background shell starts us with SIGINT ignored, and an
    # ignored signal stays ignored across exec): they stop on Ctrl-C.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_run" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        with contextlib.ExitStack() as cleanup:
            facts = run(args.workload, args.seed, args.seconds, bool(args.trace),
                        workdir, cleanup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    report(args.workload, args.seed, facts)
    print(json.dumps({
        "correct": facts["correct"],
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": {
            name: {"value": value, "unit": facts["units"][name]}
            for name, value in facts["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
