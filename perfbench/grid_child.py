"""One Fig. 4 grid process: set up, signal ready, then run timed grids.

Run by ``grid.py`` as ``python perfbench/grid_child.py '<json spec>'``.  The
spec names the campaign ``root_seed``, the ``tree_method``, the worker count
and a ``mode``:

* ``setup`` — import, load the campaigns, print ``READY`` and exit (the
  parent times process start to ``READY``);
* ``measure`` — after ``READY``, run grids until ``budget_s`` has passed
  (at least one) and print one JSON line with each grid's wall time, CPU
  time and KS checksum;
* ``trace`` — run an untraced warm-up grid and an untraced reference
  grid, then one grid with ``repro.obs`` enabled and the benchmark's span
  wrappers installed; print the per-layer numbers of the traced grid.

stderr is left alone: the parent reads it to count shared-memory
``resource_tracker`` errors and echoes it unfiltered.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import sys
import time
from collections import defaultdict
from dataclasses import replace

#: (wall s, pool.worker_utilization gauge) of each pool map that dispatched.
_DISPATCHES: list = []


def _reap_children(timeout_s: float = 10.0) -> None:
    """Wait for exited pool workers so their CPU time is counted."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _timed_grid(campaigns, cfg):
    import numpy as np

    from repro.experiments.usecase1 import representation_model_grid

    cpu0, t0 = _cpu_s(), time.perf_counter()
    grid = representation_model_grid(campaigns, cfg)
    wall = time.perf_counter() - t0
    _reap_children()
    ks = np.asarray(grid["ks"], dtype=np.float64)
    return {
        "wall_s": wall,
        "cpu_s": _cpu_s() - cpu0,
        "ks_checksum": float(ks.sum()),
        "n_rows": int(ks.size),
    }


def _install_wrappers():
    """Span wrappers around the public calls the grid makes."""
    import spans
    from repro import obs
    from repro.core.engine import FewRunsDesign
    from repro.experiments import usecase1
    from repro.ml.binning import BinMapper
    from repro.parallel.worker_pool import WorkerPool

    spans.wrap(FewRunsDesign, "__init__", "engine.featurize")
    spans.wrap(
        FewRunsDesign,
        "fold_vectors",
        "engine.fit",
        attrs_of=lambda a, k: {"model": str(k.get("model_key")).split("+")[0]},
    )
    spans.wrap(usecase1, "score_fold_vectors", "score")
    spans.wrap(BinMapper, "fit_transform", "binning")
    map_fn = WorkerPool.map

    def pool_map(self, fn, items, **kwargs):
        t0 = time.perf_counter()
        before = obs.get_registry().counter_value("pool.map.chunks")
        out = map_fn(self, fn, items, **kwargs)
        if obs.get_registry().counter_value("pool.map.chunks") > before:
            util = obs.get_registry().gauge_value("pool.worker_utilization")
            if util is not None:
                _DISPATCHES.append((time.perf_counter() - t0, util))
        return out

    WorkerPool.map = pool_map


def _layer_metrics(grid_wall_s: float, cpu_s: float) -> dict:
    """Per-layer numbers from the benchmark's spans and repro.obs."""
    import spans
    from repro import obs

    rows = list(spans.SPANS)
    total = defaultdict(float)
    for _sid, _parent, name, start, end, attrs in rows:
        key = name
        if name == "engine.fit":
            key = f"engine.fit_s.{attrs['model']}"
        total[key] += end - start
    out = {
        "engine.featurize_s": total["engine.featurize"],
        "engine.fit_s.knn": total["engine.fit_s.knn"],
        "engine.fit_s.rf": total["engine.fit_s.rf"],
        "engine.fit_s.xgboost": total["engine.fit_s.xgboost"],
        "score_s": total["score"],
        "binning_s": total["binning"],
        "parallel.cores_busy": cpu_s / grid_wall_s,
    }
    busy = sum(d for d, _u in _DISPATCHES)
    out["pool.worker_utilization"] = (
        sum(d * u for d, u in _DISPATCHES) / busy if busy else 0.0
    )
    planes = defaultdict(float)
    for event in obs.events():
        if event["name"] == "fold_batch":
            planes[event.get("attrs", {}).get("plane", "?")] += event["dur_s"]
    for plane in ("shm", "hist-shm", "lockstep"):
        out[f"fold_batch_s.{plane}"] = planes[plane]
    reg = obs.get_registry()
    for name in ("engine.folds.fitted", "tree.fits", "tree.nodes", "pool.map.retries"):
        out[name] = reg.counter_value(name)
    return out


def _pool_start_s(n_workers: int) -> float:
    """Wall time to start a pool and get a first trivial answer back."""
    from repro.parallel.worker_pool import WorkerPool

    t0 = time.perf_counter()
    with WorkerPool(n_workers) as pool:
        pool.map(abs, range(n_workers), chunk_size=1)
    wall = time.perf_counter() - t0
    _reap_children()
    return wall


def main(spec: dict) -> int:
    from repro.experiments.config import PAPER_CONFIG
    from repro.experiments.usecase1 import measure_campaigns

    cfg = replace(
        PAPER_CONFIG.scaled_down(n_benchmarks=spec["n_benchmarks"], n_runs=spec["n_runs"]),
        root_seed=spec["root_seed"],
        tree_method=spec["tree_method"],
    )
    campaigns = measure_campaigns(replace(cfg, n_workers=1))
    cfg = replace(cfg, n_workers=spec["n_workers"])
    print("READY", flush=True)
    mode = spec["mode"]
    if mode == "setup":
        return 0

    result = {"grids": []}
    if mode == "measure":
        t_start = time.perf_counter()
        while not result["grids"] or time.perf_counter() - t_start < spec["budget_s"]:
            result["grids"].append(_timed_grid(campaigns, cfg))
    else:
        from repro import obs

        result["grids"].append(_timed_grid(campaigns, cfg))  # warm-up
        result["grids"].append(_timed_grid(campaigns, cfg))
        result["pool_start_s"] = _pool_start_s(cfg.n_workers)
        _install_wrappers()
        obs.enable()
        traced = _timed_grid(campaigns, cfg)
        obs.disable()
        result["layers"] = _layer_metrics(traced["wall_s"], traced["cpu_s"])
        result["traced"] = traced
    # The parent's peak plus the largest pool worker's: the workers do the
    # exact split search and the hist-shm fits.  Every worker has been
    # reaped by now (``_reap_children``), so RUSAGE_CHILDREN covers them.
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    raise SystemExit(main(json.loads(sys.argv[1])))
