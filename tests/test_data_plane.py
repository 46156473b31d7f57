"""Tests for the persistent worker pool and shared-memory data plane.

The contract under test: a persistent :class:`WorkerPool` reuses its
workers across dispatches, recovers from worker death, and never leaks a
shared-memory segment — and neither the pool, the worker count, nor the
dispatch plane (pickle vs shm) may change a single bit of any result.
"""

import glob
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.parallel import shm
from repro.parallel.shm import ArrayRef, SharedArrayStore, attach, shm_available
from repro.parallel.worker_pool import WorkerPool

ROOT = Path(__file__).resolve().parent.parent

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="no usable shared memory in this environment"
)


def square(x):
    return x * x


def die_in_worker(x):
    # Only kills child processes: the serial-fallback rerun in the
    # parent must succeed, which is exactly what the recovery path
    # promises for pure tasks.
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return x * x


def sum_shared(ref):
    return float(attach(ref).sum())


#: Run in a fresh interpreter: publish two arrays through a 2-worker
#: pool, map over their refs, survive a worker crash, map again on the
#: recovered pool, then close.
_LIFECYCLE_SCRIPT = """
import multiprocessing, sys
import numpy as np
multiprocessing.set_start_method(sys.argv[1])
from repro.parallel.worker_pool import WorkerPool
from tests.test_data_plane import die_in_worker, sum_shared

arrays = [np.arange(64.0), np.ones((8, 8))]
with WorkerPool(2) as pool:
    refs = pool.share(arrays)
    assert all(type(r).__name__ == "ArrayRef" for r in refs)
    assert pool.map(sum_shared, refs * 3, chunk_size=1) == [2016.0, 64.0] * 3
    assert pool.map(die_in_worker, range(6), chunk_size=2) == [x * x for x in range(6)]
    assert pool.map(sum_shared, refs, chunk_size=1) == [2016.0, 64.0]
print("done")
"""


class TestSharedArrayStore:
    @needs_shm
    def test_publish_attach_roundtrip(self):
        arr = np.arange(24, dtype=np.float64).reshape(4, 6)
        with SharedArrayStore() as store:
            ref = store.publish(arr)
            assert isinstance(ref, ArrayRef)
            assert ref.shape == (4, 6)
            assert ref.nbytes == arr.nbytes
            view = attach(ref)
            assert np.array_equal(view, arr)
            assert not view.flags.writeable

    @needs_shm
    def test_publish_dedups_by_identity(self):
        arr = np.ones((8, 3))
        with SharedArrayStore() as store:
            r1 = store.publish(arr)
            r2 = store.publish(arr)
            assert r1 is r2
            assert store.n_segments == 1
            assert store.publish(arr.copy()).segment != r1.segment
            assert store.n_segments == 2
            assert store.bytes_mapped == 2 * arr.nbytes

    @needs_shm
    def test_close_unlinks_segments(self):
        from multiprocessing import shared_memory

        store = SharedArrayStore()  # repro: noqa[CONC002] — close() is the subject under test
        ref = store.publish(np.zeros(16))
        store.close()
        store.close()  # idempotent
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=ref.segment, create=False)

    @needs_shm
    def test_segments_unlinked_when_dispatch_raises(self):
        from multiprocessing import shared_memory

        refs = []
        with pytest.raises(RuntimeError, match="boom"):
            with WorkerPool(2) as pool:
                store = pool.shm
                assert store is not None
                refs.append(store.publish(np.zeros((32, 4))))
                raise RuntimeError("boom")
        for ref in refs:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=ref.segment, create=False)

    def test_failed_probe_disables_store(self, monkeypatch):
        monkeypatch.setattr(shm, "_PROBE_RESULT", False)
        assert shm_available() is False
        with WorkerPool(2) as pool:
            assert pool.shm is None
            arrays = [np.zeros(4), np.ones(3)]
            assert all(a is b for a, b in zip(pool.share(arrays), arrays))

    @needs_shm
    def test_share_falls_back_when_publish_fails(self, monkeypatch):
        def vanished(self, array):
            raise OSError("shm mount vanished")

        monkeypatch.setattr(SharedArrayStore, "publish", vanished)
        arrays = [np.zeros(4), np.ones(3)]
        with WorkerPool(2) as pool:
            assert pool.shm is not None
            assert all(a is b for a, b in zip(pool.share(arrays), arrays))

    @needs_shm
    @pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"])
    def test_pool_lifecycle_leaves_no_segment_or_tracker_error(self, start_method):
        # Workers attach but never unregister: the parent's unlink is the
        # only unregistration, so the shared resource tracker must not
        # report a double unregister (KeyError) or a leak.
        before = set(glob.glob("/dev/shm/psm_*"))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
        ))
        proc = subprocess.run(
            [sys.executable, "-c", _LIFECYCLE_SCRIPT, start_method],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "done"
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "KeyError" not in proc.stderr, proc.stderr
        assert set(glob.glob("/dev/shm/psm_*")) <= before

    def test_closed_store_refuses_publish(self):
        store = SharedArrayStore()  # repro: noqa[CONC002] — closed-store behavior is the subject
        store.close()
        with pytest.raises(RuntimeError):
            store.publish(np.zeros(4))


class TestWorkerPool:
    def test_map_preserves_order_and_reuses_executor(self):
        with WorkerPool(2) as pool:
            out1 = pool.map(square, range(20), chunk_size=3)
            executor = pool._executor
            out2 = pool.map(square, range(20, 40), chunk_size=3)
            assert pool._executor is executor  # persistent, not respawned
        assert out1 == [x * x for x in range(20)]
        assert out2 == [x * x for x in range(20, 40)]

    def test_single_worker_never_spawns(self):
        with WorkerPool(1) as pool:
            assert pool.map(square, range(5)) == [0, 1, 4, 9, 16]
            assert pool._executor is None
            assert pool.shm is None

    def test_worker_crash_recovers_serially(self):
        with WorkerPool(2) as pool:
            out = pool.map(die_in_worker, range(6), chunk_size=2)
        assert out == [x * x for x in range(6)]

    def test_pool_usable_after_crash_recovery(self):
        with WorkerPool(2) as pool:
            pool.map(die_in_worker, range(4), chunk_size=1)
            assert pool.map(square, range(10), chunk_size=2) == [
                x * x for x in range(10)
            ]

    def test_closed_pool_rejects_dispatch(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.map(square, range(8), chunk_size=2)

    def test_adaptive_chunking_clamps(self):
        pool = WorkerPool(4)
        # No cost estimate: static heuristic.
        assert pool._auto_chunk(100, 4) == 7
        # Fast items batch up, capped at one chunk per worker.
        pool._cost_ewma = 1e-6
        assert pool._auto_chunk(100, 4) == 25
        # Slow items: one item per chunk.
        pool._cost_ewma = 10.0
        assert pool._auto_chunk(100, 4) == 1
        pool.close()


class TestPlaneBitIdentity:
    """KS results identical: inline vs pooled, shm vs its pickle fallback,
    workers 1/2/4, for knn and the hist tree models."""

    @pytest.fixture(scope="class")
    def campaigns(self):
        from repro.simbench.runner import measure_all

        return measure_all(
            "intel",
            benchmarks=("npb/cg", "npb/is", "rodinia/heartwall", "parsec/canneal"),
            n_runs=60,
            root_seed=13,
        )

    @staticmethod
    def _models():
        from repro.ml.boosting import GradientBoostingRegressor
        from repro.ml.forest import RandomForestRegressor

        return {
            "knn": "knn",
            "rf-hist": RandomForestRegressor(10, rng=7, tree_method="hist"),
            # Row subsampling keeps boosting off the lockstep batch, so
            # its folds go through the pool.
            "xgboost-hist-subsample": GradientBoostingRegressor(
                10, max_depth=3, subsample=0.8, colsample_bytree=0.5, rng=7,
                tree_method="hist",
            ),
        }

    def _ks(self, campaigns, n_workers, monkeypatch, *, shm_on, model="knn"):
        from repro.core.evaluation import evaluate_few_runs
        from repro.core.representations import PearsonRndRepresentation

        # A failed probe forces the pickle fallback; None re-probes.
        monkeypatch.setattr(shm, "_PROBE_RESULT", None if shm_on else False)
        with WorkerPool(n_workers) as pool:
            tab = evaluate_few_runs(
                campaigns,
                representation=PearsonRndRepresentation(),
                model=model,
                n_probe_runs=8,
                n_replicas=2,
                n_workers=n_workers,
                pool=pool,
            )
        return np.asarray(tab["ks"])

    def test_ks_identical_across_planes_and_workers(self, campaigns, monkeypatch):
        for name, model in self._models().items():
            baseline = self._ks(campaigns, 1, monkeypatch, shm_on=False,
                                model=model)
            for n_workers in (1, 2, 4):
                for shm_on in (False, True):
                    ks = self._ks(campaigns, n_workers, monkeypatch,
                                  shm_on=shm_on, model=model)
                    assert np.array_equal(ks, baseline), (name, n_workers, shm_on)

    @needs_shm
    def test_shm_plane_actually_engaged(self, campaigns, monkeypatch):
        from repro import obs

        obs.enable()
        try:
            self._ks(campaigns, 2, monkeypatch, shm_on=True)
            counters = {
                r["name"]: r["value"]
                for r in obs.trace_records()
                if r.get("type") == "counter"
            }
        finally:
            obs.disable()
        assert counters.get("pool.shm_bytes_saved", 0) > 0
