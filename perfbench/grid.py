"""Grid half of a workload: the Fig. 4 UC1 grid in a child process.

The grid runs at the small reference scale (16 benchmarks x 300 runs, root
seed 777) with two pooled workers.  Its input is the same for every
``--seed``: that keeps the amount of work fixed, so grid walls from
different seeds compare, and it is the scale at which the ``ks_checksum``
oracles below are recorded.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import groups

HERE = Path(__file__).resolve().parent

N_BENCHMARKS = 16
N_RUNS = 300
ROOT_SEED = 777
N_WORKERS = 2
#: ``ks_checksum`` of the grid per kernel; any change to one KS score moves it.
ORACLES = {"exact": 31.002131067134854, "hist": 31.062874261154462}
#: stderr line the shared-memory resource tracker prints per double unlink
SHM_TRACKER_ERROR = "KeyError: '/psm_"


def spec(kernel: str, *, mode: str, budget_s: float = 0.0) -> dict:
    """The child's JSON spec for one grid process."""
    return {
        "n_benchmarks": N_BENCHMARKS,
        "n_runs": N_RUNS,
        "root_seed": ROOT_SEED,
        "tree_method": kernel,
        "n_workers": N_WORKERS,
        "mode": mode,
        "budget_s": budget_s,
    }


class GridProcess:
    """A started grid child; ``ready_s`` is process start to campaigns loaded."""

    def __init__(self, child_spec: dict):
        env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "grid_child.py"), json.dumps(child_spec)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self._stderr: list[str] = []
        self._reader = threading.Thread(target=self._drain_stderr, daemon=True)
        self._reader.start()
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.stop()
            raise RuntimeError(f"grid child failed to start: {''.join(self._stderr)[-2000:]}")

    def stop(self) -> None:
        """Kill the child and its pool workers if still running (idempotent)."""
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        groups.stop_group(self.proc, signal.SIGKILL)

    def _drain_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr.append(line)

    def finish(self, timeout_s: float = 170.0) -> dict | None:
        """Wait for the child; echo its stderr unfiltered; return its result."""
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        self.proc.wait(timeout=timeout_s)
        self._reader.join(timeout=timeout_s)
        text = "".join(self._stderr)
        sys.stderr.write(text)
        self.shm_tracker_errors = text.count(SHM_TRACKER_ERROR)
        if self.proc.returncode != 0:
            raise RuntimeError(f"grid child exited with {self.proc.returncode}")
        lines = out.strip().splitlines()
        return json.loads(lines[-1]) if lines else None
