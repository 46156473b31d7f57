"""Shared-memory array plane for zero-copy fold dispatch.

Pickling a full copy of the fold matrices into every process-pool task
is the dominant dispatch cost of the LOGO sweeps: the ``pool.*`` payload
gauges show that almost every IPC byte is a redundant array copy.  This
module lets the parent *publish* each large array once into a
:mod:`multiprocessing.shared_memory` segment and ship only a tiny
:class:`ArrayRef` descriptor — ``(segment name, shape, dtype)`` — per
task; workers :func:`attach` to the segment and get a read-only NumPy
view of the very same bytes.

Design points:

* **Publication is deduplicated by object identity.**  The store keeps a
  reference to every published array, so publishing the same matrix for
  each of nine grid cells maps it exactly once.
* **The parent owns every segment.**  :class:`SharedArrayStore` is a
  context manager; :meth:`SharedArrayStore.close` is idempotent and runs
  from ``finally`` blocks and pool shutdown, so no ``/dev/shm`` entries
  leak even when a dispatch raises.  Workers only map segments: pool
  workers share the parent's resource tracker, so the parent's
  ``unlink`` is the one and only unregistration.
* **Graceful degradation.**  Sandboxes without a usable shared-memory
  mount (and builds without the module) make :func:`shm_available`
  return ``False``; :meth:`~repro.parallel.worker_pool.WorkerPool.share`
  then hands the plain arrays back and tasks pickle them instead.  The
  engine's fold task accepts either, so the fallback is not a separate
  code path.
* Worker-side attachments are cached per process (bounded LRU) so a
  persistent pool does not re-map the segment for every task.

With :mod:`repro.obs` enabled the store emits the ``pool.shm_*``
metrics documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .. import obs

__all__ = ["ArrayRef", "SharedArrayStore", "attach", "shm_available"]

#: Worker-side attachment cache size (segments, not bytes).  A fold task
#: touches at most a handful of segments; old ones are closed on
#: eviction once no task can reference them anymore.
_ATTACH_CACHE_SIZE = 16

_ATTACHED: "OrderedDict[str, object]" = OrderedDict()

#: Cached result of the one-time shared-memory probe (None = not probed).
_PROBE_RESULT: bool | None = None


def shm_available() -> bool:
    """Whether shared-memory segments can be created in this environment.

    Probes once per process by creating (and immediately unlinking) a
    tiny segment; sandboxes that forbid ``/dev/shm`` fail the probe and
    every caller takes the pickling fallback.
    """
    global _PROBE_RESULT
    if _PROBE_RESULT is None:
        try:
            from multiprocessing import shared_memory

            seg = shared_memory.SharedMemory(create=True, size=16)
            seg.close()
            seg.unlink()
            _PROBE_RESULT = True
        except Exception:
            _PROBE_RESULT = False
    return _PROBE_RESULT


@dataclass(frozen=True)
class ArrayRef:
    """Descriptor of one published array: everything a worker needs.

    Ships in task tuples instead of the array itself; a few hundred
    bytes regardless of the array's size.
    """

    segment: str
    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        """Size of the described array in bytes."""
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


class SharedArrayStore:
    """Parent-side registry of shared-memory segments for one run.

    ``publish`` copies an array into a fresh segment (C-contiguous) and
    returns its :class:`ArrayRef`; publishing the same array object again
    returns the existing ref.  ``close`` unlinks everything.  Intended
    lifetime is one experiment run — typically owned by a
    :class:`~repro.parallel.worker_pool.WorkerPool` and closed with it.
    """

    def __init__(self) -> None:
        self._segments: list = []
        self._refs: dict[int, ArrayRef] = {}
        self._pinned: list[np.ndarray] = []  # keeps ids stable for dedup
        self._bytes_mapped = 0
        self._closed = False

    @property
    def bytes_mapped(self) -> int:
        """Total bytes of all currently published arrays."""
        return self._bytes_mapped

    @property
    def n_segments(self) -> int:
        """Number of live segments owned by this store."""
        return len(self._segments)

    def publish(self, array: np.ndarray) -> ArrayRef:
        """Copy *array* into a shared segment and return its descriptor.

        Deduplicated by object identity: the store pins a reference to
        every published array, so repeated publication of the same
        matrix (one per grid cell) maps it once.  Raises ``OSError``
        (or ``ImportError``) when shared memory is unusable — callers
        are expected to fall back to pickled dispatch.
        """
        if self._closed:
            raise RuntimeError("SharedArrayStore is closed")
        ref = self._refs.get(id(array))
        if ref is not None:
            return ref
        from multiprocessing import shared_memory

        arr = np.ascontiguousarray(array)
        seg = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
        try:
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
            view[...] = arr
            ref = ArrayRef(seg.name, tuple(arr.shape), arr.dtype.str)
        except BaseException:
            seg.close()
            seg.unlink()
            raise
        self._segments.append(seg)
        self._refs[id(array)] = ref
        self._pinned.append(array)
        self._bytes_mapped += arr.nbytes
        obs.gauge("pool.shm_bytes_mapped", self._bytes_mapped)
        return ref

    def close(self) -> None:
        """Unlink every segment (idempotent; never raises)."""
        if self._closed:
            return
        self._closed = True
        for seg in self._segments:
            try:
                seg.close()
            except Exception:
                pass
            try:
                seg.unlink()
            except Exception:
                pass
        self._segments.clear()
        self._refs.clear()
        self._pinned.clear()
        self._bytes_mapped = 0

    def __enter__(self) -> "SharedArrayStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def attach(ref: ArrayRef) -> np.ndarray:
    """Read-only NumPy view of a published array (worker side).

    Maps the segment on first use and caches the mapping per process
    (bounded LRU), so a persistent worker re-maps nothing across tasks.
    The view is marked non-writable: fold tasks must treat shared inputs
    as immutable — writing would race with sibling workers.
    """
    seg = _ATTACHED.get(ref.segment)
    if seg is None:
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(name=ref.segment, create=False)
        _ATTACHED[ref.segment] = seg
        while len(_ATTACHED) > _ATTACH_CACHE_SIZE:
            _, old = _ATTACHED.popitem(last=False)
            try:
                old.close()
            except Exception:
                pass
    else:
        _ATTACHED.move_to_end(ref.segment)
    view = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=seg.buf)
    view.flags.writeable = False
    return view
