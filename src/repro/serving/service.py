"""Micro-batching prediction service: the serving data plane.

:class:`PredictionService` turns many concurrent ``predict`` requests
into few batched evaluations without changing a single output bit:

* **Micro-batching** — load-triggered coalescing: the batch loop waits
  only for the first request, then takes whatever else is already
  queued (up to ``max_batch``) — under load, the requests that arrived
  while the previous batch ran; when idle, a lone request runs at once.
  A batch is grouped by model and executed off the event loop on one
  worker thread.  Each request inside a batch still runs the *exact*
  per-request ``predictor.predict_vector`` call a direct caller would
  run — batching amortizes model hydration and scheduling, never the
  math — so served predictions are bit-identical to library calls.
* **Response cache** — an LRU keyed by the request fingerprint
  (resolved model content key + exact probe bytes + sampling params,
  see :func:`~repro.serving.protocol.request_fingerprint`).  Because
  equal fingerprints imply equal answers, a cache hit can only ever
  replay the identical response.
* **Admission control** — at most ``queue_limit`` requests may be in
  flight; beyond that, new requests are rejected immediately with a
  429-style response instead of growing an unbounded queue.  The fixed
  count as the *primary* policy is **deprecated in favor of
  queueing-aware admission**: pass an ``admission`` gate (see
  :class:`repro.serving.fleet.admission.KingmanAdmission`) and the
  service sheds on predicted Kingman wait (utilization × variability)
  — the policy every fleet shard runs — while ``queue_limit`` stays on
  as a hard depth backstop, covering the gate's ``min_samples`` warmup
  window when it admits unconditionally (migration notes in
  ``docs/SERVING.md``).
* **Deadlines** — every request carries a deadline (client-supplied or
  ``default_deadline_s``); a request that cannot be answered in time
  resolves to a 504-style response and its slot is reclaimed.

Multi-process serving is :mod:`repro.serving.fleet`: N processes, each
running this service.

Metrics (``serving.*``) and the ``serving.batch`` span are documented
in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from .._deprecation import warn_deprecated
from ..errors import ArtifactError, ValidationError
from .protocol import (
    decode_campaign,
    decode_probe,
    encode_array,
    error,
    ok,
    probe_fingerprint,
)
from .registry import ModelRegistry

__all__ = ["ServingConfig", "PredictionService"]

#: Deprecated no-op knobs (removal at 3.0) and what replaces each one.
_FLEET = "repro.serving.fleet (FleetHandle) for multi-process serving"
_DEPRECATED_FIELDS = {
    "batch_window_s": "ServingConfig.max_batch (a batch is whatever is already queued)",
    "plane": _FLEET,
    "n_workers": _FLEET,
}


@dataclass(frozen=True)
class ServingConfig:
    """Tunable serving policy (all knobs, no behavior).

    Attributes
    ----------
    max_batch:
        Largest number of requests coalesced into one batch.
    queue_limit:
        Admission bound: maximum requests in flight before new arrivals
        are rejected with status 429.  Always enforced — with an
        ``admission`` gate installed it acts as the hard depth backstop
        behind the queueing-aware policy.
    cache_size:
        Response-cache capacity (entries); ``cache_enabled=False``
        bypasses the cache entirely.
    cache_enabled:
        Whether fingerprint-identical requests may be served from cache.
    default_deadline_s:
        Deadline applied when a request does not carry its own.
    batch_window_s, plane, n_workers:
        Deprecated, no effect: batches coalesce on load, with no linger,
        and run on one in-process worker thread.  Setting any of them
        emits one :class:`DeprecationWarning`; an out-of-range value
        still raises :class:`~repro.errors.ValidationError`.
    """

    max_batch: int = 32
    batch_window_s: float | None = None
    queue_limit: int = 128
    cache_size: int = 256
    cache_enabled: bool = True
    default_deadline_s: float = 5.0
    plane: str | None = None
    n_workers: int | None = None

    def __post_init__(self) -> None:
        """Validate ranges; raises :class:`~repro.errors.ValidationError`."""
        if self.max_batch < 1:
            raise ValidationError("max_batch must be >= 1")
        if self.batch_window_s is not None and self.batch_window_s < 0.0:
            raise ValidationError("batch_window_s must be >= 0")
        if self.queue_limit < 1:
            raise ValidationError("queue_limit must be >= 1")
        if self.cache_size < 1:
            raise ValidationError("cache_size must be >= 1")
        if self.default_deadline_s <= 0.0:
            raise ValidationError("default_deadline_s must be > 0")
        if self.plane not in (None, "thread", "pool"):
            raise ValidationError(
                f"plane must be one of ('thread', 'pool'), got {self.plane!r}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ValidationError("n_workers must be >= 1")
        for name, replacement in _DEPRECATED_FIELDS.items():
            if getattr(self, name) is not None:
                # stacklevel 4 skips this method and the generated __init__.
                warn_deprecated(f"ServingConfig({name}=...)", replacement, stacklevel=4)


@dataclass
class _Request:
    """One queued predict request awaiting batch execution.

    ``probe`` is any :data:`~repro.core.sketch.Probe` — a
    :class:`~repro.core.sketch.SampleProbe` for v1/raw-campaign requests,
    a :class:`~repro.core.sketch.SketchProbe` for percentile-only ones.
    """

    fingerprint: str
    model_key: str
    probe: object
    n_samples: int
    sample_seed: int
    future: asyncio.Future = field(repr=False)


_SHUTDOWN = object()


def _is_int(value) -> bool:
    """True for a JSON integer (``bool`` is an ``int`` subclass, not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


class PredictionService:
    """Async facade over the registry + batch loop (one per event loop)."""

    def __init__(
        self,
        registry: ModelRegistry,
        config: ServingConfig | None = None,
        *,
        pool=None,
        admission=None,
    ) -> None:
        """Create a service over *registry*; ``await start()`` before use.

        *pool* is deprecated and ignored (it is neither used nor closed).
        An *admission* gate (duck-typed to
        :class:`~repro.serving.fleet.admission.KingmanAdmission`)
        supersedes the fixed ``queue_limit`` policy: its ``admit()``
        decides per arrival and ``observe(service_s)`` is fed measured
        per-request service times, with ``queue_limit`` retained as a
        hard depth backstop.
        """
        self.registry = registry
        self.config = config or ServingConfig()
        self.admission = admission
        if pool is not None:
            warn_deprecated("PredictionService(pool=...)", _FLEET)
        self._cache: OrderedDict[str, dict] = OrderedDict()
        self._queue: asyncio.Queue | None = None
        self._batch_task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._pending = 0
        self._stats = {
            "requests": 0,
            "rejected": 0,
            "expired": 0,
            "errors": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "batches": 0,
            "batched_requests": 0,
            "drained": 0,
            "protocol_v1_requests": 0,
        }
        self._batch_sizes: dict[int, int] = {}

    async def start(self) -> None:
        """Bind to the running loop and start the batch task (idempotent)."""
        if self._batch_task is not None:
            return
        self._queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serving"
        )
        self._batch_task = asyncio.get_running_loop().create_task(self._batch_loop())

    async def close(self) -> None:
        """Drain and stop the batch loop; shut down execution resources.

        Every request enqueued before (or racing) the shutdown marker is
        answered: the batch loop executes what it can, and anything
        still queued afterwards resolves to a 503 response rather than a
        silently dropped future — the invariant graceful shard drain
        relies on.
        """
        if self._batch_task is None:
            return
        await self._queue.put(_SHUTDOWN)
        await self._batch_task
        self._batch_task = None
        while not self._queue.empty():
            leftover = self._queue.get_nowait()
            if leftover is _SHUTDOWN:
                continue
            if not leftover.future.done():
                self._stats["drained"] += 1
                leftover.future.set_result(
                    error(503, "service is shutting down; request not executed")
                )
        self._executor.shutdown(wait=True)
        self._executor = None

    def stats(self) -> dict:
        """Snapshot of request/cache/batch counters (plain ints)."""
        snapshot = dict(self._stats)
        snapshot["pending"] = self._pending
        snapshot["batch_size_histogram"] = {
            str(size): count for size, count in sorted(self._batch_sizes.items())
        }
        return snapshot

    async def submit(self, payload: dict) -> dict:
        """Answer one predict request (validate, cache, batch, respond).

        Always returns a response dict with a ``status`` field; protocol
        and capacity problems become 4xx/5xx responses, never exceptions.
        """
        if self._batch_task is None:
            await self.start()
        self._stats["requests"] += 1
        obs.counter("serving.requests")
        t0 = time.perf_counter()
        try:
            # _parse may read a ~100-byte tag JSON when the model is
            # addressed by tag rather than content key; an executor hop
            # would cost more latency than the read itself, and the
            # batcher right below this already amortizes real disk work.
            request, deadline_s = self._parse(payload)  # repro: noqa[ASYNC002]
        except ValidationError as exc:
            return error(400, str(exc))
        except ArtifactError as exc:
            return error(404, str(exc))

        if self.config.cache_enabled:
            hit = self._cache.get(request.fingerprint)
            if hit is not None:
                self._cache.move_to_end(request.fingerprint)
                self._stats["cache_hits"] += 1
                obs.counter("serving.cache.hits")
                obs.observe("serving.latency_s", time.perf_counter() - t0)
                response = dict(hit)
                response["cached"] = True
                return response
            self._stats["cache_misses"] += 1
            obs.counter("serving.cache.misses")

        # The depth cap always applies — with an admission gate it is
        # the hard backstop (per docs/SERVING.md), which matters during
        # the gate's min_samples warmup when it admits unconditionally.
        if self._pending >= self.config.queue_limit:
            self._stats["rejected"] += 1
            obs.counter("serving.rejected")
            return error(
                429,
                f"queue full ({self.config.queue_limit} requests in flight); "
                "retry later",
            )
        if self.admission is not None and not self.admission.admit():
            self._stats["rejected"] += 1
            obs.counter("serving.rejected")
            return error(
                429,
                "shed before the Kingman knee "
                f"({self.admission.describe()}); retry later",
            )

        self._pending += 1
        obs.gauge("serving.queue_depth", self._pending)
        await self._queue.put(request)
        try:
            response = await asyncio.wait_for(request.future, timeout=deadline_s)
        except asyncio.TimeoutError:
            self._stats["expired"] += 1
            obs.counter("serving.expired")
            return error(504, f"deadline of {deadline_s}s expired")
        finally:
            self._pending -= 1
            obs.gauge("serving.queue_depth", self._pending)

        if response.get("status") == 200 and self.config.cache_enabled:
            self._cache[request.fingerprint] = dict(response)
            self._cache.move_to_end(request.fingerprint)
            while len(self._cache) > self.config.cache_size:
                self._cache.popitem(last=False)
        obs.observe("serving.latency_s", time.perf_counter() - t0)
        return response

    def _parse(self, payload: dict) -> tuple[_Request, float]:
        """Validate a raw predict payload into a :class:`_Request`.

        Accepts both wire generations: a v2 body carries ``probe`` (with
        its ``probe_kind`` discriminator); a v1 body carries a bare
        ``campaign``, which is wrapped into a sample probe and counted on
        the ``serving.protocol_v1_requests`` counter (same fingerprint,
        same answer — only the envelope differs).
        """
        if not isinstance(payload, dict):
            raise ValidationError("request must be a JSON object")
        model_name = payload.get("model")
        if not isinstance(model_name, str) or not model_name:
            raise ValidationError("request needs a 'model' tag or content key")
        model_key = self.registry.resolve(model_name)
        if "probe" in payload:
            probe = decode_probe(payload.get("probe"))
        else:
            from ..core.sketch import SampleProbe

            self._stats["protocol_v1_requests"] += 1
            obs.counter("serving.protocol_v1_requests")
            probe = SampleProbe(decode_campaign(payload.get("campaign")))
        n_samples = payload.get("n_samples", 0)
        sample_seed = payload.get("sample_seed", 0)
        if not _is_int(n_samples) or n_samples < 0:
            raise ValidationError("n_samples must be a non-negative integer")
        if not _is_int(sample_seed):
            raise ValidationError("sample_seed must be an integer")
        deadline_s = payload.get("deadline_s", self.config.default_deadline_s)
        # json.loads accepts NaN and Infinity; a NaN deadline never
        # expires, so the request would hold a queue slot forever.
        if (
            isinstance(deadline_s, bool)
            or not isinstance(deadline_s, (int, float))
            or not 0 < deadline_s < math.inf
        ):
            raise ValidationError("deadline_s must be a positive finite number")
        fingerprint = probe_fingerprint(
            model_key, probe, n_samples=n_samples, sample_seed=sample_seed
        )
        future = asyncio.get_running_loop().create_future()
        return (
            _Request(fingerprint, model_key, probe, n_samples, sample_seed, future),
            float(deadline_s),
        )

    async def _batch_loop(self) -> None:
        """Execute each request with whatever else is already queued.

        The only wait is for a batch's first request; its followers are
        taken without waiting, so an idle service runs a lone request at
        once and a loaded one batches what queued during the last batch.
        """
        while True:
            first = await self._queue.get()
            if first is _SHUTDOWN:
                return
            batch = [first]
            stop = False
            while len(batch) < self.config.max_batch and not self._queue.empty():
                item = self._queue.get_nowait()
                if item is _SHUTDOWN:
                    stop = True
                    break
                batch.append(item)
            await self._execute(batch)
            if stop:
                return

    async def _execute(self, batch: list) -> None:
        """Run one batch: group by model, evaluate off-loop, deliver."""
        self._stats["batches"] += 1
        self._stats["batched_requests"] += len(batch)
        self._batch_sizes[len(batch)] = self._batch_sizes.get(len(batch), 0) + 1
        obs.counter("serving.batches")
        obs.counter("serving.batched_requests", len(batch))
        obs.observe("serving.batch_size", len(batch))
        groups: OrderedDict[str, list] = OrderedDict()
        for request in batch:
            groups.setdefault(request.model_key, []).append(request)
        loop = asyncio.get_running_loop()
        for model_key, requests in groups.items():
            t0 = loop.time()
            with obs.span("serving.batch", model=model_key, n_requests=len(requests)):
                try:
                    responses = await loop.run_in_executor(
                        self._executor, self._compute_group, model_key, requests
                    )
                except Exception as exc:  # noqa: BLE001 — batch loop must survive
                    self._stats["errors"] += 1
                    obs.counter("serving.errors")
                    # One dict per request: the server writes each
                    # request's own ``id`` into its response.
                    message = f"{type(exc).__name__}: {exc}"
                    responses = [error(500, message) for _ in requests]
            if self.admission is not None:
                # Per-request service effort: the group's executor wall
                # time amortized across its requests (batching shares
                # hydration/scheduling, so the amortized cost is the
                # honest per-request figure for the queueing model).
                per_request_s = (loop.time() - t0) / len(requests)
                for _ in requests:
                    self.admission.observe(per_request_s)
            for request, response in zip(requests, responses):
                if not request.future.done():
                    request.future.set_result(response)

    def _compute_group(self, model_key: str, requests: list) -> list[dict]:
        """Evaluate one model's requests (runs in the executor thread).

        Per-request ``predict_vector`` calls, never a stacked matrix —
        identical math to the direct library path, so served outputs are
        bit-identical regardless of how requests were batched.
        """
        predictor = self.registry.load(model_key)
        responses = []
        for request in requests:
            vector = predictor.predict_vector(request.probe)
            body = ok(
                model_key=model_key,
                representation=type(predictor.representation).__name__,
                vector=[float(v) for v in vector],
                cached=False,
            )
            if request.n_samples > 0:
                rng = np.random.default_rng(int(request.sample_seed))
                draws = predictor.representation.reconstruct(
                    np.asarray(vector, dtype=np.float64)
                ).sample(request.n_samples, rng=rng)
                body["samples"] = encode_array(draws)
            responses.append(body)
        return responses
