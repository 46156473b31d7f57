"""Wire protocol for the prediction server: JSON lines over TCP.

Every message is one JSON object on one ``\\n``-terminated line.  Arrays
cross the wire as base64 of little-endian float64 bytes — exact (no
decimal round-trip) and compact.  Scalar floats in responses use plain
JSON numbers, which Python serializes with shortest-round-trip ``repr``
so ``json.loads(json.dumps(x)) == x`` bit-exactly for every finite
float64; predicted vectors therefore survive the wire unchanged.

Request fingerprints — the response-cache key — hash the *resolved*
model content key together with the canonical encoding of everything
that can influence the answer (probe arrays, metric names, sampling
parameters).  Two requests with equal fingerprints are guaranteed equal
answers, which is what makes response caching bit-safe.

Status codes follow HTTP conventions so clients can reuse familiar
handling: 200 ok, 400 malformed request, 404 unknown model, 429 load
shed (backpressure — fixed queue bound or Kingman admission), 503
shutting down / shard unavailable, 504 deadline expired, 500 internal
error.

Version 2 adds probe polymorphism: a predict request may carry
``probe_kind`` (``"samples"`` | ``"sketch"``) plus a ``probe`` object —
either an encoded campaign (exact float64 arrays, as before) or an
encoded :class:`~repro.core.sketch.SketchProbe` (percentile-only).
Version-1 bodies — a bare ``campaign`` field — remain accepted
indefinitely; the server counts them via the
``serving.protocol_v1_requests`` observability counter.  Sample probes
fingerprint identically to v1 campaigns, so a v1 request and its v2
``probe_kind="samples"`` equivalent share one response-cache entry.
"""

from __future__ import annotations

import base64
import hashlib
import json

import numpy as np

from ..data.dataset import RunCampaign
from ..errors import ValidationError

__all__ = [
    "PROTOCOL_VERSION",
    "encode_array",
    "decode_array",
    "encode_campaign",
    "decode_campaign",
    "encode_sketch",
    "decode_sketch",
    "encode_probe",
    "decode_probe",
    "request_fingerprint",
    "probe_fingerprint",
    "predict_request",
    "ok",
    "error",
]

#: Version tag clients may send; the server rejects newer majors.
#: v2 introduced probe polymorphism (``probe_kind``); v1 bodies stay
#: accepted.
PROTOCOL_VERSION = 2


def encode_array(a: np.ndarray) -> str:
    """Base64 of the array's little-endian float64 bytes (exact)."""
    arr = np.ascontiguousarray(np.asarray(a, dtype="<f8"))
    return base64.b64encode(arr.tobytes()).decode("ascii")


def decode_array(text: str, *, shape=None) -> np.ndarray:
    """Inverse of :func:`encode_array`; optionally reshape."""
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise ValidationError(f"invalid base64 array field: {exc}") from exc
    if len(raw) % 8:
        raise ValidationError("array byte length is not a multiple of 8")
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if shape is not None:
        try:
            arr = arr.reshape(shape)
        except ValueError as exc:
            raise ValidationError(
                f"array of {arr.size} values cannot take shape {shape}"
            ) from exc
    return arr


def encode_campaign(campaign: RunCampaign) -> dict:
    """JSON-safe dict form of a :class:`~repro.data.dataset.RunCampaign`."""
    return {
        "benchmark": campaign.benchmark,
        "system": campaign.system,
        "runtimes": encode_array(campaign.runtimes),
        "counters": encode_array(campaign.counters),
        "counters_shape": list(campaign.counters.shape),
        "metric_names": list(campaign.metric_names),
    }


def decode_campaign(payload: dict) -> RunCampaign:
    """Inverse of :func:`encode_campaign`, with full input validation."""
    if not isinstance(payload, dict):
        raise ValidationError("campaign must be a JSON object")
    try:
        benchmark = payload["benchmark"]
        system = payload["system"]
        runtimes = decode_array(payload["runtimes"])
        counters = decode_array(
            payload["counters"], shape=tuple(payload["counters_shape"])
        )
        metric_names = tuple(payload["metric_names"])
    except KeyError as exc:
        raise ValidationError(f"campaign is missing field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValidationError(f"malformed campaign payload: {exc}") from exc
    if not isinstance(benchmark, str) or not isinstance(system, str):
        raise ValidationError("campaign benchmark/system must be strings")
    return RunCampaign(benchmark, system, runtimes, counters, metric_names)


def encode_sketch(sketch) -> dict:
    """JSON-safe dict form of a :class:`~repro.core.sketch.QuantileSketch`.

    Levels and values cross the wire as base64 float64 — exact, like
    every other array in the protocol.
    """
    return {
        "levels": encode_array(sketch.levels),
        "values": encode_array(sketch.values),
        "n_runs": int(sketch.n_runs),
    }


def decode_sketch(payload: dict):
    """Inverse of :func:`encode_sketch`, with full input validation."""
    from ..core.sketch import QuantileSketch

    return QuantileSketch(*_sketch_fields(payload, decode_array))


def _sketch_fields(row, decode) -> tuple:
    """``(levels, values, n_runs)`` of one sketch object, arrays read by *decode*."""
    if not isinstance(row, dict):
        raise ValidationError("sketch must be a JSON object")
    try:
        return decode(row["levels"]), decode(row["values"]), row["n_runs"]
    except KeyError as exc:
        raise ValidationError(f"sketch is missing field {exc.args[0]!r}") from exc


def _encode_rows(matrix: np.ndarray) -> list[str]:
    """:func:`encode_array` of each row of a float64 matrix, in one pass."""
    raw, width = np.ascontiguousarray(matrix, dtype="<f8").tobytes(), 8 * matrix.shape[1]
    return [base64.b64encode(raw[i : i + width]).decode("ascii") for i in range(0, len(raw), width)]


def _sketch_probe_body(probe, rows: list) -> dict:
    """The wire dict of a sketch probe, given its encoded rows (runtime first)."""
    body = {"probe_kind": "sketch", "benchmark": probe.benchmark, "system": probe.system}
    body.update(runtime=rows[0], rates=rows[1:], metric_names=list(probe.metric_names))
    if probe.assumption is not None:
        body["assumption"] = probe.assumption
    return body


def _decode_sketch_probe(body, decode):
    """Inverse of :func:`_sketch_probe_body`; *decode* reads each row's arrays."""
    from ..core.sketch import SketchProbe

    if not isinstance(body, dict):
        raise ValidationError("sketch probe must be a JSON object")
    try:
        rows = [_sketch_fields(r, decode) for r in (body["runtime"], *body["rates"])]
        levels, values, n_runs = zip(*rows)
        return SketchProbe.from_arrays(
            body["benchmark"], body["system"], levels, values, n_runs,
            body["metric_names"], body.get("assumption"),
        )
    except KeyError as exc:
        raise ValidationError(f"sketch probe is missing field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValidationError(f"malformed sketch probe: {exc}") from exc


def encode_probe(probe) -> dict:
    """JSON-safe dict form of any :data:`~repro.core.sketch.Probe`.

    The ``probe_kind`` discriminator (``"samples"`` | ``"sketch"``) is
    what v2 predict requests carry.
    """
    from ..core.sketch import SampleProbe, SketchProbe, as_probe

    p = as_probe(probe)
    if isinstance(p, SampleProbe):
        return {"probe_kind": "samples", "campaign": encode_campaign(p.campaign)}
    assert isinstance(p, SketchProbe)
    rows = [
        {"levels": lv, "values": v, "n_runs": n}
        for lv, v, n in zip(_encode_rows(p.levels), _encode_rows(p.values), p.n_runs.tolist())
    ]
    return _sketch_probe_body(p, rows)


def decode_probe(payload: dict):
    """Inverse of :func:`encode_probe`, with full input validation."""
    from ..core.sketch import SampleProbe

    if not isinstance(payload, dict):
        raise ValidationError("probe must be a JSON object")
    kind = payload.get("probe_kind")
    if kind == "samples":
        try:
            campaign = payload["campaign"]
        except KeyError as exc:
            raise ValidationError("samples probe is missing 'campaign'") from exc
        return SampleProbe(decode_campaign(campaign))
    if kind == "sketch":
        return _decode_sketch_probe(payload, decode_array)
    raise ValidationError(
        f'probe_kind must be "samples" or "sketch", got {kind!r}'
    )


def request_fingerprint(
    model_key: str,
    campaign: RunCampaign,
    *,
    n_samples: int = 0,
    sample_seed: int = 0,
) -> str:
    """Content hash identifying a predict request's answer.

    The fingerprint covers the resolved model content key and the exact
    probe bytes, so equal fingerprints imply bit-equal responses — the
    invariant the response cache relies on.
    """
    h = hashlib.sha256()
    canon = json.dumps(
        {
            "model_key": model_key,
            "benchmark": campaign.benchmark,
            "system": campaign.system,
            "metric_names": list(campaign.metric_names),
            "counters_shape": list(campaign.counters.shape),
            "n_samples": int(n_samples),
            "sample_seed": int(sample_seed),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    h.update(canon.encode())
    h.update(np.ascontiguousarray(campaign.runtimes, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(campaign.counters, dtype="<f8").tobytes())
    return h.hexdigest()


def probe_fingerprint(
    model_key: str,
    probe,
    *,
    n_samples: int = 0,
    sample_seed: int = 0,
) -> str:
    """Content hash identifying a probe-polymorphic predict request.

    Sample probes delegate to :func:`request_fingerprint` on the wrapped
    campaign — byte for byte the v1 fingerprint, so a v1 request and its
    v2 ``probe_kind="samples"`` equivalent share one response-cache
    entry.  Sketch probes hash a distinct canonical header (the
    ``"sketch"`` kind tag plus levels/values/run-count bytes), so a
    sketch summary of a campaign can never collide with the campaign
    itself.
    """
    from ..core.sketch import SampleProbe, as_probe

    p = as_probe(probe)
    if isinstance(p, SampleProbe):
        return request_fingerprint(
            model_key, p.campaign, n_samples=n_samples, sample_seed=sample_seed
        )
    h = hashlib.sha256()
    canon = json.dumps(
        {
            "probe_kind": "sketch",
            "model_key": model_key,
            "benchmark": p.benchmark,
            "system": p.system,
            "metric_names": list(p.metric_names),
            "assumption": p.assumption,
            "n_sketches": int(p.values.shape[0]),
            "n_runs": p.n_runs.tolist(),
            "n_samples": int(n_samples),
            "sample_seed": int(sample_seed),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    h.update(canon.encode())
    # Row-major [levels_r | values_r]: each sketch's levels, then values.
    h.update(np.ascontiguousarray(np.hstack([p.levels, p.values]), dtype="<f8").tobytes())
    return h.hexdigest()


def predict_request(
    model: str,
    probe,
    *,
    n_samples: int = 0,
    sample_seed: int = 0,
    deadline_s: float | None = None,
    request_id: str | None = None,
) -> dict:
    """A v2 predict request body for any :data:`~repro.core.sketch.Probe`."""
    encoded = encode_probe(probe)
    body = {
        "op": "predict",
        "version": PROTOCOL_VERSION,
        "model": model,
        "probe_kind": encoded["probe_kind"],
        "probe": encoded,
    }
    if n_samples:
        body["n_samples"] = int(n_samples)
        body["sample_seed"] = int(sample_seed)
    if deadline_s is not None:
        body["deadline_s"] = float(deadline_s)
    if request_id is not None:
        body["id"] = request_id
    return body


def ok(**fields) -> dict:
    """A status-200 response body."""
    body = {"status": 200}
    body.update(fields)
    return body


def error(status: int, message: str, **fields) -> dict:
    """An error response body with HTTP-style *status*."""
    body = {"status": int(status), "error": message}
    body.update(fields)
    return body
