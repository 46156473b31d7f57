"""Percentile-only probes: :class:`QuantileSketch` and the ``Probe`` union.

The paper's pipelines consume raw sample arrays — a thousand runtimes
and a counter matrix per campaign.  Production telemetry does not export
raw samples; it exports percentiles (p50/p95/p99 per metric, plus a run
count).  This module is the representation-layer bridge between the two:

* :class:`QuantileSketch` — a frozen, validated set of ``(level,
  value)`` pairs plus the run count they summarize.  Sketches merge
  (weighted mixture-CDF inversion) and — the substantive part — recover
  the moments and model features the predictors need, under an
  explicit, selectable distributional **assumption**:

  - ``"lognormal"`` — the same p50/p99 closed form the fleet's
    :class:`~repro.serving.fleet.admission.KingmanAdmission` gate uses
    (shared implementation in :mod:`repro.stats.lognormal`);
  - ``"pearson"`` — distribution-agnostic: moments are integrated from
    the piecewise-linear quantile reconstruction and projected into the
    Pearson-feasible region.

* :class:`SampleProbe` / :class:`SketchProbe` — the ``Probe`` union the
  predictors accept.  A ``SampleProbe`` wraps a
  :class:`~repro.data.dataset.RunCampaign` and reproduces the historical
  sample path bit for bit; a ``SketchProbe`` stores the runtime sketch
  and one per-second-rate sketch per metric as matrix rows and
  synthesizes the same feature layout
  (:func:`~repro.core.features.profile_features` order) from
  percentiles alone.

Validation (:func:`_check_rows`) and moment recovery
(:func:`_row_moments`) are written once, over matrix rows; a
:class:`QuantileSketch` is their one-row case.

Everything here is deterministic: no RNG is consumed anywhere on the
sketch path, so a sketch probe answered by the TCP server is bitwise
identical to the direct in-process call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._deprecation import warn_deprecated
from .._validation import as_float_array, as_sample_array, check_positive_int, check_random_state
from ..data.dataset import RunCampaign
from ..errors import ValidationError
from ..registry import ASSUMPTIONS
from ..registry import assumption as check_assumption
from ..stats.lognormal import fit_lognormal, fit_lognormal_rows, lognormal_cdf, lognormal_moments
from ..stats.lognormal import lognormal_quantile
from ..stats.moments import MomentVector, nearest_feasible
from .features import FeatureConfig, profile_features
from .quantile_representation import QuantileRepresentation, _QuantileReconstruction
from .representations import (
    DistributionRepresentation,
    HistogramRepresentation,
    ReconstructedDistribution,
)

__all__ = [
    "DEFAULT_SKETCH_LEVELS",
    "DEFAULT_ASSUMPTION",
    "ASSUMPTIONS",
    "check_assumption",
    "QuantileSketch",
    "SampleProbe",
    "SketchProbe",
    "SketchProbeSpec",
    "Probe",
    "as_probe",
    "encode_from_sketch",
]

#: Percentile levels production telemetry typically exports (and the
#: levels the percentile-only evaluation uses): p50/p90/p95/p99.
DEFAULT_SKETCH_LEVELS: tuple[float, ...] = (0.5, 0.9, 0.95, 0.99)

#: Assumption applied when neither the probe nor the consumer pins one.
DEFAULT_ASSUMPTION = "lognormal"

#: Tolerance used when matching user-supplied levels (plain ``==`` on
#: floats would be fragile; levels are nominal constants like 0.99).
_LEVEL_TOL = 1e-9


def _check_rows(levels, values) -> tuple[np.ndarray, np.ndarray]:
    """Validate ``(n_rows, n_levels)`` level/value matrices in one pass.

    Per row: at least two levels, strictly increasing inside ``(0, 1)``;
    finite values, strictly positive and non-decreasing.  Sequences of
    rows are stacked; rows of different lengths cannot form a matrix.
    """
    for rows in (levels, values):
        sizes = set() if isinstance(rows, np.ndarray) else set(map(len, rows))
        if len(sizes) > 1:
            raise ValidationError(
                f"every sketch of a probe needs the same number of levels, got {sorted(sizes)}"
            )
    lv = as_float_array(levels, name="levels", allow_empty=False)
    vals = as_float_array(values, name="values", allow_empty=False)
    if lv.ndim != 2 or lv.shape != vals.shape:
        raise ValidationError(
            f"levels and values must be matching (n_rows, n_levels) matrices, got "
            f"shapes {lv.shape} and {vals.shape}"
        )
    if lv.shape[1] < 2:
        raise ValidationError("a sketch needs at least two levels")
    if np.any((lv <= 0.0) | (lv >= 1.0)):
        raise ValidationError("levels must lie strictly inside (0, 1)")
    if np.any(np.diff(lv, axis=1) <= 0.0):
        raise ValidationError("levels must be strictly increasing")
    if np.any(vals <= 0.0):
        raise ValidationError("sketch values must be strictly positive")
    if np.any(np.diff(vals, axis=1) < 0.0):
        raise ValidationError("sketch values must be monotone non-decreasing in level")
    return lv, vals


def _piecewise_linear_rows(levels: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``(n_rows, 4)`` moments of each row's piecewise-linear quantiles.

    A row's quantile function linearly interpolates ``(levels, values)``
    and is constant beyond the end levels (what
    :class:`~repro.core.quantile_representation.QuantileRepresentation`
    decodes to).  Raw moments ``E[X^k] = ∫₀¹ Q(u)^k du`` integrate in
    closed form per segment over the whole matrix, with no RNG; the
    central-moment tail stays scalar per row, bitwise the one-row result.
    """
    n = levels.shape[0]
    u = np.hstack([np.zeros((n, 1)), levels, np.ones((n, 1))])
    v = np.hstack([values[:, :1], values, values[:, -1:]])
    du = np.diff(u, axis=1)
    v0, v1 = v[:, :-1], v[:, 1:]
    dv = v1 - v0
    raw = np.empty((n, 4), dtype=np.float64)
    # Segments where Q is (nearly) constant integrate as v0^k * du; the
    # rest use the antiderivative of a linear function raised to k.
    flat = np.abs(dv) < 1e-12 * np.maximum(np.abs(v0), 1.0)
    for k in range(1, 5):
        seg = np.where(
            flat,
            v0**k * du,
            (v1 ** (k + 1) - v0 ** (k + 1)) / ((k + 1) * np.where(flat, 1.0, dv)) * du,
        )
        raw[:, k - 1] = seg.sum(axis=1)
    out = np.empty((n, 4), dtype=np.float64)
    for i, (e1, e2, e3, e4) in enumerate(raw.tolist()):
        m2 = e2 - e1 * e1
        m3 = e3 - 3.0 * e1 * e2 + 2.0 * e1**3
        m4 = e4 - 4.0 * e1 * e3 + 6.0 * e1 * e1 * e2 - 3.0 * e1**4
        if m2 <= 0.0:
            out[i] = (e1, 0.0, 0.0, 3.0)
        else:
            out[i] = nearest_feasible(e1, math.sqrt(m2), m3 / m2**1.5, m4 / (m2 * m2))
    return out


def _row_moments(
    levels: np.ndarray, values: np.ndarray, kind: str, *, log: bool = False
) -> np.ndarray:
    """``(n_rows, 4)`` moments of every sketch row under assumption *kind*.

    With *log*, of the logarithm of the sketched variable: its sketch is
    ``log`` of the values (quantiles commute with monotone maps), and
    under the lognormal assumption ``log X`` is normal ``(mu, sigma, 0, 3)``.
    """
    if kind == "lognormal":
        mu, sigma = fit_lognormal_rows(levels, values)
        if log:
            return np.column_stack([mu, sigma, np.zeros_like(mu), np.full_like(mu, 3.0)])
        rows = [lognormal_moments(m, s).as_array() for m, s in zip(mu.tolist(), sigma.tolist())]
        return np.array(rows, dtype=np.float64).reshape(-1, 4)
    # The piecewise-linear integrator assumes nothing about sign, so it
    # applies directly to the log-transformed quantile function.
    return _piecewise_linear_rows(levels, np.log(values) if log else values)


@dataclass(frozen=True)
class _LogNormalReconstruction(ReconstructedDistribution):
    """Lognormal decode of a sketch (analytic CDF, seeded sampling)."""

    mu: float
    sigma: float

    def sample(self, n: int, rng=None) -> np.ndarray:
        gen = check_random_state(rng)
        return np.exp(self.mu + self.sigma * gen.standard_normal(n))

    def cdf(self, x) -> np.ndarray:
        return lognormal_cdf(x, self.mu, self.sigma)


@dataclass(frozen=True)
class QuantileSketch:
    """A validated percentile summary: (level, value) pairs + run count.

    Attributes
    ----------
    levels:
        Quantile levels, strictly increasing, each inside ``(0, 1)``.
    values:
        Quantile values at those levels — finite, strictly positive
        (runtimes and counter rates are positive quantities), and
        monotone non-decreasing.
    n_runs:
        Number of underlying runs the percentiles summarize (merge
        weights and pseudo-sample counts derive from it).
    """

    levels: np.ndarray
    values: np.ndarray
    n_runs: int

    def __post_init__(self) -> None:
        """Validate as the one-row case of the probe checks; normalize."""
        lv = np.atleast_1d(np.asarray(self.levels, dtype=np.float64))
        vals = np.atleast_1d(np.asarray(self.values, dtype=np.float64))
        _check_rows(lv[None], vals[None])
        object.__setattr__(self, "levels", lv)
        object.__setattr__(self, "values", vals)
        check_positive_int(self.n_runs, name="n_runs")

    @classmethod
    def from_samples(
        cls, samples, levels: tuple[float, ...] = DEFAULT_SKETCH_LEVELS
    ) -> "QuantileSketch":
        """Summarize a raw sample array at the given levels."""
        x = as_sample_array(samples, min_size=1)
        lv = np.asarray(levels, dtype=np.float64)
        return cls(levels=lv, values=np.quantile(x, lv), n_runs=int(x.size))

    @property
    def n_levels(self) -> int:
        """Number of (level, value) pairs."""
        return int(self.levels.size)

    def quantile(self, q) -> np.ndarray:
        """Interpolated quantile value(s) at probability *q* (clamped)."""
        qs = np.atleast_1d(np.asarray(q, dtype=np.float64))
        return np.interp(qs, self.levels, self.values)

    def value_at(self, level: float) -> float:
        """Value at one level — exact when the level is in the sketch."""
        hits = np.flatnonzero(np.abs(self.levels - level) < _LEVEL_TOL)
        if hits.size:
            return float(self.values[hits[0]])
        return float(self.quantile(level)[0])

    def scaled(self, factor: float) -> "QuantileSketch":
        """Sketch of the variable multiplied by a positive constant."""
        if not factor > 0.0:
            raise ValidationError(f"scale factor must be > 0, got {factor}")
        return QuantileSketch(self.levels, self.values * factor, self.n_runs)

    def _padded(self) -> tuple[np.ndarray, np.ndarray]:
        """Quantile function padded to the full unit interval."""
        levels = np.concatenate([[0.0], self.levels, [1.0]])
        values = np.concatenate(
            [[self.values[0]], self.values, [self.values[-1]]]
        )
        return levels, values

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Combine two sketches over the same levels (mixture semantics).

        The merged sketch summarizes the pooled run set: its CDF is the
        run-count-weighted mixture of the two piecewise-linear CDFs,
        inverted back at the common levels.  Deterministic, associative
        up to interpolation error, and exact for identical inputs.
        """
        if not isinstance(other, QuantileSketch):
            raise ValidationError(
                f"can only merge QuantileSketch, got {type(other).__name__}"
            )
        if self.levels.shape != other.levels.shape or np.any(
            np.abs(self.levels - other.levels) > _LEVEL_TOL
        ):
            raise ValidationError(
                "sketch merge requires identical level sets; resample one "
                "side first"
            )
        grid = np.union1d(self.values, other.values)
        f1 = np.interp(grid, self.values, self.levels, left=0.0, right=1.0)
        f2 = np.interp(grid, other.values, other.levels, left=0.0, right=1.0)
        w1 = self.n_runs / (self.n_runs + other.n_runs)
        mix = w1 * f1 + (1.0 - w1) * f2
        # Invert the mixture CDF at the common levels; accumulate keeps
        # the result monotone through interpolation ties.
        merged = np.interp(self.levels, mix, grid)
        merged = np.maximum.accumulate(merged)
        return QuantileSketch(self.levels, merged, self.n_runs + other.n_runs)

    def lognormal_fit(self) -> tuple[float, float]:
        """``(mu, sigma)`` of the lognormal pinned by this sketch.

        Uses the exact p50/p99 closed form when both levels are present
        (bit-identical to the admission gate's estimator), else a
        least-squares fit through all levels.
        """
        return fit_lognormal(self.levels, self.values)

    def moments(self, assumption: str = DEFAULT_ASSUMPTION) -> MomentVector:
        """First four moments recovered under *assumption*."""
        row = _row_moments(self.levels[None], self.values[None], check_assumption(assumption))
        return MomentVector.from_array(row[0])

    def log_moments(self, assumption: str = DEFAULT_ASSUMPTION) -> MomentVector:
        """Moments of the *logarithm* of the sketched variable (see :func:`_row_moments`)."""
        kind = check_assumption(assumption)
        row = _row_moments(self.levels[None], self.values[None], kind, log=True)
        return MomentVector.from_array(row[0])

    def reconstruct(
        self, assumption: str = DEFAULT_ASSUMPTION
    ) -> ReconstructedDistribution:
        """Decoded distribution (sampleable, CDF-evaluable)."""
        kind = check_assumption(assumption)
        if kind == "lognormal":
            mu, sigma = self.lognormal_fit()
            return _LogNormalReconstruction(mu, sigma)
        # The piecewise-linear quantile decode QuantileRepresentation uses.
        return _QuantileReconstruction(*self._padded())

    def pseudo_samples(
        self, n: int | None = None, assumption: str = DEFAULT_ASSUMPTION
    ) -> np.ndarray:
        """Deterministic inverse-CDF draws (midpoint stratification).

        The fallback encoding path for representations without a direct
        sketch formula: *n* (default ``n_runs``) evenly stratified
        quantiles of the reconstruction.  No RNG is consumed.
        """
        count = self.n_runs if n is None else check_positive_int(n, name="n")
        u = (np.arange(count, dtype=np.float64) + 0.5) / count
        kind = check_assumption(assumption)
        if kind == "lognormal":
            mu, sigma = self.lognormal_fit()
            return lognormal_quantile(u, mu, sigma)
        levels, values = self._padded()
        return np.interp(u, levels, values)

    def to_wire(self) -> dict:
        """Deprecated plain-float dict form; the server speaks base64."""
        warn_deprecated("QuantileSketch.to_wire", "repro.serving.protocol.encode_sketch")
        return _plain_row(self.levels, self.values, self.n_runs)

    @classmethod
    def from_wire(cls, payload: dict) -> "QuantileSketch":
        """Deprecated inverse of :meth:`to_wire`, fully validated."""
        warn_deprecated("QuantileSketch.from_wire", "repro.serving.protocol.decode_sketch")
        from ..serving.protocol import _sketch_fields

        return cls(*_sketch_fields(payload, np.asarray))


def _plain_row(levels, values, n_runs) -> dict:
    """One sketch in plain-float form (floats round-trip float64 exactly)."""
    return {"levels": levels.tolist(), "values": values.tolist(), "n_runs": int(n_runs)}


@dataclass(frozen=True)
class SampleProbe:
    """A probe backed by raw samples — the historical input, wrapped.

    Every code path through a ``SampleProbe`` calls exactly the
    functions the raw-campaign path called
    (:func:`~repro.core.features.profile_features`,
    ``representation.encode(campaign.relative_times())``), so wrapping a
    campaign changes no output bit.
    """

    campaign: RunCampaign

    def __post_init__(self) -> None:
        """Reject non-campaign payloads early with a clear message."""
        if not isinstance(self.campaign, RunCampaign):
            raise ValidationError(
                f"SampleProbe wraps a RunCampaign, got "
                f"{type(self.campaign).__name__}"
            )

    @property
    def kind(self) -> str:
        """Wire discriminator: ``"samples"``."""
        return "samples"

    @property
    def benchmark(self) -> str:
        """Benchmark name of the underlying campaign."""
        return self.campaign.benchmark

    @property
    def system(self) -> str:
        """System name of the underlying campaign."""
        return self.campaign.system

    def features(
        self,
        config: FeatureConfig | None = None,
        *,
        assumption: str | None = None,
    ) -> np.ndarray:
        """Profile features; *assumption* is ignored (samples need none)."""
        return profile_features(self.campaign, config)

    def encode_distribution(
        self,
        representation: DistributionRepresentation,
        *,
        assumption: str | None = None,
    ) -> np.ndarray:
        """Encoded relative-time distribution of the campaign."""
        return representation.encode(self.campaign.relative_times())


@dataclass(frozen=True, init=False)
class SketchProbe:
    """A percentile-only probe: runtime + per-metric rate sketches, as rows.

    Attributes
    ----------
    benchmark / system:
        Identity of the summarized campaign.
    levels / values / n_runs:
        ``(1 + n_metrics, n_levels)`` float64 matrices and an int64 run
        count per row: row 0 the absolute runtime in seconds, row
        ``1 + j`` the per-second rate of metric ``j``.  Rows share one
        level count; level values may differ per row.
    metric_names:
        Labels of the rate rows.
    assumption:
        Moment-recovery assumption pinned by the probe's producer, or
        ``None`` to defer to the consumer (predictor/config default).
    """

    benchmark: str
    system: str
    levels: np.ndarray
    values: np.ndarray
    n_runs: np.ndarray
    metric_names: tuple[str, ...]
    assumption: str | None

    def __init__(
        self, benchmark: str, system: str, runtime_sketch: QuantileSketch, rate_sketches,
        metric_names, assumption: str | None = None,
    ) -> None:
        """Stack one runtime sketch and the per-metric rate sketches."""
        rows = (runtime_sketch, *rate_sketches)
        if not all(isinstance(sk, QuantileSketch) for sk in rows):
            raise ValidationError("probe sketches must be QuantileSketch objects")
        columns = ([sk.levels for sk in rows], [sk.values for sk in rows], [sk.n_runs for sk in rows])
        self._set(benchmark, system, *columns, metric_names, assumption)

    @classmethod
    def from_arrays(
        cls, benchmark, system, levels, values, n_runs, metric_names, assumption=None
    ) -> "SketchProbe":
        """From level/value matrices (or equal-length rows), runtime row first."""
        probe = cls.__new__(cls)
        probe._set(benchmark, system, levels, values, n_runs, metric_names, assumption)
        return probe

    def _set(self, benchmark, system, levels, values, n_runs, names, assumption) -> None:
        """Validate every field in one vectorized pass, then freeze them."""
        if not isinstance(benchmark, str) or not isinstance(system, str):
            raise ValidationError("probe benchmark/system must be strings")
        lv, vals = _check_rows(levels, values)
        names = tuple(names)
        if len(names) != lv.shape[0] - 1:
            raise ValidationError(f"{lv.shape[0] - 1} rate sketches for {len(names)} metric names")
        try:  # bools would pass as integers once converted
            kinds, runs = set(map(type, n_runs)), np.asarray(n_runs)
        except (TypeError, ValueError):  # not a flat sequence
            kinds, runs = set(), np.asarray(None)
        if kinds & {bool, np.bool_} or runs.dtype.kind not in "iu" or runs.shape != lv.shape[:1]:
            raise ValidationError("n_runs must hold one integer per sketch row")
        if np.any(runs <= 0):
            raise ValidationError("n_runs must be positive")
        if assumption is not None:
            assumption = check_assumption(assumption)
        self.__dict__.update(
            benchmark=benchmark, system=system, levels=lv, values=vals,
            n_runs=runs.astype(np.int64), metric_names=names, assumption=assumption,
        )

    @property
    def kind(self) -> str:
        """Wire discriminator: ``"sketch"``."""
        return "sketch"

    @property
    def runtime_sketch(self) -> QuantileSketch:
        """Row 0 as a :class:`QuantileSketch` (built on access)."""
        return QuantileSketch(self.levels[0], self.values[0], int(self.n_runs[0]))

    @property
    def rate_sketches(self) -> tuple[QuantileSketch, ...]:
        """Rows 1.. as :class:`QuantileSketch` objects (built on access)."""
        rows = zip(self.levels[1:], self.values[1:], self.n_runs[1:].tolist())
        return tuple(QuantileSketch(*row) for row in rows)

    @classmethod
    def from_campaign(
        cls,
        campaign: RunCampaign,
        *,
        levels: tuple[float, ...] = DEFAULT_SKETCH_LEVELS,
        assumption: str | None = None,
    ) -> "SketchProbe":
        """Summarize a measured campaign down to percentiles.

        This is what a telemetry exporter would do fleet-side; the
        evaluation uses it to simulate percentile-only ingestion from
        full measured campaigns.
        """
        lv = np.asarray(levels, dtype=np.float64)
        samples = np.column_stack([campaign.runtimes, campaign.rates()])
        values = np.quantile(samples, lv, axis=0).T
        n_rows = values.shape[0]
        return cls.from_arrays(
            campaign.benchmark, campaign.system, np.tile(lv, (n_rows, 1)), values,
            np.full(n_rows, campaign.runtimes.size), campaign.metric_names, assumption,
        )

    def resolve_assumption(self, default: str | None = None) -> str:
        """The probe's assumption, else *default*, else ``"lognormal"``."""
        if self.assumption is not None:
            return self.assumption
        if default is not None:
            return check_assumption(default)
        return DEFAULT_ASSUMPTION

    def features(
        self,
        config: FeatureConfig | None = None,
        *,
        assumption: str | None = None,
    ) -> np.ndarray:
        """Recovered profile features, matching the sample-path layout.

        Per metric, the (mean, std, skew, kurt) of the per-second rate —
        of the *log* rate when the config says so, recovered through the
        resolved assumption — flattened metric-major exactly like
        :func:`~repro.core.features.profile_features`.
        """
        cfg = config or FeatureConfig()
        kind = self.resolve_assumption(assumption)
        rows = _row_moments(self.levels[1:], self.values[1:], kind, log=cfg.log_rates)
        return rows[:, : cfg.n_moments].ravel()

    def relative_runtime_sketch(
        self, assumption: str | None = None
    ) -> QuantileSketch:
        """Runtime sketch rescaled to mean 1 (the paper's relative time).

        The mean is recovered under the resolved assumption — the only
        way to normalize when only percentiles are known.
        """
        kind = self.resolve_assumption(assumption)
        runtime = self.runtime_sketch
        return runtime.scaled(1.0 / runtime.moments(kind).mean)

    def encode_distribution(
        self,
        representation: DistributionRepresentation,
        *,
        assumption: str | None = None,
    ) -> np.ndarray:
        """Encoded relative-time distribution recovered from the sketch."""
        kind = self.resolve_assumption(assumption)
        return encode_from_sketch(
            representation, self.relative_runtime_sketch(kind), kind
        )

    def to_wire(self) -> dict:
        """Deprecated plain-float dict form; the server speaks base64."""
        warn_deprecated("SketchProbe.to_wire", "repro.serving.protocol.encode_probe")
        from ..serving.protocol import _sketch_probe_body

        return _sketch_probe_body(self, list(map(_plain_row, self.levels, self.values, self.n_runs)))

    @classmethod
    def from_wire(cls, payload: dict) -> "SketchProbe":
        """Deprecated inverse of :meth:`to_wire`, fully validated."""
        warn_deprecated("SketchProbe.from_wire", "repro.serving.protocol.decode_probe")
        from ..serving.protocol import _decode_sketch_probe

        return _decode_sketch_probe(payload, np.asarray)


#: The unified predictor input: raw samples or percentile summaries.
Probe = SampleProbe | SketchProbe


@dataclass(frozen=True)
class SketchProbeSpec:
    """How the evaluation derives sketch probes from measured campaigns.

    A tiny value object threaded through
    :class:`~repro.core.config.EvalConfig` into the engine designs: the
    levels to summarize at and the assumption to recover under.  Its
    :attr:`key` namespaces the engine's fold-vector memo so sketch-probe
    and sample-probe predictions never share a cache entry.
    """

    levels: tuple[float, ...] = DEFAULT_SKETCH_LEVELS
    assumption: str = DEFAULT_ASSUMPTION

    def __post_init__(self) -> None:
        """Validate levels/assumption eagerly (specs live in configs)."""
        object.__setattr__(self, "levels", tuple(float(x) for x in self.levels))
        # The probe's level rules; valid levels are valid values too.
        _check_rows([self.levels], [self.levels])
        object.__setattr__(self, "assumption", check_assumption(self.assumption))

    @property
    def key(self) -> str:
        """Stable memo-key component for the engine caches."""
        lv = ",".join(repr(x) for x in self.levels)
        return f"sketch:{self.assumption}:{lv}"

    def probe_from_campaign(self, campaign: RunCampaign) -> SketchProbe:
        """Summarize one campaign per this spec."""
        return SketchProbe.from_campaign(
            campaign, levels=self.levels, assumption=self.assumption
        )


def as_probe(obj) -> Probe:
    """Coerce predictor input into the ``Probe`` union.

    A :class:`~repro.data.dataset.RunCampaign` becomes a
    :class:`SampleProbe` (the historical path, bit-identical); probes
    pass through; anything else is a validation error.
    """
    if isinstance(obj, (SampleProbe, SketchProbe)):
        return obj
    if isinstance(obj, RunCampaign):
        return SampleProbe(obj)
    raise ValidationError(
        f"expected a RunCampaign, SampleProbe, or SketchProbe, got "
        f"{type(obj).__name__}"
    )


def encode_from_sketch(
    representation: DistributionRepresentation,
    sketch: QuantileSketch,
    assumption: str = DEFAULT_ASSUMPTION,
) -> np.ndarray:
    """Encode a (relative-time) sketch into a representation's vector.

    Per representation family:

    * four-moment encodings (``encoding_key == "moments4"``) take the
      recovered :meth:`QuantileSketch.moments` directly;
    * quantile encodings interpolate the sketch's quantile function at
      the representation's own levels;
    * histograms integrate the reconstruction's CDF over the grid (with
      the grid's clip-into-boundary-bins semantics);
    * anything else encodes deterministic
      :meth:`~QuantileSketch.pseudo_samples` — exact for none, defined
      for all.
    """
    kind = check_assumption(assumption)
    if representation.encoding_key == "moments4":
        return sketch.moments(kind).as_array()
    if isinstance(representation, QuantileRepresentation):
        return sketch.quantile(representation.levels)
    if isinstance(representation, HistogramRepresentation):
        grid = representation.grid
        edges = grid.edges
        cdf = np.clip(sketch.reconstruct(kind).cdf(edges), 0.0, 1.0)
        probs = np.diff(cdf)
        # Mass outside the grid is clipped into the boundary bins, the
        # same convention HistogramGrid.encode applies to raw samples.
        probs[0] += cdf[0]
        probs[-1] += 1.0 - cdf[-1]
        return probs / grid.width
    return representation.encode(sketch.pseudo_samples(assumption=kind))
