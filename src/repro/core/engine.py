"""Shared-featurization LOGO evaluation engine (the grid hot path).

The representation x model grids (paper Figs. 4 and 7) evaluate nine
(representation, model) cells over the same campaign set.  The naive path
rebuilds everything per cell: probe sampling, profile featurization,
per-fold robust scalers and — when two representations encode targets
identically — even the fitted fold models.  This module splits the work
by what it actually depends on:

* a **design** (:class:`FewRunsDesign` / :class:`CrossSystemDesign`)
  holds everything derived from the campaign set alone: sampled probes,
  profile-feature rows, group labels, measured relative times.  Built
  once per grid, reused by all nine cells.
* **target matrices** (and, for use case 2, design matrices) depend on
  the representation's *encoding* only; they are cached per
  :attr:`~repro.core.representations.DistributionRepresentation.encoding_key`,
  so the two four-moment representations share one matrix.
* **fold predictions** depend on (encoding, model).  The design memoizes
  the per-fold predicted vectors under that pair, so e.g. the
  ``pearsonrnd`` cells reuse the models fitted for ``pymaxent`` and pay
  only for KS scoring.
* per-fold **robust scalers** depend on the feature rows only, so use
  case 1 shares them across all cells.

Every cached artifact is a pure function of its key, which is what makes
the sharing bit-identical to the naive per-cell recomputation: the same
arrays flow into the same operations in the same order.

Every fold — serial or pooled, exact or hist — runs one task,
:func:`_fit_predict_fold`, over ``(model, X, Y, groups, codes, held-out
benchmark, probe row, scaler params)``; the task re-derives its
``X[mask]``/``Y[mask]`` views and scaled probe itself.  Fold dispatch
optionally fans out across processes via a
:class:`~repro.parallel.worker_pool.WorkerPool` (the grid runners pass a
persistent one; ad-hoc calls get a transient pool), which *shares* the
task's matrices once per campaign/encoding: shared-memory descriptors
when the pool's store works, the plain arrays (pickled) when it does
not.  The one exception is the boosting lockstep batch, which grows every
fold's trees together in-process.  Folds are independent by
construction — each held-out benchmark refit consumes only per-fold
inputs, and the KS-scoring RNG is keyed per benchmark with
:func:`~repro.parallel.seeding.seed_for` — so worker count, pool reuse
and the shared-memory fallback never change results.

When :mod:`repro.obs` is enabled the engine emits per-fold ``fold``
spans (inline folds) or one ``fold_batch`` span (pooled dispatch and
lockstep) plus the ``engine.*`` dedup/hit counters documented in
``docs/OBSERVABILITY.md``; all of it is bit-neutral bookkeeping.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from .._validation import check_positive_int, check_random_state
from ..data.dataset import RunCampaign
from ..errors import ValidationError
from ..ml.base import Regressor
from ..ml.binning import BinMapper, BinnedMatrix
from ..ml.boosting import can_lockstep, fit_predict_folds
from ..ml.scaling import RobustScaler
from ..parallel.seeding import seed_for
from ..parallel.shm import ArrayRef, attach
from ..parallel.worker_pool import WorkerPool
from .features import FeatureConfig, profile_features
from .representations import DistributionRepresentation

__all__ = ["FewRunsDesign", "CrossSystemDesign", "logo_fold_vectors"]

_PROBE_SEED = 909090


def _resolve(array):
    """The array behind a task field: attach an :class:`ArrayRef`,
    pass a plain ndarray through."""
    return attach(array) if isinstance(array, ArrayRef) else array


def _fit_predict_fold(task) -> np.ndarray:
    """Fit one LOGO fold and predict the held-out probe vector.

    Top-level so it pickles for process-pool dispatch.  ``task`` is
    ``(model, X, Y, groups, codes, bench, probe, center, scale)``:
    the full matrices, the binned matrix's ``(codes, n_bins, lo, hi)``
    for a hist model (``None`` otherwise), the held-out benchmark, its
    raw probe row and the parent-fitted robust-scaler parameters.  Each
    array field is either a shared-memory :class:`ArrayRef` or a plain
    ndarray (pickled or inline); the fold's training views are
    re-derived here either way, so every plane fits bit-for-bit the same
    matrices.  The clone makes the fit independent of any sibling fold.
    """
    model, X, Y, groups, codes, bench, probe, center, scale = task
    X, Y, groups = _resolve(X), _resolve(Y), _resolve(groups)
    mask = groups != bench
    scaler = RobustScaler()
    scaler.center_ = center
    scaler.scale_ = scale
    Xs = scaler.transform(X[mask])
    xp = scaler.transform(probe[None, :])
    fitted = model.clone()
    if codes is None:
        fitted.fit(Xs, Y[mask])
    else:
        # Codes are invariant under the fold's (monotone) scaling; only
        # the bin bounds move.
        binned = BinnedMatrix(*(_resolve(a) for a in codes))
        fitted.fit(Xs, Y[mask], binned=binned.scaled(center, scale).take_rows(mask))
    return fitted.predict(xp)[0]


def _hist_model(model: Regressor) -> bool:
    """Whether *model* trains on the pre-binned histogram path."""
    return getattr(model, "tree_method", None) == "hist"


def _wants_serial(model: Regressor) -> bool:
    """Whether fold dispatch must stay serial to preserve results.

    A stateful ``np.random.Generator`` on the model is advanced by each
    successive fold when folds run inline; pickling would hand every worker
    the same generator state.  Registry models carry integer seeds and
    parallelize freely.
    """
    return isinstance(getattr(model, "rng", None), np.random.Generator)


def logo_fold_vectors(
    X: np.ndarray,
    Y: np.ndarray,
    groups: np.ndarray,
    probe_features: dict[str, np.ndarray],
    model: Regressor,
    *,
    n_workers: int = 1,
    scaled_folds: dict | None = None,
    pool: WorkerPool | None = None,
    binned: BinnedMatrix | None = None,
) -> dict[str, np.ndarray]:
    """Predicted representation vector per held-out benchmark.

    For every benchmark name in ``probe_features`` (sorted), fit
    ``model`` on the rows of all *other* groups (robust-scaled) and
    predict the benchmark's probe vector.  Returns name -> vector.

    ``scaled_folds`` optionally caches the per-fold scaler products
    ``(x_probe_scaled, train_mask, scaler)`` keyed by benchmark; they
    depend only on ``(X, probe_features)``, so a grid sweep can share
    them across every (representation, model) cell with the same
    feature rows.

    ``pool`` optionally supplies a persistent
    :class:`~repro.parallel.worker_pool.WorkerPool`; without one, a
    transient pool is created per call.  Every fold runs
    :func:`_fit_predict_fold` — inline, or on the pool over shared
    arrays (see :func:`_dispatch_folds`).

    For a hist-mode model (``model.tree_method == "hist"``), ``binned``
    optionally supplies the pre-binned matrix of ``X`` (the engine's
    designs cache one per encoding); when absent it is built here.  The
    per-fold training matrix is then derived by re-expressing the bin
    bounds through the fold's scaler (codes are scale-invariant), so
    the one-time binning pass is shared by every fold, and — for a
    boosting model that satisfies :func:`~repro.ml.boosting.can_lockstep`
    — all folds' round-``r`` trees grow as one batch in-process
    regardless of ``n_workers`` (the batch kernel replaces fold-level
    process fan-out).

    Results are bit-identical for any ``n_workers``, with or without a
    persistent pool, on either side of the shared-memory fallback: each
    fold consumes only its own inputs and a deterministic model clone.
    """
    names = sorted(probe_features)
    hist = _hist_model(model)
    if hist and binned is None:
        binned = BinMapper().fit_transform(X)
    folds = []
    for bench in names:
        cached = None if scaled_folds is None else scaled_folds.get(bench)
        if cached is None:
            obs.counter("engine.scaled_folds.misses")
            mask = groups != bench
            scaler = RobustScaler().fit(X[mask])
            cached = (scaler.transform(probe_features[bench][None, :]), mask, scaler)
            if scaled_folds is not None:
                scaled_folds[bench] = cached
        else:
            obs.counter("engine.scaled_folds.hits")
        folds.append(cached)
    obs.counter("engine.folds.fitted", len(folds))
    if hist and can_lockstep(model, [mask for _xp, mask, _scaler in folds]):
        # Lockstep beats fold-level process fan-out here (one kernel
        # call covers every fold), so it runs in-process for any
        # n_workers — which also makes worker-count invariance trivial.
        lockstep_folds = [
            (mask, scaler.center_, scaler.scale_, xp[0])
            for (xp, mask, scaler) in folds
        ]
        with obs.span("fold_batch", n_folds=len(folds), n_workers=1,
                      plane="lockstep"):
            preds = fit_predict_folds(model, binned, Y, lockstep_folds)
        return dict(zip(names, preds))
    codes = None if binned is None else (
        binned.codes, binned.n_bins, binned.lo, binned.hi
    )
    arrays = (X, Y, groups, codes)
    fold_args = [
        (bench, probe_features[bench], scaler.center_, scaler.scale_)
        for bench, (_xp, _mask, scaler) in zip(names, folds)
    ]
    if pool is not None:
        vectors = _dispatch_folds(pool, model, arrays, fold_args, n_workers)
    else:
        with WorkerPool(n_workers) as transient:
            vectors = _dispatch_folds(transient, model, arrays, fold_args,
                                      n_workers)
    return dict(zip(names, vectors))


def _dispatch_folds(
    pool: WorkerPool,
    model: Regressor,
    arrays: tuple,
    fold_args: list[tuple],
    n_workers: int,
) -> list[np.ndarray]:
    """Run :func:`_fit_predict_fold` once per fold, preserving order.

    ``arrays`` is ``(X, Y, groups, codes)`` and each ``fold_args``
    entry is ``(bench, probe, center, scale)``.  Inline
    (``n_workers == 1`` or :func:`_wants_serial`) the folds run in this
    process, in order, one ``fold`` span each.  Otherwise the matrices
    go through :meth:`~repro.parallel.worker_pool.WorkerPool.share`
    once: every task then carries shared-memory descriptors, or — with
    no usable store — the plain arrays, which pickle.  The
    ``fold_batch`` span's ``plane`` records which ran; all paths
    produce bit-identical vectors.
    """
    if n_workers == 1 or _wants_serial(model):
        vectors = []
        for fold in fold_args:
            with obs.span("fold", benchmark=fold[0]):
                vectors.append(_fit_predict_fold((model, *arrays, *fold)))
        return vectors
    codes = arrays[3]
    flat = (*arrays[:3], *(codes or ()))
    shared = pool.share(flat)
    plane = "pickle"
    if isinstance(shared[0], ArrayRef):
        obs.counter(
            "pool.shm_bytes_saved", len(fold_args) * sum(a.nbytes for a in flat)
        )
        plane = "shm"
    if codes is not None:
        plane = "hist-" + plane
    arrays = (*shared[:3], None if codes is None else tuple(shared[3:]))
    with obs.span("fold_batch", n_folds=len(fold_args), n_workers=n_workers,
                  plane=plane):
        return pool.map(
            _fit_predict_fold, [(model, *arrays, *fold) for fold in fold_args]
        )


class _VectorCacheMixin:
    """Memoized (encoding, model, probe-spec) -> fold-prediction vectors."""

    def __init__(self) -> None:
        self._fold_vectors: dict[tuple[str, str, str], dict[str, np.ndarray]] = {}
        self._binned: dict[str, BinnedMatrix] = {}

    def _binned_matrix(self, X: np.ndarray, key: str) -> BinnedMatrix:
        """Pre-binned *X*, cached next to the fold-vector memo.

        One :class:`~repro.ml.binning.BinMapper` fit per (X, encoding):
        every tree, boosting round and LOGO fold of every hist-mode cell
        with the same feature rows shares the codes.
        """
        hit = self._binned.get(key)
        if hit is not None:
            obs.counter("binning.cache_hits")
            return hit
        obs.counter("binning.cache_misses")
        binned = BinMapper().fit_transform(X)
        self._binned[key] = binned
        return binned

    def fold_vectors(
        self,
        model: Regressor,
        representation: DistributionRepresentation,
        *,
        model_key: str | None = None,
        n_workers: int = 1,
        pool=None,
        probe_spec=None,
    ) -> dict[str, np.ndarray]:
        """Per-benchmark fold predictions, cached by (model, encoding, probe).

        ``model_key`` must identify the model's hyperparameters (the
        registry name does); pass ``None`` for ad-hoc model instances to
        bypass the cache.  ``pool`` optionally carries a persistent
        :class:`~repro.parallel.worker_pool.WorkerPool` shared across
        grid cells.

        ``probe_spec`` optionally switches the *evaluation probes* to
        percentile-only sketches (a
        :class:`~repro.core.sketch.SketchProbeSpec`): training still
        consumes full distributions, but each held-out prediction is made
        from the probe's quantile summary.  The spec's key namespaces the
        memo, so sketch and sample evaluations never share a cache entry.
        """
        spec_key = "samples" if probe_spec is None else probe_spec.key
        key = None
        if model_key is not None:
            key = (model_key, representation.encoding_key, spec_key)
            hit = self._fold_vectors.get(key)
            if hit is not None:
                obs.counter("engine.fold_vectors.hits")
                return hit
        obs.counter("engine.fold_vectors.misses")
        vectors = self._compute_fold_vectors(
            model,
            representation,
            n_workers=n_workers,
            pool=pool,
            probe_spec=probe_spec,
        )
        if key is not None:
            self._fold_vectors[key] = vectors
        return vectors

    def _compute_fold_vectors(
        self, model, representation, *, n_workers, pool, probe_spec=None
    ):
        raise NotImplementedError


class FewRunsDesign(_VectorCacheMixin):
    """Use-case-1 featurization, shared across a grid of cells.

    Construction performs all representation-independent work: training
    probes are sampled and profiled into the feature matrix ``X`` (with
    ``groups`` labels), evaluation probes are profiled per benchmark,
    and measured relative-time distributions are extracted.  Identical,
    row for row, to what :func:`repro.core.predictors.build_few_runs_rows`
    plus the evaluation-probe loop produce.
    """

    def __init__(
        self,
        campaigns: dict[str, RunCampaign],
        *,
        n_probe_runs: int = 10,
        n_replicas: int = 8,
        feature_config: FeatureConfig | None = None,
        seed: int = _PROBE_SEED,
    ) -> None:
        super().__init__()
        check_positive_int(n_probe_runs, name="n_probe_runs")
        check_positive_int(n_replicas, name="n_replicas")
        self.n_probe_runs = n_probe_runs
        self.n_replicas = n_replicas
        self.seed = seed
        self.names: list[str] = sorted(campaigns)
        cfg = feature_config or FeatureConfig()
        self.feature_config = cfg

        rows_x, groups = [], []
        self.measured: dict[str, np.ndarray] = {}
        self.probe_features: dict[str, np.ndarray] = {}
        self.eval_probes: dict[str, RunCampaign] = {}
        for name in self.names:
            campaign = campaigns[name]
            if campaign.n_runs < n_probe_runs:
                raise ValidationError(
                    f"{name} has {campaign.n_runs} runs < n_probe_runs={n_probe_runs}"
                )
            rng = check_random_state(seed_for(seed, "probe", name, str(n_probe_runs)))
            for _ in range(n_replicas):
                probe = campaign.sample_runs(n_probe_runs, rng)
                rows_x.append(profile_features(probe, cfg))
                groups.append(name)
            eval_rng = check_random_state(
                seed_for(seed, "eval-probe", name, str(n_probe_runs))
            )
            eval_probe = campaign.sample_runs(n_probe_runs, eval_rng)
            self.eval_probes[name] = eval_probe
            self.probe_features[name] = profile_features(eval_probe, cfg)
            self.measured[name] = campaign.relative_times()
        self.X = np.asarray(rows_x)
        self.groups = np.asarray(groups)
        self._targets: dict[str, np.ndarray] = {}
        self._scaled_folds: dict = {}
        self._sketch_features: dict[str, dict[str, np.ndarray]] = {}
        self._sketch_scaled_folds: dict[str, dict] = {}

    def sketch_probe_features(self, probe_spec) -> dict[str, np.ndarray]:
        """Per-benchmark eval features recovered from sketched probes.

        Each evaluation probe — the *same* sampled probe campaign the
        full-sample path profiles — is summarized to percentiles per the
        :class:`~repro.core.sketch.SketchProbeSpec` and featurized from
        the sketch alone (training rows are untouched: train-full,
        predict-from-percentiles).  Cached per spec key.
        """
        hit = self._sketch_features.get(probe_spec.key)
        if hit is not None:
            return hit
        features = {
            name: probe_spec.probe_from_campaign(probe).features(
                self.feature_config
            )
            for name, probe in self.eval_probes.items()
        }
        self._sketch_features[probe_spec.key] = features
        return features

    def target_matrix(self, representation: DistributionRepresentation) -> np.ndarray:
        """Encoded full-distribution targets, one row per training row.

        Cached per encoding key — the two moment representations share
        one matrix.
        """
        key = representation.encoding_key
        Y = self._targets.get(key)
        if Y is None:
            obs.counter("engine.targets.misses")
            rows = []
            for name in self.names:
                target = representation.encode(self.measured[name])
                rows.extend([target] * self.n_replicas)
            Y = np.asarray(rows)
            self._targets[key] = Y
        else:
            obs.counter("engine.targets.hits")
        return Y

    def rows(self, representation: DistributionRepresentation):
        """(X, Y, groups) — bit-identical to ``build_few_runs_rows``."""
        return self.X, self.target_matrix(representation), self.groups

    def _compute_fold_vectors(
        self, model, representation, *, n_workers, pool, probe_spec=None
    ):
        # Use case 1 has one feature matrix for every encoding, so a
        # single binned cache entry covers the whole grid.
        binned = self._binned_matrix(self.X, "uc1") if _hist_model(model) else None
        if probe_spec is None:
            probe_features_map = self.probe_features
            scaled_folds = self._scaled_folds
        else:
            # The scaled-folds cache stores x_probe_scaled per benchmark,
            # so sketch evaluations get their own dict per spec — sharing
            # the sample-path cache would poison both.
            probe_features_map = self.sketch_probe_features(probe_spec)
            scaled_folds = self._sketch_scaled_folds.setdefault(probe_spec.key, {})
        return logo_fold_vectors(
            self.X,
            self.target_matrix(representation),
            self.groups,
            probe_features_map,
            model,
            n_workers=n_workers,
            scaled_folds=scaled_folds,
            pool=pool,
            binned=binned,
        )


class CrossSystemDesign(_VectorCacheMixin):
    """Use-case-2 featurization, shared across a grid of cells.

    The use-case-2 feature rows concatenate a profile block with the
    *encoded* source distribution, so the design matrix itself depends on
    the representation's encoding.  Construction does everything
    upstream of that — bootstrap replica sampling, profile featurization
    and relative-time extraction — and :meth:`rows` assembles the
    per-encoding matrices on demand (cached by encoding key).  Row
    order and values match
    :func:`repro.core.predictors.build_cross_system_rows` exactly.
    """

    def __init__(
        self,
        source: dict[str, RunCampaign],
        target: dict[str, RunCampaign],
        *,
        n_replicas: int = 4,
        replica_fraction: float = 0.5,
        feature_config: FeatureConfig | None = None,
        seed: int = _PROBE_SEED,
    ) -> None:
        super().__init__()
        check_positive_int(n_replicas, name="n_replicas")
        common = sorted(set(source) & set(target))
        if not common:
            raise ValidationError("source and target campaigns share no benchmarks")
        self.names = common
        self.n_replicas = n_replicas
        self.seed = seed
        cfg = feature_config or FeatureConfig()
        self.feature_config = cfg

        # Per benchmark: replica profile blocks and relative times (the
        # first replica is the full source campaign), plus the measured
        # target distribution.
        self._profiles: dict[str, list[np.ndarray]] = {}
        self._src_times: dict[str, list[np.ndarray]] = {}
        self.measured: dict[str, np.ndarray] = {}
        groups = []
        self._source_full: dict[str, RunCampaign] = {}
        for name in common:
            src, dst = source[name], target[name]
            rng = check_random_state(seed_for(seed, "xsys", name))
            n_half = max(2, int(src.n_runs * replica_fraction))
            profiles, times = [], []
            for r in range(n_replicas):
                probe = src if r == 0 else src.sample_runs(n_half, rng)
                profiles.append(profile_features(probe, cfg))
                times.append(probe.relative_times())
                groups.append(name)
            self._profiles[name] = profiles
            self._src_times[name] = times
            self._source_full[name] = src
            self.measured[name] = dst.relative_times()
        self.groups = np.asarray(groups)
        self._matrices: dict[str, tuple] = {}
        self._sketch_probes: dict[str, dict] = {}
        self._sketch_matrices: dict[tuple[str, str], tuple] = {}

    def sketch_probe_features(
        self, representation: DistributionRepresentation, probe_spec
    ) -> dict[str, np.ndarray]:
        """Per-benchmark eval rows recovered from sketched source campaigns.

        The full-sample path evaluates from the complete source campaign
        (profile block ++ encoded source distribution); the sketch path
        summarizes that same campaign to percentiles first and recovers
        both blocks from the sketch.  Cached per (encoding, spec) pair.
        """
        key = (representation.encoding_key, probe_spec.key)
        hit = self._sketch_matrices.get(key)
        if hit is not None:
            return hit[0]
        probes = self._sketch_probes.get(probe_spec.key)
        if probes is None:
            probes = {
                name: probe_spec.probe_from_campaign(src)
                for name, src in self._source_full.items()
            }
            self._sketch_probes[probe_spec.key] = probes
        rows = {
            name: np.concatenate(
                [
                    p.features(self.feature_config),
                    p.encode_distribution(representation),
                ]
            )
            for name, p in probes.items()
        }
        self._sketch_matrices[key] = (rows, {})
        return rows

    def rows(self, representation: DistributionRepresentation):
        """(X, Y, groups) — bit-identical to ``build_cross_system_rows``."""
        X, Y, _probe, _folds = self._encoded(representation)
        return X, Y, self.groups

    def probe_matrix(self, representation: DistributionRepresentation):
        """Per-benchmark evaluation features (full source campaign)."""
        _X, _Y, probe, _folds = self._encoded(representation)
        return probe

    def _encoded(self, representation: DistributionRepresentation):
        key = representation.encoding_key
        cached = self._matrices.get(key)
        if cached is None:
            obs.counter("engine.targets.misses")
            rows_x, rows_y = [], []
            probe: dict[str, np.ndarray] = {}
            for name in self.names:
                y = representation.encode(self.measured[name])
                for prof, times in zip(self._profiles[name], self._src_times[name]):
                    rows_x.append(
                        np.concatenate([prof, representation.encode(times)])
                    )
                    rows_y.append(y)
                # Evaluation features reuse the full-campaign replica.
                probe[name] = np.concatenate(
                    [
                        self._profiles[name][0],
                        representation.encode(self._src_times[name][0]),
                    ]
                )
            cached = (np.asarray(rows_x), np.asarray(rows_y), probe, {})
            self._matrices[key] = cached
        else:
            obs.counter("engine.targets.hits")
        return cached

    def _compute_fold_vectors(
        self, model, representation, *, n_workers, pool, probe_spec=None
    ):
        X, Y, probe, folds = self._encoded(representation)
        if probe_spec is not None:
            # Training matrices stay full-sample; only the held-out
            # evaluation rows switch to sketch recovery.  The fold cache
            # is per (encoding, spec) — its x_probe_scaled entries are
            # probe-dependent.
            probe = self.sketch_probe_features(representation, probe_spec)
            folds = self._sketch_matrices[
                (representation.encoding_key, probe_spec.key)
            ][1]
        # Use case 2's feature rows embed the encoded source
        # distribution, so the binned matrix is per encoding.
        binned = (
            self._binned_matrix(X, representation.encoding_key)
            if _hist_model(model)
            else None
        )
        return logo_fold_vectors(
            X,
            Y,
            self.groups,
            probe,
            model,
            n_workers=n_workers,
            scaled_folds=folds,
            pool=pool,
            binned=binned,
        )
