"""Leave-one-group-out evaluation of the two use cases (paper Section V).

The paper scores every (representation, model) combination by holding out
one benchmark at a time — the model never sees the application under test
— predicting its distribution, and recording the KS statistic against the
measured 1,000-run distribution.  The violin plots of Figs. 4, 6, 7 and 8
are distributions of these per-benchmark KS scores.

``evaluate_few_runs`` / ``evaluate_cross_system`` implement that protocol
on prebuilt training rows (featurized once, refit per fold) and return a
tidy :class:`~repro.data.table.ColumnTable` with one row per benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from .._deprecation import warn_deprecated
from .._validation import check_random_state
from ..data.dataset import RunCampaign
from ..data.table import ColumnTable
from ..errors import ValidationError
from ..ml.base import Regressor
from ..ml.boosting import GradientBoostingRegressor
from ..ml.forest import RandomForestRegressor
from ..ml.knn import KNNRegressor
from ..parallel.seeding import seed_for
from ..simbench.suites import suite_of
from .config import DEFAULT_EVAL_SEED, EvalConfig
from .engine import CrossSystemDesign, FewRunsDesign
from .features import FeatureConfig
from .representations import DistributionRepresentation

__all__ = [
    "get_model",
    "MODELS",
    "score_fold_vectors",
    "score_vector_sets",
    "evaluate_few_runs",
    "evaluate_cross_system",
    "summarize_ks",
]

_EVAL_SEED = DEFAULT_EVAL_SEED


def _make_knn() -> Regressor:
    return KNNRegressor(15, metric="cosine")


def _make_rf() -> Regressor:
    # sklearn-default-like: unrestricted depth, single-sample leaves.
    return RandomForestRegressor(
        n_estimators=40, max_depth=None, max_features="sqrt", min_samples_leaf=1, rng=7
    )


def _make_xgboost() -> Regressor:
    # XGBoost-default-like: lr 0.3, depth 6, no row/column subsampling
    # (colsample slightly below 1 keeps single-core runtimes sane while
    # preserving the default's overfitting behaviour on small corpora).
    return GradientBoostingRegressor(
        n_estimators=40,
        learning_rate=0.3,
        max_depth=6,
        subsample=1.0,
        colsample_bytree=0.5,
        min_samples_leaf=1,
        rng=7,
    )


#: The paper's three models under their reporting names.
MODELS: dict[str, object] = {
    "knn": _make_knn,
    "rf": _make_rf,
    "xgboost": _make_xgboost,
}


def get_model(name: str) -> Regressor:
    """Deprecated shim: fresh registered model (use :mod:`repro.registry`)."""
    from .. import registry

    warn_deprecated("repro.core.evaluation.get_model", "repro.registry.model")
    return registry.model(name)


def _legacy_eval_config(
    *,
    representation,
    model,
    n_probe_runs,
    n_replicas,
    feature_config,
    seed,
    n_workers,
    api: str,
) -> EvalConfig:
    """Fold v1 keyword sprawl into an :class:`EvalConfig` (with warning).

    The shim keeps the v1 defaults exactly (``None`` marks "not passed")
    so legacy call sites produce bit-identical results to the seed API.
    """
    warn_deprecated(
        f"calling {api} with bare keyword arguments",
        f"{api}(campaigns, config=EvalConfig(...))",
        stacklevel=4,
    )
    if representation is None or model is None:
        raise ValidationError(
            "representation and model are required (or pass config=EvalConfig(...))"
        )
    return EvalConfig(
        representation=representation,
        model=model,
        n_probe_runs=10 if n_probe_runs is None else n_probe_runs,
        n_replicas=n_replicas,
        feature_config=feature_config,
        seed=_EVAL_SEED if seed is None else seed,
        n_workers=1 if n_workers is None else n_workers,
    )


def _coalesce_config(
    config: EvalConfig | None,
    api: str,
    legacy: dict,
) -> EvalConfig:
    """Resolve the v2 ``config`` argument against v1 keywords.

    Mixing both is an error; a missing config routes through the
    deprecation shim.
    """
    if config is not None:
        passed = sorted(k for k, v in legacy.items() if v is not None)
        if passed:
            raise ValidationError(
                f"pass either config=EvalConfig(...) or legacy keywords, "
                f"not both (got config plus {passed})"
            )
        return config
    return _legacy_eval_config(api=api, **legacy)


def score_fold_vectors(
    vectors: dict[str, np.ndarray],
    representation: DistributionRepresentation,
    measured: dict[str, np.ndarray],
    *,
    seed: int,
) -> ColumnTable:
    """KS-score per-benchmark fold predictions into the tidy result table.

    The scoring RNG is keyed per benchmark, independent of how (or in
    what order) the vectors were produced.
    """
    names = sorted(measured)
    ks_scores = []
    for bench in names:
        rng = check_random_state(seed_for(seed, "ks", bench))
        ks_scores.append(
            representation.ks_score(vectors[bench], measured[bench], rng=rng)
        )
    obs.counter("engine.ks.scored", len(names))
    return ColumnTable(
        {
            "benchmark": names,
            "suite": [suite_of(n) for n in names],
            "ks": np.asarray(ks_scores),
        }
    )


def score_vector_sets(
    vector_sets: list[dict[str, np.ndarray]],
    representation: DistributionRepresentation,
    measured: dict[str, np.ndarray],
    *,
    seed: int,
) -> list[ColumnTable]:
    """Score several fold-prediction sets against one measured corpus.

    Batched sibling of :func:`score_fold_vectors` for sweeps that
    produce multiple prediction sets per benchmark (e.g. the Fig. 6
    probe-size sweep): each benchmark's measured sample is scored once
    *per set* but — for sample-decoded representations — sorted only
    once across all sets via
    :meth:`~repro.core.representations.DistributionRepresentation.ks_score_many`.

    Bit-identical to calling :func:`score_fold_vectors` once per set:
    the scoring RNG is freshly keyed per (benchmark) for every set,
    exactly as the sequential path does.
    """
    names = sorted(measured)
    per_set: list[list[float]] = [[] for _ in vector_sets]
    for bench in names:
        rngs = [
            check_random_state(seed_for(seed, "ks", bench)) for _ in vector_sets
        ]
        scores = representation.ks_score_many(
            [vectors[bench] for vectors in vector_sets],
            measured[bench],
            rngs=rngs,
        )
        for out, score in zip(per_set, scores):
            out.append(float(score))
    obs.counter("engine.ks.scored", len(names) * len(vector_sets))
    suites = [suite_of(n) for n in names]
    return [
        ColumnTable(
            {
                "benchmark": names,
                "suite": suites,
                "ks": np.asarray(scores),
            }
        )
        for scores in per_set
    ]


def evaluate_few_runs(
    campaigns: dict[str, RunCampaign] | None = None,
    config: EvalConfig | None = None,
    *,
    representation: DistributionRepresentation | str | None = None,
    model: Regressor | str | None = None,
    n_probe_runs: int | None = None,
    n_replicas: int | None = None,
    feature_config: FeatureConfig | None = None,
    seed: int | None = None,
    n_workers: int | None = None,
    design: FewRunsDesign | None = None,
    pool=None,
) -> ColumnTable:
    """Use-case-1 LOGO evaluation; one KS score per benchmark.

    The v2 calling convention is ``evaluate_few_runs(campaigns,
    config=EvalConfig(...))``; the bare keyword arguments are the
    deprecated v1 path (kept bit-identical, but emitting
    :class:`DeprecationWarning`).

    The evaluation probe of each benchmark is drawn with a seed stream
    disjoint from the training replicas, so a held-out application is
    scored on a probe the training rows never contained.

    Pass a prebuilt :class:`~repro.core.engine.FewRunsDesign` to share
    featurization (and memoized fold predictions) across several calls —
    the grid runners do this; the design then supersedes ``campaigns``
    and the sampling parameters.  ``n_workers > 1`` fans the per-fold
    refits out across processes without changing any result; pass a
    persistent :class:`~repro.parallel.WorkerPool` as ``pool`` to reuse
    warm workers (and their shared-memory plane) across calls.
    """
    cfg = _coalesce_config(
        config,
        "evaluate_few_runs",
        dict(
            representation=representation,
            model=model,
            n_probe_runs=n_probe_runs,
            n_replicas=n_replicas,
            feature_config=feature_config,
            seed=seed,
            n_workers=n_workers,
        ),
    )
    rep = cfg.resolve_representation()
    if design is None:
        if campaigns is None:
            raise ValidationError("need campaigns or a prebuilt design")
        design = FewRunsDesign(
            campaigns,
            n_probe_runs=cfg.n_probe_runs,
            n_replicas=cfg.replicas(8),
            feature_config=cfg.feature_config,
            seed=cfg.seed,
        )
    vectors = design.fold_vectors(
        cfg.resolve_model(),
        rep,
        model_key=cfg.model_key(),
        n_workers=cfg.n_workers,
        pool=pool,
        probe_spec=cfg.probe_spec(),
    )
    return score_fold_vectors(vectors, rep, design.measured, seed=cfg.seed)


def evaluate_cross_system(
    source_campaigns: dict[str, RunCampaign] | None = None,
    target_campaigns: dict[str, RunCampaign] | None = None,
    config: EvalConfig | None = None,
    *,
    representation: DistributionRepresentation | str | None = None,
    model: Regressor | str | None = None,
    n_replicas: int | None = None,
    feature_config: FeatureConfig | None = None,
    seed: int | None = None,
    n_workers: int | None = None,
    design: CrossSystemDesign | None = None,
    pool=None,
) -> ColumnTable:
    """Use-case-2 LOGO evaluation; one KS score per benchmark.

    The v2 calling convention is ``evaluate_cross_system(src, dst,
    config=EvalConfig(...))``; bare keywords are the deprecated v1 path.
    Accepts a prebuilt :class:`~repro.core.engine.CrossSystemDesign` like
    :func:`evaluate_few_runs` does for use case 1, and a persistent
    ``pool`` like it too.
    """
    cfg = _coalesce_config(
        config,
        "evaluate_cross_system",
        dict(
            representation=representation,
            model=model,
            n_probe_runs=None,
            n_replicas=n_replicas,
            feature_config=feature_config,
            seed=seed,
            n_workers=n_workers,
        ),
    )
    rep = cfg.resolve_representation()
    if design is None:
        if source_campaigns is None or target_campaigns is None:
            raise ValidationError("need campaigns or a prebuilt design")
        common = sorted(set(source_campaigns) & set(target_campaigns))
        if len(common) < 2:
            raise ValidationError(
                "need at least two benchmarks common to both systems"
            )
        design = CrossSystemDesign(
            {k: source_campaigns[k] for k in common},
            {k: target_campaigns[k] for k in common},
            n_replicas=cfg.replicas(4),
            feature_config=cfg.feature_config,
            seed=cfg.seed,
        )
    elif len(design.names) < 2:
        raise ValidationError("need at least two benchmarks common to both systems")
    vectors = design.fold_vectors(
        cfg.resolve_model(),
        rep,
        model_key=cfg.model_key(),
        n_workers=cfg.n_workers,
        pool=pool,
        probe_spec=cfg.probe_spec(),
    )
    return score_fold_vectors(vectors, rep, design.measured, seed=cfg.seed)


@dataclass(frozen=True)
class KSSummary:
    """Aggregate view of a per-benchmark KS table."""

    mean: float
    median: float
    p25: float
    p75: float
    worst: float
    best: float
    n: int


def summarize_ks(table: ColumnTable) -> KSSummary:
    """Mean/median/quartile summary of the ``ks`` column."""
    ks = np.asarray(table["ks"], dtype=np.float64)
    return KSSummary(
        mean=float(ks.mean()),
        median=float(np.median(ks)),
        p25=float(np.percentile(ks, 25)),
        p75=float(np.percentile(ks, 75)),
        worst=float(ks.max()),
        best=float(ks.min()),
        n=int(ks.size),
    )
