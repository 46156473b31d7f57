"""Random forest regression (Breiman 2001), one of the paper's three models.

Bagged multi-output CART trees with per-node feature subsampling.  The
forest averages whole distribution-representation vectors, exactly as the
paper's scikit-learn ``RandomForestRegressor`` does for multi-output
targets.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

from .. import obs
from .._validation import check_positive_int, check_random_state
from ..errors import ValidationError
from ..parallel.pool import parallel_map
from .base import Regressor, validate_fit_inputs
from .tree import RegressionTree, check_tree_method, n_candidate_features

__all__ = ["RandomForestRegressor"]


def _fit_one_tree(Xv, yv, tree_params, bootstrap, seq) -> RegressionTree:
    """Fit one forest member from its spawned seed sequence.

    Top-level (and driven purely by ``seq``) so tree fits can fan out
    across processes with results independent of scheduling: every tree
    derives its feature subsampling *and* bootstrap rows from its own
    pre-spawned stream.
    """
    tree_rng = np.random.default_rng(seq)
    tree = RegressionTree(rng=tree_rng, **tree_params)
    n = Xv.shape[0]
    if bootstrap:
        rows = tree_rng.integers(0, n, size=n)
    else:
        rows = np.arange(n)
    return tree.fit(Xv, yv, sample_indices=rows)


class RandomForestRegressor(Regressor):
    """Bagging ensemble of :class:`~repro.ml.tree.RegressionTree`.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf:
        Passed through to each tree.
    max_features:
        Per-node feature subsampling; defaults to ``"sqrt"`` — with the
        paper's ~270-dimensional profile features this keeps trees
        decorrelated.
    bootstrap:
        Sample rows with replacement per tree (classic bagging).
    rng:
        Seed or Generator; child trees get independent spawned streams so
        results are reproducible regardless of fitting order.
    n_jobs:
        Processes fitting trees concurrently (1 = in-process serial,
        ``None`` = :func:`repro.parallel.pool.default_workers`).  Any
        value yields bit-identical forests because each tree is a pure
        function of its pre-spawned seed stream.
    tree_method:
        ``"exact"`` (default) fits each tree with the per-node sorted
        scan; ``"hist"`` bins the matrix once and grows *all* trees as
        one level-wise batch on the shared uint8 codes
        (:mod:`repro.ml.hist`) — the batch kernel amortizes per-node
        NumPy overhead across the whole forest, so the hist path runs
        in-process and ignores ``n_jobs``.  Joint growth is bit-identical
        to growing each tree solo from its spawned stream.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        *,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | float | str | None = "sqrt",
        bootstrap: bool = True,
        rng=None,
        n_jobs: int | None = 1,
        tree_method: str = "exact",
    ) -> None:
        self.n_estimators = check_positive_int(n_estimators, name="n_estimators")
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.rng = rng
        self.n_jobs = n_jobs
        self.tree_method = check_tree_method(tree_method)

    def _fit_hist(self, yv, seeds, binned) -> None:
        """Grow the whole forest as one batch on pre-binned codes."""
        from .hist import TreeSpec, grow_trees

        n, d = binned.n_rows, binned.n_features
        k = yv.shape[1]
        specs = []
        for seq in seeds:
            # Same stream discipline as _fit_one_tree: the spawned
            # generator draws the bootstrap rows first, then feeds the
            # tree's per-node candidate draws.
            tree_rng = np.random.default_rng(seq)
            rows = (
                tree_rng.integers(0, n, size=n)
                if self.bootstrap
                else np.arange(n)
            )
            specs.append(TreeSpec(rows=rows, rng=tree_rng))
        timing = obs.enabled()
        grown, stats = grow_trees(
            binned,
            yv.astype(np.float32),
            yv,
            specs,
            n_cand=n_candidate_features(self.max_features, d),
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            timing=timing,
        )
        trees = []
        for g in grown:
            t = RegressionTree(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                tree_method="hist",
            )
            t._adopt_grown(g, d, k)
            trees.append(t)
        self.trees_ = trees
        if timing:
            obs.counter("tree.fits", len(grown))
            obs.counter("tree.nodes", stats.nodes)
            obs.counter("tree.hist_nodes", stats.nodes)
            obs.counter("tree.hist_subtractions", stats.hist_subtractions)
            obs.counter("tree.rows_partitioned", stats.rows_partitioned)
            obs.observe("tree.hist_build_s", stats.build_s)
            obs.observe("tree.scan_s", stats.scan_s)
            obs.observe("tree.partition_s", stats.partition_s)
            obs.observe("tree.leaf_s", stats.leaf_s)

    def fit(self, X, y, binned=None) -> "RandomForestRegressor":
        """Fit the forest; ``binned`` optionally supplies the pre-binned
        matrix of *X* for the ``tree_method="hist"`` path."""
        Xv, yv = validate_fit_inputs(X, y)
        gen = check_random_state(self.rng)
        # One spawned seed per tree keeps trees independent and the whole
        # fit reproducible from a single root seed, regardless of where
        # (or in what order) each tree is fitted.
        seeds = np.random.SeedSequence(gen.integers(0, 2**63 - 1)).spawn(
            self.n_estimators
        )
        timing = obs.enabled()
        t_fit = time.perf_counter() if timing else 0.0
        with obs.span(
            "forest.fit", n_estimators=self.n_estimators, n_jobs=self.n_jobs or 0
        ):
            if self.tree_method == "hist":
                if binned is None:
                    from .binning import BinMapper

                    binned = BinMapper().fit_transform(Xv)
                elif (binned.n_rows, binned.n_features) != Xv.shape:
                    raise ValidationError(
                        f"binned matrix is "
                        f"{(binned.n_rows, binned.n_features)}, X is {Xv.shape}"
                    )
                self._fit_hist(yv, seeds, binned)
            else:
                fit_tree = partial(
                    _fit_one_tree,
                    Xv,
                    yv,
                    {
                        "max_depth": self.max_depth,
                        "min_samples_split": self.min_samples_split,
                        "min_samples_leaf": self.min_samples_leaf,
                        "max_features": self.max_features,
                    },
                    self.bootstrap,
                )
                if self.n_jobs == 1:
                    self.trees_ = [fit_tree(seq) for seq in seeds]
                else:
                    self.trees_ = parallel_map(
                        fit_tree, seeds, n_workers=self.n_jobs
                    )
        if timing:
            obs.counter("forest.fits")
            obs.observe("forest.fit_s", time.perf_counter() - t_fit)
        self.n_features_ = Xv.shape[1]
        self.n_outputs_ = yv.shape[1]
        return self

    def _predict(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros((X.shape[0], self.n_outputs_))
        for tree in self.trees_:
            out += tree._predict(X)
        out /= len(self.trees_)
        return out
