"""Tests for the histogram split kernel and its model integration.

Contract under test: on losslessly binnable data (every feature has at
most 255 distinct values — always true at the paper's grid scale) with
targets whose split statistics are exact in float32 (small integers),
``tree_method="hist"`` grows the *same tree* as the exact kernel, node
for node; and the batch entry points (joint forest growth, the boosting
fold lockstep) are bit-identical to their one-at-a-time equivalents on
arbitrary real-valued targets.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.ml.binning import BinMapper
from repro.ml.boosting import (
    GradientBoostingRegressor,
    can_lockstep,
    fit_predict_folds,
)
from repro.ml.forest import RandomForestRegressor
from repro.ml.hist import TreeSpec, grow_trees
from repro.ml.scaling import RobustScaler
from repro.ml.tree import RegressionTree


def _integer_targets(r, n, k, X):
    """float32-exact targets (small integers) correlated with X."""
    base = r.integers(-3, 4, size=(n, k)).astype(np.float64)
    return base + (X[:, :1] > 0) * r.integers(0, 4, size=(1, k))


def assert_trees_equal(exact: RegressionTree, hist: RegressionTree) -> None:
    """Structural equality despite different node numbering orders."""

    def rec(a: int, b: int) -> None:
        fa, fb = exact._feature[a], hist._feature[b]
        assert (fa >= 0) == (fb >= 0), "leaf/internal mismatch"
        if fa < 0:
            np.testing.assert_allclose(
                exact._value[a], hist._value[b], rtol=0, atol=1e-12
            )
            return
        assert fa == fb, "split feature mismatch"
        assert exact._threshold[a] == hist._threshold[b], "threshold mismatch"
        rec(exact._left[a], hist._left[b])
        rec(exact._right[a], hist._right[b])

    rec(0, 0)


class TestLosslessParity:
    """hist == exact, tree for tree, when binning loses nothing."""

    @pytest.mark.parametrize(
        "n,d,k,max_depth,min_leaf,seed,levels",
        [
            pytest.param(60, 30, 4, 6, 1, 0, None, id="60-30-4-6-1-0"),
            pytest.param(60, 30, 4, 6, 1, 1, None, id="60-30-4-6-1-1"),
            pytest.param(200, 12, 2, None, 2, 100, None, id="200-12-2-None-2-100"),
            pytest.param(200, 12, 2, None, 2, 101, None, id="200-12-2-None-2-101"),
            pytest.param(64, 136, 32, 6, 1, 200, None, id="64-136-32-6-1-200"),
            pytest.param(64, 136, 32, 6, 1, 201, None, id="64-136-32-6-1-201"),
            # Coarse features (8 distinct values => 8 bins) keep nodes
            # many times wider than the bin axis, so the rank rect scans
            # long runs of equal codes with few boundaries.
            pytest.param(400, 6, 3, 6, 1, 7, 8, id="coarse8-400-6-3-6-1-7"),
        ],
    )
    def test_single_tree_matches_exact(
        self, n, d, k, max_depth, min_leaf, seed, levels
    ):
        r = np.random.default_rng(seed)
        if levels is None:
            X = r.normal(size=(n, d))
        else:
            X = r.integers(0, levels, size=(n, d)).astype(np.float64)
        Y = _integer_targets(r, n, k, X)
        exact = RegressionTree(max_depth=max_depth, min_samples_leaf=min_leaf).fit(
            X, Y
        )
        hist = RegressionTree(
            max_depth=max_depth, min_samples_leaf=min_leaf, tree_method="hist"
        ).fit(X, Y)
        assert_trees_equal(exact, hist)

    def test_predictions_match_exact(self):
        r = np.random.default_rng(3)
        X = r.normal(size=(80, 20))
        Y = _integer_targets(r, 80, 5, X)
        pe = RegressionTree(max_depth=5).fit(X, Y).predict(X)
        ph = RegressionTree(max_depth=5, tree_method="hist").fit(X, Y).predict(X)
        np.testing.assert_allclose(pe, ph, rtol=0, atol=1e-12)


class TestForestJointGrowth:
    """Batch-grown forest == growing each tree solo from its seed."""

    def test_joint_matches_solo_streams(self):
        r = np.random.default_rng(5)
        n, d, k = 70, 25, 3
        X = r.normal(size=(n, d))
        Y = r.normal(size=(n, k))
        n_trees, n_cand = 4, 11
        forest = RandomForestRegressor(
            n_trees, max_features=n_cand, rng=7, tree_method="hist"
        ).fit(X, Y)

        binned = BinMapper().fit_transform(X)
        gen = np.random.default_rng(7)
        seeds = np.random.SeedSequence(gen.integers(0, 2**63 - 1)).spawn(n_trees)
        for seq, tree in zip(seeds, forest.trees_):
            tree_rng = np.random.default_rng(seq)
            rows = tree_rng.integers(0, n, size=n)
            solo, _ = grow_trees(
                binned,
                Y.astype(np.float32),
                Y,
                [TreeSpec(rows=rows, rng=tree_rng)],
                n_cand=n_cand,
                max_depth=None,
                min_samples_split=2,
                min_samples_leaf=1,
            )
            g = solo[0]
            assert np.array_equal(tree._feature, g.feature)
            # Leaf slots carry NaN thresholds, hence equal_nan.
            assert np.array_equal(tree._threshold, g.threshold, equal_nan=True)
            assert np.array_equal(tree._left, g.left)
            assert np.array_equal(tree._right, g.right)
            assert np.array_equal(tree._value, g.value)


class TestBoostingLockstep:
    """All-folds lockstep == per-fold solo fits on the shared binned codes."""

    @staticmethod
    def _fold_setup(seed=11, n_groups=4, rows_per=16, d=20, k=3):
        r = np.random.default_rng(seed)
        n = n_groups * rows_per
        X = r.normal(size=(n, d))
        Y = r.normal(size=(n, k))
        groups = np.repeat(np.arange(n_groups), rows_per)
        binned = BinMapper().fit_transform(X)
        folds = []
        for g in range(n_groups):
            mask = groups != g
            scaler = RobustScaler().fit(X[mask])
            xp = scaler.transform(r.normal(size=(1, d)))
            folds.append((mask, scaler.center_, scaler.scale_, xp[0]))
        return X, Y, binned, folds

    def test_lockstep_matches_solo(self):
        X, Y, binned, folds = self._fold_setup()
        model = GradientBoostingRegressor(
            10,
            learning_rate=0.3,
            max_depth=3,
            colsample_bytree=0.5,
            rng=7,
            tree_method="hist",
        )
        preds = fit_predict_folds(model, binned, Y, folds)
        scaler = RobustScaler()
        for (mask, center, scale, xp), joint in zip(folds, preds):
            scaler.center_, scaler.scale_ = center, scale
            fb = binned.scaled(center, scale).take_rows(mask)
            solo = (
                model.clone()
                .fit(scaler.transform(X[mask]), Y[mask], binned=fb)
                .predict(xp[None, :])[0]
            )
            np.testing.assert_array_equal(joint, solo)

    def test_can_lockstep_gating(self):
        masks = [np.array([True, True, False]), np.array([False, True, True])]
        hist = GradientBoostingRegressor(2, tree_method="hist")
        exact = GradientBoostingRegressor(2)
        sub = GradientBoostingRegressor(2, subsample=0.5, tree_method="hist")
        assert can_lockstep(hist, masks)
        assert not can_lockstep(exact, masks)
        assert not can_lockstep(sub, masks)
        uneven = [np.array([True, True, False]), np.array([False, False, True])]
        assert not can_lockstep(hist, uneven)
        assert not can_lockstep(RandomForestRegressor(2, tree_method="hist"), masks)


class TestFusedResiduals:
    """In-kernel fused Newton/residual updates == the per-round
    caller-side ``tree._predict`` loop they replaced, bit for bit."""

    def test_fused_matches_manual_unfused_rounds(self):
        r = np.random.default_rng(11)
        n, d, k = 150, 8, 3
        X = r.normal(size=(n, d))
        Y = _integer_targets(r, n, k, X)
        lr, lam, depth, rounds = 0.3, 1.0, 4, 6
        model = GradientBoostingRegressor(
            n_estimators=rounds,
            learning_rate=lr,
            max_depth=depth,
            reg_lambda=lam,
            rng=0,
            tree_method="hist",
        ).fit(X, Y)

        # Replay the rounds with the same kernel but *without* fusion:
        # raw leaf means from grow_trees, caller-side Newton
        # regularization, and the running prediction advanced through
        # each round's leaf assignment (what tree._predict evaluates
        # on the training rows).  Residuals here are real-valued from
        # round two on, so agreement below is a fusion property, not a
        # losslessness accident.
        binned = BinMapper().fit_transform(X)
        current = np.tile(Y.mean(axis=0), (n, 1))
        for _ in range(rounds):
            resid = Y - current
            grown, _ = grow_trees(
                binned,
                resid.astype(np.float32),
                resid.copy(),
                [TreeSpec(rows=np.arange(n))],
                n_cand=d,
                max_depth=depth,
                min_samples_split=2,
                min_samples_leaf=1,
            )
            g = grown[0]
            lids = g.leaf_of_row
            sums = np.zeros((g.feature.size, k))
            counts = np.zeros(g.feature.size)
            np.add.at(sums, lids, resid)
            np.add.at(counts, lids, 1.0)
            leaves = counts > 0
            val = np.zeros_like(sums)
            val[leaves] = sums[leaves] / (counts[leaves] + lam)[:, None]
            current += lr * val[lids]
        np.testing.assert_array_equal(model._predict(X), current)

    def test_fused_leaves_carry_newton_values(self):
        # The values stored on the fused model's trees are already the
        # regularized Newton step: rebuilding round 1's leaf values by
        # hand must reproduce the first tree bitwise.
        r = np.random.default_rng(21)
        n, d, k = 90, 6, 2
        X = r.normal(size=(n, d))
        Y = _integer_targets(r, n, k, X)
        lam = 2.5
        model = GradientBoostingRegressor(
            n_estimators=1,
            max_depth=3,
            reg_lambda=lam,
            rng=4,
            tree_method="hist",
        ).fit(X, Y)
        tree = model.trees_[0]

        binned = BinMapper().fit_transform(X)
        resid = Y - Y.mean(axis=0)
        grown, _ = grow_trees(
            binned,
            resid.astype(np.float32),
            resid.copy(),
            [TreeSpec(rows=np.arange(n))],
            n_cand=d,
            max_depth=3,
            min_samples_split=2,
            min_samples_leaf=1,
        )
        g = grown[0]
        lids = g.leaf_of_row
        sums = np.zeros((g.feature.size, k))
        counts = np.zeros(g.feature.size)
        np.add.at(sums, lids, resid)
        np.add.at(counts, lids, 1.0)
        leaves = np.flatnonzero(counts > 0)
        expected = sums[leaves] / (counts[leaves] + lam)[:, None]
        np.testing.assert_array_equal(tree._value[leaves], expected)


class TestValidation:
    def test_tree_method_validated(self):
        with pytest.raises(ValidationError):
            RegressionTree(tree_method="approx")
        with pytest.raises(ValidationError):
            RandomForestRegressor(2, tree_method="fast")
        with pytest.raises(ValidationError):
            GradientBoostingRegressor(2, tree_method="")

    def test_clone_keeps_tree_method(self):
        for model in (
            RegressionTree(tree_method="hist"),
            RandomForestRegressor(2, tree_method="hist"),
            GradientBoostingRegressor(2, tree_method="hist"),
        ):
            assert model.clone().tree_method == "hist"

    def test_binned_shape_mismatch_rejected(self):
        r = np.random.default_rng(0)
        X = r.normal(size=(20, 4))
        binned = BinMapper().fit_transform(r.normal(size=(10, 4)))
        with pytest.raises(ValidationError):
            RandomForestRegressor(2, tree_method="hist").fit(
                X, np.zeros(20), binned=binned
            )
        with pytest.raises(ValidationError):
            GradientBoostingRegressor(2, tree_method="hist").fit(
                X, np.zeros(20), binned=binned
            )
