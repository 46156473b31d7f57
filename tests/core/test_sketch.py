"""Tests for quantile sketches and the unified probe input API.

The contract under test: a :class:`QuantileSketch` survives wire
round-trips exactly, merges like a mixture, recovers sane moments under
both assumptions, and a :class:`SketchProbe` plugs into the predictors
through the same ``probe`` argument a raw campaign uses — with the
train-full / predict-sketch evaluation degrading accuracy only mildly.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.core.config import EvalConfig
from repro.core.evaluation import evaluate_few_runs, summarize_ks
from repro.core.features import FeatureConfig, probe_features, profile_features
from repro.core.predictors import CrossSystemPredictor, FewRunsPredictor
from repro.core.quantile_representation import QuantileRepresentation
from repro.core.representations import HistogramRepresentation
from repro.core.sketch import (
    ASSUMPTIONS,
    DEFAULT_SKETCH_LEVELS,
    QuantileSketch,
    SampleProbe,
    SketchProbe,
    SketchProbeSpec,
    as_probe,
    encode_from_sketch,
)
from repro.errors import ValidationError


@pytest.fixture(scope="module")
def lognormal_samples():
    rng = np.random.default_rng(4242)
    return np.exp(rng.normal(0.4, 0.3, size=5000))


@pytest.fixture(scope="module")
def sketch(lognormal_samples):
    return QuantileSketch.from_samples(lognormal_samples)


class TestQuantileSketchValidation:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValidationError):
            QuantileSketch(levels=(0.5, 0.9), values=(1.0,), n_runs=10)

    def test_rejects_unsorted_levels(self):
        with pytest.raises(ValidationError):
            QuantileSketch(levels=(0.9, 0.5), values=(1.0, 2.0), n_runs=10)

    def test_rejects_levels_outside_open_interval(self):
        with pytest.raises(ValidationError):
            QuantileSketch(levels=(0.0, 0.5), values=(1.0, 2.0), n_runs=10)
        with pytest.raises(ValidationError):
            QuantileSketch(levels=(0.5, 1.0), values=(1.0, 2.0), n_runs=10)

    def test_rejects_decreasing_values(self):
        with pytest.raises(ValidationError):
            QuantileSketch(levels=(0.5, 0.9), values=(2.0, 1.0), n_runs=10)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValidationError):
            QuantileSketch(levels=(0.5, 0.9), values=(0.0, 1.0), n_runs=10)

    def test_rejects_single_level(self):
        with pytest.raises(ValidationError):
            QuantileSketch(levels=(0.5,), values=(1.0,), n_runs=10)

    def test_frozen(self, sketch):
        with pytest.raises(AttributeError):
            sketch.n_runs = 99

    # The same rules, enforced on a whole probe matrix at once: each
    # corruption hits one rate row of an otherwise valid 3-row probe.
    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda lv, v, n: v.__setitem__((2, 1), np.nan),
            lambda lv, v, n: lv.__setitem__((2, 0), 0.0),
            lambda lv, v, n: lv.__setitem__((2, 3), 1.0),
            lambda lv, v, n: lv.__setitem__((2, slice(0, 2)), (0.9, 0.5)),
            lambda lv, v, n: v.__setitem__((2, 0), 0.0),
            lambda lv, v, n: v.__setitem__((2, slice(0, 2)), (2.0, 1.0)),
            lambda lv, v, n: n.__setitem__(2, 0),
            lambda lv, v, n: n.__setitem__(2, True),
        ],
        ids=["nan", "level0", "level1", "unsorted", "nonpositive", "decreasing",
             "zero-runs", "bool-runs"],
    )
    def test_probe_matrix_enforces_the_same_rules(self, corrupt):
        lv = np.tile(DEFAULT_SKETCH_LEVELS, (3, 1))
        v = np.tile([1.0, 2.0, 3.0, 4.0], (3, 1))
        n = [10, 10, 10]
        SketchProbe.from_arrays("b", "s", lv, v, n, ("m0", "m1"))
        corrupt(lv, v, n)
        with pytest.raises(ValidationError):
            SketchProbe.from_arrays("b", "s", lv, v, n, ("m0", "m1"))

    def test_probe_matrix_rejects_shape_and_identity_errors(self):
        lv = np.tile(DEFAULT_SKETCH_LEVELS, (3, 1))
        v = np.tile([1.0, 2.0, 3.0, 4.0], (3, 1))
        ok = ("b", "s", lv, v, [10, 10, 10], ("m0", "m1"))
        for bad in (
            ("b", "s", lv[:, :1], v[:, :1], [10, 10, 10], ("m0", "m1")),
            ("b", "s", lv, v[:2], [10, 10, 10], ("m0", "m1")),
            ("b", "s", lv, v, [10, 10], ("m0", "m1")),
            ("b", "s", lv, v, [10, 10, 10.0], ("m0", "m1")),
            ("b", "s", lv, v, [10, 10, 10], ("m0",)),
            (7, "s", lv, v, [10, 10, 10], ("m0", "m1")),
            ok[:-1] + (("m0", "m1"), "cauchy"),
        ):
            with pytest.raises(ValidationError):
                SketchProbe.from_arrays(*bad)
        assert SketchProbe.from_arrays(*ok).n_runs.tolist() == [10, 10, 10]

    def test_ragged_levels_are_rejected_by_the_constructor(self, sketch):
        short = QuantileSketch(levels=(0.5, 0.9, 0.99), values=(1.0, 2.0, 3.0), n_runs=5)
        with pytest.raises(ValidationError, match="same number of levels"):
            SketchProbe("b", "s", sketch, (sketch, short), ("m0", "m1"))
        # Equal level counts with different level values are fine.
        other = QuantileSketch(levels=(0.1, 0.2, 0.3, 0.4), values=(1, 2, 3, 4), n_runs=5)
        probe = SketchProbe("b", "s", sketch, (sketch, other), ("m0", "m1"))
        assert np.array_equal(probe.levels[2], other.levels)
        assert np.array_equal(probe.rate_sketches[1].values, other.values)


class TestQuantileSketchBasics:
    def test_from_samples_matches_numpy_quantiles(self, lognormal_samples):
        sk = QuantileSketch.from_samples(lognormal_samples)
        expected = np.quantile(lognormal_samples, DEFAULT_SKETCH_LEVELS)
        assert np.allclose(sk.values, expected)
        assert sk.n_runs == len(lognormal_samples)

    def test_value_at_tolerates_float_noise(self, sketch):
        assert sketch.value_at(0.9 + 1e-12) == sketch.values[1]
        # A level not in the sketch falls back to interpolation.
        mid = sketch.value_at(0.7)
        assert sketch.values[0] <= mid <= sketch.values[1]

    def test_scaled(self, sketch):
        doubled = sketch.scaled(2.0)
        assert np.allclose(doubled.values, 2.0 * sketch.values)
        assert doubled.n_runs == sketch.n_runs

    def test_wire_round_trip_is_exact(self, sketch):
        """The deprecated plain-float codec: one warning each way, same bytes."""
        with pytest.warns(DeprecationWarning, match="encode_sketch") as caught:
            body = sketch.to_wire()
        assert len(caught) == 1
        assert body == {
            "levels": [float(x) for x in sketch.levels],
            "values": [float(x) for x in sketch.values],
            "n_runs": int(sketch.n_runs),
        }
        with pytest.warns(DeprecationWarning, match="decode_sketch") as caught:
            back = QuantileSketch.from_wire(json.loads(json.dumps(body)))
        assert len(caught) == 1
        assert np.array_equal(back.levels, sketch.levels)
        assert np.array_equal(back.values, sketch.values)
        assert back.n_runs == sketch.n_runs


class TestMerge:
    def test_merge_identical_sketches_is_identity(self, sketch):
        merged = sketch.merge(sketch)
        assert np.allclose(merged.values, sketch.values)
        assert merged.n_runs == 2 * sketch.n_runs

    def test_merge_is_bounded_by_inputs(self, sketch):
        shifted = sketch.scaled(1.5)
        merged = sketch.merge(shifted)
        lo = np.minimum(sketch.values, shifted.values)
        hi = np.maximum(sketch.values, shifted.values)
        assert np.all(merged.values >= lo - 1e-12)
        assert np.all(merged.values <= hi + 1e-12)

    def test_merge_is_weighted(self, sketch):
        # Merging with a tiny sketch should barely move the quantiles.
        tiny = QuantileSketch(
            levels=sketch.levels, values=sketch.values * 1.5, n_runs=1
        )
        merged = sketch.merge(tiny)
        drift = np.abs(merged.values - sketch.values) / sketch.values
        assert np.all(drift < 0.05)

    def test_merged_values_monotone(self, sketch):
        merged = sketch.merge(sketch.scaled(3.0))
        assert np.all(np.diff(merged.values) >= 0)


class TestMomentRecovery:
    def test_lognormal_recovery_matches_truth(self, lognormal_samples, sketch):
        mv = sketch.moments("lognormal")
        assert mv.mean == pytest.approx(float(lognormal_samples.mean()), rel=2e-2)
        assert mv.std == pytest.approx(float(lognormal_samples.std()), rel=8e-2)

    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    def test_moments_are_finite_and_feasible(self, sketch, assumption):
        mv = sketch.moments(assumption)
        arr = mv.as_array()
        assert np.all(np.isfinite(arr))
        assert mv.std >= 0.0
        assert mv.kurt >= 1.0

    def test_log_moments_lognormal_is_normal(self, sketch):
        mv = sketch.log_moments("lognormal")
        assert mv.skew == 0.0
        assert mv.kurt == 3.0

    def test_unknown_assumption_rejected(self, sketch):
        with pytest.raises(ValidationError):
            sketch.moments("cauchy")

    def test_pseudo_samples_deterministic(self, sketch):
        a = sketch.pseudo_samples(64)
        b = sketch.pseudo_samples(64)
        assert np.array_equal(a, b)
        assert a.size == 64
        assert np.all(a > 0)


class TestEncodeFromSketch:
    def test_histogram_encoding_integrates_to_one(self, lognormal_samples):
        rep = HistogramRepresentation()
        rel = lognormal_samples / lognormal_samples.mean()
        sk = QuantileSketch.from_samples(rel)
        probs = encode_from_sketch(rep, sk, "lognormal")
        assert probs.size == rep.grid.n_bins
        assert float(probs.sum() * rep.grid.width) == pytest.approx(1.0)

    def test_quantile_encoding_reads_sketch_quantiles(self, sketch):
        rep = QuantileRepresentation()
        out = encode_from_sketch(rep, sketch, "lognormal")
        assert np.array_equal(out, sketch.quantile(rep.levels))


class TestProbes:
    def test_as_probe_wraps_campaign(self, intel_campaigns):
        camp = next(iter(intel_campaigns.values()))
        p = as_probe(camp)
        assert isinstance(p, SampleProbe)
        assert p.kind == "samples"
        assert as_probe(p) is p

    def test_as_probe_rejects_junk(self):
        with pytest.raises(ValidationError):
            as_probe(42)

    def test_sample_probe_features_bit_identical(self, intel_campaigns):
        camp = next(iter(intel_campaigns.values()))
        cfg = FeatureConfig()
        assert np.array_equal(
            probe_features(camp, cfg), profile_features(camp, cfg)
        )
        assert np.array_equal(
            SampleProbe(camp).features(cfg), profile_features(camp, cfg)
        )

    def test_sketch_probe_features_layout_matches_sample_path(
        self, intel_campaigns
    ):
        camp = next(iter(intel_campaigns.values()))
        cfg = FeatureConfig()
        full = profile_features(camp, cfg)
        sk = SketchProbe.from_campaign(camp).features(cfg)
        assert sk.shape == full.shape
        assert np.all(np.isfinite(sk))
        # Same metric-major layout: features correlate strongly.
        r = np.corrcoef(full, sk)[0, 1]
        assert r > 0.99

    def test_sketch_probe_wire_round_trip(self, intel_campaigns):
        """The deprecated plain-float codec: one warning each way, same bytes."""
        camp = next(iter(intel_campaigns.values()))
        probe = SketchProbe.from_campaign(camp, assumption="pearson")
        with pytest.warns(DeprecationWarning, match="encode_probe") as caught:
            body = probe.to_wire()
        assert len(caught) == 1
        sketches = (probe.runtime_sketch, *probe.rate_sketches)
        rows = [
            {"levels": [float(x) for x in sk.levels],
             "values": [float(x) for x in sk.values], "n_runs": int(sk.n_runs)}
            for sk in sketches
        ]
        assert body == {
            "probe_kind": "sketch",
            "benchmark": probe.benchmark,
            "system": probe.system,
            "runtime": rows[0],
            "rates": rows[1:],
            "metric_names": list(probe.metric_names),
            "assumption": "pearson",
        }
        with pytest.warns(DeprecationWarning, match="decode_probe") as caught:
            back = SketchProbe.from_wire(json.loads(json.dumps(body)))
        assert len(caught) == 1
        assert np.array_equal(back.levels, probe.levels)
        assert np.array_equal(back.values, probe.values)
        assert np.array_equal(back.n_runs, probe.n_runs)
        assert back.benchmark == probe.benchmark
        assert back.assumption == "pearson"
        assert np.array_equal(
            back.runtime_sketch.values, probe.runtime_sketch.values
        )
        for a, b in zip(back.rate_sketches, probe.rate_sketches):
            assert np.array_equal(a.values, b.values)

    def test_spec_key_distinguishes_assumptions(self):
        a = SketchProbeSpec()
        b = SketchProbeSpec(assumption="pearson")
        assert a.key != b.key
        assert a.key == SketchProbeSpec().key


class TestPredictorProbeAPI:
    def test_few_runs_accepts_sketch_probe(self, intel_campaigns):
        pred = FewRunsPredictor(n_probe_runs=6, n_replicas=2).fit(intel_campaigns)
        camp = next(iter(intel_campaigns.values()))
        probe = SketchProbe.from_campaign(camp)
        vec = pred.predict_vector(probe)
        full = pred.predict_vector(camp)
        assert vec.shape == full.shape
        assert np.all(np.isfinite(vec))

    def test_cross_system_source_campaign_shim_bit_identical(
        self, intel_campaigns, amd_campaigns
    ):
        pred = CrossSystemPredictor(n_replicas=2).fit(
            intel_campaigns, amd_campaigns
        )
        camp = next(iter(intel_campaigns.values()))
        direct = pred.predict_vector(camp)
        with pytest.warns(DeprecationWarning):
            legacy = pred.predict_vector(source_campaign=camp)
        assert np.array_equal(direct, legacy)
        with pytest.raises(ValidationError):
            pred.predict_vector(camp, source_campaign=camp)

    def test_cross_system_accepts_sketch_probe(
        self, intel_campaigns, amd_campaigns
    ):
        pred = CrossSystemPredictor(n_replicas=2).fit(
            intel_campaigns, amd_campaigns
        )
        camp = next(iter(intel_campaigns.values()))
        vec = pred.predict_vector(SketchProbe.from_campaign(camp))
        assert np.all(np.isfinite(vec))
        assert vec.shape == pred.predict_vector(camp).shape


class TestTrainFullPredictSketch:
    @pytest.mark.parametrize("assumption", ASSUMPTIONS)
    def test_uc1_sketch_eval_degrades_gracefully(
        self, intel_campaigns, assumption
    ):
        full = summarize_ks(
            evaluate_few_runs(
                intel_campaigns,
                EvalConfig(representation="pearsonrnd", model="knn"),
            )
        ).mean
        sk = summarize_ks(
            evaluate_few_runs(
                intel_campaigns,
                EvalConfig(
                    representation="pearsonrnd",
                    model="knn",
                    probe_kind="sketch",
                    assumption=assumption,
                ),
            )
        ).mean
        assert np.isfinite(sk)
        # Percentile-only ingestion costs accuracy, but the predictions
        # must stay in the same quality regime as the full-sample path.
        assert sk < full + 0.15

    def test_sample_path_unchanged_by_probe_spec_plumbing(self, intel_campaigns):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no deprecation on the v2 path
            a = evaluate_few_runs(
                intel_campaigns, EvalConfig(representation="histogram")
            )
            b = evaluate_few_runs(
                intel_campaigns,
                EvalConfig(representation="histogram", probe_kind="samples"),
            )
        assert np.array_equal(
            np.asarray(a["ks"], dtype=float), np.asarray(b["ks"], dtype=float)
        )
