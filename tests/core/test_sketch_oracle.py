"""Bitwise oracle for the percentile-only (sketch) probe path.

The pinned values below were computed by the per-sketch implementation
that preceded the columnar :class:`~repro.core.sketch.SketchProbe`.  Any
refactor of sketch storage, validation or moment recovery must reproduce
them exactly: the UC1 sketch KS sum, the SHA-256 of recovered features
and encodings, and the response-cache fingerprint of one fixed probe.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import registry
from repro.core.config import EvalConfig
from repro.core.engine import FewRunsDesign
from repro.core.evaluation import evaluate_few_runs
from repro.core.features import FeatureConfig
from repro.core.sketch import (
    ASSUMPTIONS,
    DEFAULT_SKETCH_LEVELS,
    QuantileSketch,
    SketchProbe,
)
from repro.serving.protocol import probe_fingerprint

#: Sum of the per-benchmark KS values of knn x {histogram, pymaxent,
#: pearsonrnd} x {lognormal, pearson}, train-full / predict-sketch.
UC1_SKETCH_KS_SUM = 20.47050667772863

#: SHA-256 of every recovered feature and encoding, in test order.
FEATURES_ENCODINGS_SHA256 = (
    "ca9027ed460435ec4544d9f54d256e61b8fb71d658c032e13f5a057d70cbd3fd"
)

#: Fingerprint of the first DEFAULT_SKETCH_LEVELS probe.
PROBE_FINGERPRINT = (
    "5fbf8727a557427a55cc5843f19aaf3028f8e1f39e9a9f5fd669737f2fefd218"
)

#: Levels without 0.99: moment recovery takes the least-squares branch.
LSQ_LEVELS = (0.25, 0.5, 0.75, 0.9)

ENCODINGS = ("histogram", "pearsonrnd", "pymaxent", "quantile")


def _seeded_probes(campaigns, levels):
    """One 10-run sketch probe per campaign, runs drawn from a fixed seed."""
    rng = np.random.default_rng(1606)
    probes = []
    for name in sorted(campaigns):
        camp = campaigns[name]
        idx = np.sort(rng.choice(camp.n_runs, size=10, replace=False))
        probes.append(SketchProbe.from_campaign(camp.subset(idx), levels=levels))
    return probes


def _mixed_level_probe(campaign):
    """Rate rows whose level values differ from the runtime row's."""
    rates = campaign.rates()
    row_levels = ((0.1, 0.5, 0.9, 0.99), (0.2, 0.4, 0.6, 0.8))
    return SketchProbe(
        benchmark=campaign.benchmark,
        system=campaign.system,
        runtime_sketch=QuantileSketch.from_samples(campaign.runtimes),
        rate_sketches=tuple(
            QuantileSketch.from_samples(rates[:, j], row_levels[j % 2])
            for j in range(rates.shape[1])
        ),
        metric_names=campaign.metric_names,
    )


@pytest.fixture(scope="module")
def oracle_probes(intel_campaigns):
    probes = _seeded_probes(intel_campaigns, DEFAULT_SKETCH_LEVELS)
    probes += _seeded_probes(intel_campaigns, LSQ_LEVELS)
    probes.append(_mixed_level_probe(intel_campaigns[sorted(intel_campaigns)[0]]))
    return probes


def test_uc1_sketch_ks_sum(intel_campaigns):
    design = FewRunsDesign(intel_campaigns)
    total = 0.0
    for rep in ("histogram", "pymaxent", "pearsonrnd"):
        for assumption in ASSUMPTIONS:
            cfg = EvalConfig(
                representation=rep,
                model="knn",
                probe_kind="sketch",
                assumption=assumption,
            )
            ks = evaluate_few_runs(config=cfg, design=design)["ks"]
            total += float(np.sum(np.asarray(ks, dtype=np.float64)))
    assert total == UC1_SKETCH_KS_SUM


def test_features_and_encodings_digest(oracle_probes):
    reps = [registry.representation(name) for name in ENCODINGS]
    h = hashlib.sha256()
    for probe in oracle_probes:
        for assumption in ASSUMPTIONS:
            for log_rates in (True, False):
                x = probe.features(
                    FeatureConfig(log_rates=log_rates), assumption=assumption
                )
                h.update(np.ascontiguousarray(x, dtype="<f8").tobytes())
            for rep in reps:
                enc = probe.encode_distribution(rep, assumption=assumption)
                h.update(np.ascontiguousarray(enc, dtype="<f8").tobytes())
    assert h.hexdigest() == FEATURES_ENCODINGS_SHA256


def test_probe_fingerprint_hex(oracle_probes):
    fp = probe_fingerprint("k", oracle_probes[0], n_samples=16, sample_seed=3)
    assert fp == PROBE_FINGERPRINT
