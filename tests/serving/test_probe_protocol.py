"""Protocol v2 probe polymorphism: wire shapes, compat, bit-identity.

The contract under test: v1 bodies (bare ``campaign``) keep working and
are counted; v2 sample-probe requests share cache entries with their v1
equivalents; and a sketch probe answered through the TCP server matches
the direct in-process ``predict_vector`` call bit for bit.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.sketch import QuantileSketch, SampleProbe, SketchProbe
from repro.errors import ValidationError
from repro.serving import ModelRegistry, ServerHandle, ServingClient
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    decode_array,
    decode_probe,
    encode_array,
    encode_campaign,
    encode_probe,
    predict_request,
    probe_fingerprint,
    request_fingerprint,
)


@pytest.fixture()
def registry(tmp_path, few_runs_predictor):
    """A registry holding the small fitted predictor under tag ``uc1``."""
    reg = ModelRegistry(tmp_path)
    reg.save(few_runs_predictor, name="uc1")
    return reg


@pytest.fixture(scope="module")
def probe_campaign(intel_small):
    return next(iter(intel_small.values())).subset(range(8))


@pytest.fixture(scope="module")
def sketch_probe(probe_campaign):
    return SketchProbe.from_campaign(probe_campaign)


class TestWireEncoding:
    def test_sample_probe_round_trip(self, probe_campaign):
        wire = json.loads(json.dumps(encode_probe(probe_campaign)))
        assert wire["probe_kind"] == "samples"
        back = decode_probe(wire)
        assert isinstance(back, SampleProbe)
        assert np.array_equal(back.campaign.runtimes, probe_campaign.runtimes)
        assert np.array_equal(back.campaign.counters, probe_campaign.counters)

    def test_sketch_probe_round_trip(self, sketch_probe):
        wire = json.loads(json.dumps(encode_probe(sketch_probe)))
        assert wire["probe_kind"] == "sketch"
        back = decode_probe(wire)
        assert isinstance(back, SketchProbe)
        assert np.array_equal(
            back.runtime_sketch.values, sketch_probe.runtime_sketch.values
        )
        assert back.metric_names == sketch_probe.metric_names
        for a, b in zip(back.rate_sketches, sketch_probe.rate_sketches):
            assert np.array_equal(a.levels, b.levels)
            assert np.array_equal(a.values, b.values)
            assert a.n_runs == b.n_runs

    def test_decode_and_predict_build_no_quantile_sketch(
        self, few_runs_predictor, sketch_probe, monkeypatch
    ):
        """The columnar path never materializes per-metric sketch objects."""
        assert len(sketch_probe.metric_names) == 68
        wire = json.loads(json.dumps(encode_probe(sketch_probe)))
        built = []
        original = QuantileSketch.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(QuantileSketch, "__post_init__", counting)
        vector = few_runs_predictor.predict_vector(decode_probe(wire))
        assert len(built) == 0
        assert np.array_equal(vector, few_runs_predictor.predict_vector(sketch_probe))

    def test_decode_rejects_unknown_kind(self):
        with pytest.raises(ValidationError):
            decode_probe({"probe_kind": "telepathy"})
        with pytest.raises(ValidationError):
            decode_probe([1, 2, 3])

    def test_predict_request_shape(self, sketch_probe):
        body = predict_request("uc1", sketch_probe, n_samples=16, sample_seed=3)
        assert body["op"] == "predict"
        assert body["version"] == PROTOCOL_VERSION
        assert body["probe_kind"] == "sketch"
        assert body["probe"]["probe_kind"] == "sketch"
        assert body["n_samples"] == 16
        json.dumps(body)  # must be JSON-serializable as-is


class TestFingerprints:
    def test_sample_probe_fingerprint_matches_v1(self, probe_campaign):
        assert probe_fingerprint("k", probe_campaign) == request_fingerprint(
            "k", probe_campaign
        )
        assert probe_fingerprint(
            "k", SampleProbe(probe_campaign), n_samples=8, sample_seed=1
        ) == request_fingerprint("k", probe_campaign, n_samples=8, sample_seed=1)

    def test_sketch_fingerprint_distinct_from_campaign(
        self, probe_campaign, sketch_probe
    ):
        assert probe_fingerprint("k", sketch_probe) != request_fingerprint(
            "k", probe_campaign
        )

    def test_sketch_fingerprint_sensitive_to_values(self, sketch_probe):
        base = probe_fingerprint("k", sketch_probe)
        moved = SketchProbe(
            benchmark=sketch_probe.benchmark,
            system=sketch_probe.system,
            runtime_sketch=sketch_probe.runtime_sketch.scaled(1.001),
            rate_sketches=sketch_probe.rate_sketches,
            metric_names=sketch_probe.metric_names,
        )
        assert probe_fingerprint("k", moved) != base


class TestServerCompat:
    def test_sketch_probe_server_matches_direct_bitwise(
        self, registry, few_runs_predictor, sketch_probe
    ):
        direct = few_runs_predictor.predict_vector(sketch_probe)
        with ServerHandle(registry) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                reply = client.predict("uc1", sketch_probe)
        assert reply["status"] == 200
        assert np.array_equal(np.asarray(reply["vector"], dtype=np.float64), direct)

    def test_v1_body_accepted_and_counted(self, registry, probe_campaign):
        with ServerHandle(registry) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                v1_body = {
                    "op": "predict",
                    "model": "uc1",
                    "campaign": encode_campaign(probe_campaign),
                }
                r1 = client.request(v1_body)
                assert r1["status"] == 200
                stats = client.request({"op": "stats"})["stats"]
                assert stats["protocol_v1_requests"] == 1
                # v2 sample-probe requests do not bump the v1 counter.
                r2 = client.request(predict_request("uc1", probe_campaign))
                assert r2["status"] == 200
                stats = client.request({"op": "stats"})["stats"]
                assert stats["protocol_v1_requests"] == 1
        assert r2["vector"] == r1["vector"]

    def test_v1_and_v2_share_cache_entry(self, registry, probe_campaign):
        with ServerHandle(registry) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                r1 = client.request(
                    {
                        "op": "predict",
                        "model": "uc1",
                        "campaign": encode_campaign(probe_campaign),
                    }
                )
                assert r1["status"] == 200 and not r1["cached"]
                r2 = client.request(predict_request("uc1", probe_campaign))
                assert r2["status"] == 200 and r2["cached"]

    def test_client_campaign_keyword_is_deprecated_v1(
        self, registry, probe_campaign
    ):
        with ServerHandle(registry) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                with pytest.warns(DeprecationWarning):
                    reply = client.predict("uc1", campaign=probe_campaign)
                assert reply["status"] == 200
                stats = client.request({"op": "stats"})["stats"]
                assert stats["protocol_v1_requests"] == 1
                with pytest.raises(ValidationError):
                    client.predict(
                        "uc1", probe_campaign, campaign=probe_campaign
                    )
                with pytest.raises(ValidationError):
                    client.predict("uc1")

    def test_ragged_level_probe_is_400(self, registry, sketch_probe):
        """Rows with different level counts cannot form one matrix."""
        body = predict_request("uc1", sketch_probe)
        body["probe"]["rates"][5] = {
            "levels": encode_array([0.5, 0.9, 0.99]),
            "values": encode_array([1.0, 2.0, 3.0]),
            "n_runs": 8,
        }
        with ServerHandle(registry) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                reply = client.request(body)
        assert reply["status"] == 400, reply
        assert "same number of levels" in reply["error"]

    def test_sampled_draws_from_sketch_probe(self, registry, sketch_probe):
        with ServerHandle(registry) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                r1 = client.predict("uc1", sketch_probe, n_samples=32, sample_seed=5)
                r2 = client.predict("uc1", sketch_probe, n_samples=32, sample_seed=5)
        assert r1["status"] == 200
        draws = decode_array(r1["samples"])
        assert draws.size == 32
        # Same request, same seed: draws are deterministic.
        assert np.array_equal(draws, decode_array(r2["samples"]))

