"""Integration tests for the micro-batching service and TCP server.

The contract under test: serving never changes an output bit.
Concurrent clients, batched execution, the response cache, and every
deprecated configuration spelling must all return exactly what a direct
``predict_vector`` call returns; capacity problems surface as 429/504
responses, never as wrong answers.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.sketch import SketchProbe
from repro.data.dataset import RunCampaign
from repro.errors import ValidationError
from repro.serving import (
    ModelRegistry,
    PredictionService,
    ServerHandle,
    ServingClient,
    ServingConfig,
)
from repro.serving.protocol import decode_array, encode_campaign, predict_request

from repro.serving import __main__ as cli

from .conftest import ROSTER


@pytest.fixture()
def registry(tmp_path, few_runs_predictor):
    """A registry holding the small fitted predictor under tag ``uc1``."""
    reg = ModelRegistry(tmp_path)
    reg.save(few_runs_predictor, name="uc1")
    return reg


def _predict_payload(campaign, **extra) -> dict:
    payload = {"op": "predict", "model": "uc1", "campaign": encode_campaign(campaign)}
    payload.update(extra)
    return payload


def _submit_all(registry, config, payloads, *, then=()):
    """Submit *payloads* at once on a started service, then *then* one by one.

    Returns every reply (in submission order) and the final stats.
    """

    async def scenario():
        service = PredictionService(registry, config)
        await service.start()
        try:
            replies = list(await asyncio.gather(*(service.submit(p) for p in payloads)))
            for payload in then:
                replies.append(await service.submit(payload))
            return replies, service.stats()
        finally:
            await service.close()

    return asyncio.run(scenario())


def _deprecations(caught) -> list[str]:
    return [str(w.message) for w in caught if issubclass(w.category, DeprecationWarning)]


class TestServingConfig:
    def test_rejects_bad_values(self):
        for bad in (
            dict(max_batch=0),
            dict(batch_window_s=-1.0),
            dict(queue_limit=0),
            dict(cache_size=0),
            dict(default_deadline_s=0.0),
            dict(plane="gpu"),
            dict(n_workers=0),
        ):
            with pytest.raises(ValidationError):
                ServingConfig(**bad)


class TestServedBitIdentity:
    def test_concurrent_clients_match_direct_calls(
        self, registry, few_runs_predictor, intel_small
    ):
        """Many clients, interleaved requests, every byte identical."""
        probes = {b: intel_small[b].subset(range(6)) for b in ROSTER}
        expected = {b: few_runs_predictor.predict_vector(p) for b, p in probes.items()}
        results: dict[tuple[str, int], np.ndarray] = {}
        errors: list[BaseException] = []

        with ServerHandle(registry, ServingConfig(cache_enabled=False)) as server:

            def worker(bench: str, slot: int) -> None:
                try:
                    with ServingClient("127.0.0.1", server.port) as client:
                        for i in range(3):
                            reply = client.request(_predict_payload(probes[bench]))
                            assert reply["status"] == 200, reply
                            results[(bench, slot * 10 + i)] = np.asarray(
                                reply["vector"], dtype=np.float64
                            )
                except BaseException as exc:  # noqa: BLE001 — collected below
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(bench, slot))
                for slot in range(3)
                for bench in ROSTER
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        assert not errors, errors
        assert len(results) == 3 * 3 * len(ROSTER)
        for (bench, _), vector in sorted(results.items()):
            assert np.array_equal(vector, expected[bench]), bench

    def test_cache_hits_never_change_outputs(self, registry, intel_small):
        probe = intel_small["npb/cg"].subset(range(6))
        with ServerHandle(registry, ServingConfig(cache_enabled=True)) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                first = client.request(_predict_payload(probe, n_samples=40, sample_seed=9))
                second = client.request(_predict_payload(probe, n_samples=40, sample_seed=9))
        assert first["status"] == second["status"] == 200
        assert first["cached"] is False and second["cached"] is True
        assert first["vector"] == second["vector"]
        assert np.array_equal(
            decode_array(first["samples"]), decode_array(second["samples"])
        )

    def test_cache_on_and_off_serve_identical_vectors(self, registry, intel_small):
        probe = intel_small["npb/is"].subset(range(6))
        replies = {}
        for flag in (True, False):
            with ServerHandle(registry, ServingConfig(cache_enabled=flag)) as server:
                with ServingClient("127.0.0.1", server.port) as client:
                    replies[flag] = client.request(_predict_payload(probe))
        assert replies[True]["vector"] == replies[False]["vector"]


class TestLoadTriggeredBatching:
    """A batch is whatever is queued when the loop looks; nothing lingers."""

    @pytest.fixture()
    def probes(self, intel_small):
        return [intel_small[b].subset(range(6)) for b in ROSTER] * 2

    def _assert_direct(self, replies, probes, predictor):
        assert len(replies) == len(probes)
        for reply, probe in zip(replies, probes):
            assert reply["status"] == 200, reply
            assert np.array_equal(
                np.asarray(reply["vector"], dtype=np.float64),
                predictor.predict_vector(probe),
            )

    def test_concurrent_submits_form_one_batch(self, registry, few_runs_predictor, probes):
        config = ServingConfig(cache_enabled=False)
        replies, stats = _submit_all(registry, config, [_predict_payload(p) for p in probes])
        assert stats["batch_size_histogram"] == {str(len(probes)): 1}
        self._assert_direct(replies, probes, few_runs_predictor)

    def test_batches_are_capped_at_max_batch(self, registry, few_runs_predictor, probes):
        config = ServingConfig(cache_enabled=False, max_batch=3)
        replies, stats = _submit_all(registry, config, [_predict_payload(p) for p in probes])
        assert len(probes) == 8
        assert stats["batch_size_histogram"] == {"2": 1, "3": 2}
        self._assert_direct(replies, probes, few_runs_predictor)

    def test_lone_request_after_idle_is_a_batch_of_one(
        self, registry, few_runs_predictor, probes
    ):
        config = ServingConfig(cache_enabled=False)
        payloads = [_predict_payload(p) for p in probes]
        replies, stats = _submit_all(registry, config, payloads[:4], then=payloads[4:5])
        assert stats["batch_size_histogram"] == {"1": 1, "4": 1}
        self._assert_direct(replies, probes[:5], few_runs_predictor)


class _UnusablePool:
    """A stand-in pool that fails the test if the service touches it."""

    def __getattr__(self, name):
        raise AssertionError(f"deprecated pool was used: .{name}")


class TestDeprecatedOptions:
    """Each removed knob still parses, warns once, and changes no bit."""

    def _vectors(self, registry, probe, **kwargs):
        with ServerHandle(registry, **kwargs) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                replies = [client.request(_predict_payload(probe, n_samples=16))
                           for _ in range(2)]
        assert [r["status"] for r in replies] == [200, 200], replies
        return [(r["vector"], r["samples"]) for r in replies]

    @pytest.mark.parametrize(
        "kwargs,replacement",
        [
            (dict(batch_window_s=0.002), "ServingConfig.max_batch"),
            (dict(plane="pool"), "repro.serving.fleet"),
            (dict(n_workers=2), "repro.serving.fleet"),
        ],
    )
    def test_config_field_warns_once_and_serves_identically(
        self, registry, intel_small, kwargs, replacement
    ):
        probe = intel_small["npb/bt"].subset(range(6))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            config = ServingConfig(cache_enabled=False, **kwargs)
        messages = _deprecations(caught)
        assert len(messages) == 1, messages
        assert f"ServingConfig({next(iter(kwargs))}=...)" in messages[0]
        assert replacement in messages[0]
        default = self._vectors(registry, probe, config=ServingConfig(cache_enabled=False))
        assert self._vectors(registry, probe, config=config) == default

    def test_pool_keyword_warns_once_and_is_never_used(self, registry, intel_small):
        probe = intel_small["npb/bt"].subset(range(6))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            served = self._vectors(registry, probe, pool=_UnusablePool())
        messages = _deprecations(caught)
        assert len(messages) == 1, messages
        assert "PredictionService(pool=...)" in messages[0]
        assert "repro.serving.fleet" in messages[0]
        assert served == self._vectors(registry, probe)

    def test_default_server_emits_no_deprecation(self, registry, intel_small):
        probe = intel_small["npb/bt"].subset(range(6))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            self._vectors(registry, probe)
        assert _deprecations(caught) == []

    @pytest.mark.parametrize(
        "flags,expected",
        [
            ([], []),
            (["--plane", "pool"], ["ServingConfig(plane=...)"]),
            (["--n-workers", "2"], ["ServingConfig(n_workers=...)"]),
        ],
    )
    def test_cli_serve_flags(self, registry, monkeypatch, flags, expected):
        """The CLI's default path is warning-free; each deprecated flag warns once."""

        class _Interrupt:
            def wait(self):
                raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_fit_or_reuse", lambda args: registry)
        monkeypatch.setattr(cli, "threading", SimpleNamespace(Event=_Interrupt))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["serve", *flags]) == 0
        messages = _deprecations(caught)
        assert len(messages) == len(expected), messages
        for message, old in zip(messages, expected):
            assert old in message


class TestAdmissionAndDeadlines:
    def _flood(self, registry, config, n_requests, probes, *, deadline_s=None):
        """Run *n_requests* concurrent submits while the executor is wedged.

        Blocking the single executor thread freezes batch execution, so
        queued requests stay pending and admission control is exercised
        deterministically.
        """

        async def scenario():
            service = PredictionService(registry, config)
            await service.start()
            release = threading.Event()
            service._executor.submit(release.wait)  # wedge the worker thread
            payloads = []
            for i in range(n_requests):
                body = {"model": "uc1", "campaign": encode_campaign(probes[i % len(probes)])}
                if deadline_s is not None:
                    body["deadline_s"] = deadline_s
                payloads.append(body)
            # Admission decisions happen synchronously at submit time, so
            # releasing the wedge shortly after cannot change the counts —
            # it only lets the accepted requests complete.
            asyncio.get_running_loop().call_later(0.3, release.set)
            try:
                replies = await asyncio.gather(
                    *(service.submit(p) for p in payloads)
                )
            finally:
                release.set()
                await service.close()
            return replies, service.stats()

        return asyncio.run(scenario())

    def test_backpressure_rejects_beyond_queue_limit(self, registry, intel_small):
        probes = [intel_small[b].subset(range(6)) for b in ROSTER]
        config = ServingConfig(queue_limit=4, cache_enabled=False, default_deadline_s=30.0)
        replies, stats = self._flood(registry, config, 10, probes)
        statuses = sorted(r["status"] for r in replies)
        assert statuses.count(429) == 6, statuses
        assert statuses.count(200) == 4, statuses
        assert stats["rejected"] == 6

    def test_deadline_expiry_returns_504(self, registry, intel_small):
        probes = [intel_small["npb/cg"].subset(range(6))]
        config = ServingConfig(queue_limit=4, cache_enabled=False)
        replies, stats = self._flood(registry, config, 1, probes, deadline_s=0.05)
        assert replies[0]["status"] == 504
        assert stats["expired"] == 1

    def test_rejection_does_not_poison_later_requests(self, registry, intel_small):
        """After a flood, a healthy request still succeeds on a new service."""
        probe = intel_small["npb/cg"].subset(range(6))
        config = ServingConfig(queue_limit=1, cache_enabled=False)
        with ServerHandle(registry, config) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                reply = client.request(_predict_payload(probe))
        assert reply["status"] == 200


class TestProtocolEdges:
    def test_unknown_model_is_404(self, registry, intel_small):
        probe = intel_small["npb/cg"].subset(range(6))
        with ServerHandle(registry) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                reply = client.request(
                    {"op": "predict", "model": "ghost", "campaign": encode_campaign(probe)}
                )
        assert reply["status"] == 404

    def test_malformed_campaign_is_400(self, registry):
        with ServerHandle(registry) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                reply = client.request(
                    {"op": "predict", "model": "uc1", "campaign": {"benchmark": 3}}
                )
        assert reply["status"] == 400

    @pytest.mark.parametrize(
        "field,value",
        [
            ("deadline_s", float("nan")),
            ("deadline_s", float("inf")),
            ("deadline_s", True),
            ("n_samples", True),
            ("sample_seed", False),
        ],
    )
    def test_non_finite_or_boolean_field_is_400(
        self, registry, intel_small, field, value
    ):
        """NaN/Infinity survive the server's json.loads; a NaN deadline
        would never expire, and booleans are not numbers on the wire."""
        probe = intel_small["npb/cg"].subset(range(6))
        body = json.loads(json.dumps(_predict_payload(probe, **{field: value})))

        async def scenario():
            service = PredictionService(registry, ServingConfig(cache_enabled=False))
            try:
                return await asyncio.wait_for(service.submit(body), 30)
            finally:
                await service.close()

        reply = asyncio.run(scenario())
        assert reply["status"] == 400, reply
        assert field in reply["error"]

    def test_unknown_op_is_400(self, registry):
        with ServerHandle(registry) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                reply = client.request({"op": "teleport"})
        assert reply["status"] == 400

    def test_non_json_line_is_400(self, registry):
        with ServerHandle(registry) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
                f = sock.makefile("rwb")
                f.write(b"this is not json\n")
                f.flush()
                reply = json.loads(f.readline())
        assert reply["status"] == 400

    def test_failed_batch_answers_each_request_with_its_own_id(
        self, registry, intel_small, monkeypatch
    ):
        """A failed group must not share one response dict across requests.

        Two pipelined predicts land in one batch; the model load fails,
        and each 500 must carry only its own request's ``id``.
        """

        def broken_load(key):
            raise RuntimeError("store unavailable")

        monkeypatch.setattr(registry, "load", broken_load)
        probe = intel_small["npb/cg"].subset(range(6))
        lines = [_predict_payload(probe, id="a"), _predict_payload(probe)]
        with ServerHandle(registry, ServingConfig(cache_enabled=False)) as server:
            with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
                f = sock.makefile("rwb")
                f.write(b"".join(json.dumps(line).encode() + b"\n" for line in lines))
                f.flush()
                replies = [json.loads(f.readline()) for _ in lines]
        assert [r["status"] for r in replies] == [500, 500], replies
        assert sorted(r.get("id", "") for r in replies) == ["", "a"], replies

    @pytest.mark.parametrize("kind", ["samples", "sketch"])
    def test_bad_probe_fails_alone_in_its_batch(
        self, registry, few_runs_predictor, intel_small, kind
    ):
        """A probe the model cannot take is a 400 for that request only.

        A 3-metric probe and a valid 68-metric sketch probe share one
        batch; the narrow one must not turn its batch-mate into a 500.
        """
        camp = intel_small["npb/cg"].subset(range(10))
        narrow = RunCampaign(
            camp.benchmark, camp.system, camp.runtimes, camp.counters[:, :3],
            camp.metric_names[:3],
        )
        bad = SketchProbe.from_campaign(narrow) if kind == "sketch" else narrow
        good = SketchProbe.from_campaign(camp)
        config = ServingConfig(cache_enabled=False)
        replies, stats = _submit_all(
            registry, config, [predict_request("uc1", bad), predict_request("uc1", good)]
        )
        assert stats["batch_size_histogram"] == {"2": 1}
        assert [r["status"] for r in replies] == [400, 200], replies
        assert "expected 272 features, got 12" in replies[0]["error"]
        assert np.array_equal(
            np.asarray(replies[1]["vector"], dtype=np.float64),
            few_runs_predictor.predict_vector(good),
        )
        assert stats["errors"] == 0

    def test_request_ids_round_trip(self, registry, intel_small):
        probe = intel_small["npb/cg"].subset(range(6))
        with ServerHandle(registry) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                reply = client.request(_predict_payload(probe, id="req-42"))
        assert reply["id"] == "req-42"

    def test_ping_models_and_stats_ops(self, registry):
        with ServerHandle(registry) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                assert client.ping()
                models = client.request({"op": "models"})["models"]
                assert any(info["tags"] == ["uc1"] for info in models.values())
                stats = client.request({"op": "stats"})["stats"]
        assert stats["requests"] == 0  # ping/models/stats are not predicts

    def test_sampling_is_seed_deterministic(self, registry, intel_small):
        probe = intel_small["npb/is"].subset(range(6))
        with ServerHandle(registry, ServingConfig(cache_enabled=False)) as server:
            with ServingClient("127.0.0.1", server.port) as client:
                a = client.request(_predict_payload(probe, n_samples=64, sample_seed=5))
                b = client.request(_predict_payload(probe, n_samples=64, sample_seed=5))
                c = client.request(_predict_payload(probe, n_samples=64, sample_seed=6))
        assert np.array_equal(decode_array(a["samples"]), decode_array(b["samples"]))
        assert not np.array_equal(decode_array(a["samples"]), decode_array(c["samples"]))


class TestObservability:
    def test_serving_metrics_are_emitted(self, registry, few_runs_predictor, intel_small):
        """With obs enabled, the documented serving.* names must appear."""
        from repro import obs

        probe = intel_small["npb/cg"].subset(range(6))
        obs.enable()
        try:
            registry.save(few_runs_predictor, name="again")
            with ServerHandle(registry, ServingConfig(cache_enabled=True)) as server:
                with ServingClient("127.0.0.1", server.port) as client:
                    client.request(_predict_payload(probe))
                    client.request(_predict_payload(probe))
                time.sleep(0.05)
            summary = obs.get_registry().snapshot()
        finally:
            obs.disable()
            obs.reset()
        counters = summary["counters"]
        for name in (
            "serving.requests",
            "serving.cache.hits",
            "serving.cache.misses",
            "serving.batches",
            "serving.batched_requests",
            "serving.registry.saves",
        ):
            assert counters.get(name, 0) >= 1, name
        assert "serving.batch_size" in summary["histograms"]
        assert "serving.latency_s" in summary["histograms"]
