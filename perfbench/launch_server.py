"""Traced launcher for the stock serving CLI.

``python perfbench/launch_server.py SPANS_PREFIX serve|fleet [CLI args...]``
enables ``repro.obs``, wraps the public calls each serving layer makes in
the benchmark's spans, and then runs ``repro.serving``'s own ``main``.  Fleet
shards are spawned through the same wrappers.  Every process writes its
spans to ``SPANS_PREFIX.<process>.jsonl`` when it exits cleanly (Ctrl-C for
the CLI, the router's drain for a shard).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def install_service_wrappers() -> None:
    """Spans around protocol, registry, predictor and service calls.

    Work for one request crosses from the event loop to the executor
    thread; the decoded probe object carries its ``service.submit`` span
    across the hop, then the predicted vector, the reconstructed
    distribution and the draws carry it on.
    """
    from repro.core import representations
    from repro.core.predictors import FewRunsPredictor
    from repro.serving import service
    from repro.serving.registry import ModelRegistry

    spans.wrap(
        service.PredictionService,
        "submit",
        "service.submit",
        attrs_of=lambda a, k: {"id": a[1].get("id")} if isinstance(a[1], dict) else {},
    )
    spans.wrap(service, "probe_fingerprint", "protocol.fingerprint")
    spans.wrap(ModelRegistry, "resolve", "registry.resolve")
    spans.wrap(ModelRegistry, "load", "registry.load")

    spans.wrap(service, "decode_probe", "protocol.decode", carrier=lambda a: None)
    spans.wrap(service, "encode_array", "protocol.encode", carrier=lambda a: a[0])
    spans.wrap(FewRunsPredictor, "predict_vector", "predict.compute", carrier=lambda a: a[1])
    for name in ("HistogramRepresentation", "PyMaxEntRepresentation",
                 "PearsonRndRepresentation"):
        spans.wrap(getattr(representations, name), "reconstruct", "predict.decode",
                   carrier=lambda a: a[1])
    for kind in representations.ReconstructedDistribution.__subclasses__():
        spans.wrap(kind, "sample", "predict.decode", carrier=lambda a: a[0])


def install_router_wrappers() -> None:
    """Spans around the router's shard forwards."""
    from repro.serving.fleet import router

    spans.wrap(
        router.ShardLink,
        "request",
        "router.link",
        attrs_of=lambda a, k: {"id": a[1].get("id"), "op": a[1].get("op", "predict")},
    )


def shard_entry(conn, shard_id, *args, **kwargs):
    """Fleet shard process entry: the stock shard, traced."""
    from repro import obs
    from repro.serving.fleet.shard import run_shard

    install_service_wrappers()
    obs.enable()
    try:
        run_shard(conn, shard_id, *args, **kwargs)
    finally:
        spans.dump(f"{os.environ['PERFBENCH_SPANS']}.{shard_id}.jsonl")


def main(argv: list[str]) -> int:
    from repro import obs
    from repro.serving import __main__ as cli
    from repro.serving.fleet import handle

    prefix, cli_args = argv[0], argv[1:]
    os.environ["PERFBENCH_SPANS"] = prefix
    install_service_wrappers()
    install_router_wrappers()
    handle.run_shard = shard_entry
    obs.enable()
    try:
        return cli.main(cli_args)
    finally:
        spans.dump(f"{prefix}.main.jsonl")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
