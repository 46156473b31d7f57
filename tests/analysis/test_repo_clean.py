"""Tier-1 gate: the full rule set is clean over this repository.

This is the static counterpart of the bit-identical KS checksum tests:
any unsuppressed finding — an unseeded RNG, an undocumented metric, a
leaky shared-memory path, a new undocumented public definition — fails
tier-1 here, before it can reach a reviewer.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import REPORT_SCHEMA, REPORT_VERSION, all_rules, run_analysis

ROOT = Path(__file__).resolve().parent.parent.parent


def test_repository_is_clean():
    report = run_analysis(root=ROOT)
    assert not report.unsuppressed, "unsuppressed findings:\n" + "\n".join(
        f.format() for f in report.unsuppressed
    )


def test_the_walk_actually_covers_the_repo():
    # Guards against a silently-empty walk making the gate vacuous.
    report = run_analysis(root=ROOT)
    assert len(report.files) > 100
    assert {"src/repro/core/engine.py", "src/repro/parallel/shm.py"} <= set(
        report.files
    )
    assert len(report.rules_run) == len(all_rules())
    # The vetted false positives must be visible as *suppressed* — if the
    # suppression machinery broke, they would fail the clean gate above;
    # if the rules stopped firing, they would vanish from here.
    suppressed = {(f.rule_id, f.path) for f in report.suppressed}
    assert ("DET005", "src/repro/stats/bootstrap.py") in suppressed
    assert ("CONC001", "tests/test_parallel.py") in suppressed


def test_obs_contract_is_statically_cross_checked():
    # Both directions must have run over the real contract: the OBS rules
    # are in the active set and the contract doc parses to a non-trivial
    # name table (see tests/analysis/test_rules.py for positive cases).
    from repro.analysis.obs_contract import CONTRACT_DOC, documented_names

    names = documented_names((ROOT / CONTRACT_DOC).read_text())
    assert len(names) > 30
    assert "engine.folds.fitted" in names
    assert "fold_batch" in names


def test_docstring_allowlist_never_grows():
    # DOC001 exempts the pinned pre-existing gaps; the pin is shrink-only
    # (the seeded debt when the gate was introduced).
    from repro.analysis.docstrings import ALLOWLIST

    assert len(ALLOWLIST) <= 24


def test_baseline_snapshot_is_current():
    baseline_path = ROOT / "results" / "ANALYSIS_baseline.json"
    assert baseline_path.is_file(), "regenerate: python -m repro.analysis --format json -o results/ANALYSIS_baseline.json"
    baseline = json.loads(baseline_path.read_text())
    assert baseline["schema"] == REPORT_SCHEMA
    assert baseline["version"] == REPORT_VERSION
    assert baseline["exit_code"] == 0

    from repro.analysis import render_json

    current = json.loads(render_json(run_analysis(root=ROOT)))
    assert current == baseline, (
        "rule-count regression vs results/ANALYSIS_baseline.json — if the "
        "change is intended, regenerate the snapshot"
    )
