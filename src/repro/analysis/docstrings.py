"""DOC rule pack — public-API docstring coverage.

Every module, public module-level function/class and public method of a
public class under the library tree must carry a docstring.  The gaps
that predate the gate are pinned in :data:`ALLOWLIST` so coverage can
only improve; when an allowlisted definition gains its docstring, the
now-stale entry must be deleted (**DOC002**), shrinking the list over
time.  The tier-1 suite gates both rules through
``tests/analysis/test_repo_clean.py``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .core import Finding, Rule, register
from .walker import Project, Scope, SourceFile

__all__ = [
    "ALLOWLIST",
    "iter_module_gaps",
    "MissingDocstringRule",
    "StaleAllowlistRule",
]

#: Known documentation gaps at the time the gate was introduced.
#: Do not add entries — document the definition instead.
ALLOWLIST: frozenset[str] = frozenset(
    {
        "repro/core/features.py:FeatureConfig.n_moments",
        "repro/core/quantile_representation.py:QuantileRepresentation.encode",
        "repro/core/quantile_representation.py:QuantileRepresentation.encoding_key",
        "repro/core/quantile_representation.py:QuantileRepresentation.n_dims",
        "repro/core/quantile_representation.py:QuantileRepresentation.reconstruct",
        "repro/core/representations.py:HistogramRepresentation.encode",
        "repro/core/representations.py:HistogramRepresentation.encoding_key",
        "repro/core/representations.py:HistogramRepresentation.n_dims",
        "repro/core/representations.py:HistogramRepresentation.reconstruct",
        "repro/core/representations.py:PearsonRndRepresentation.reconstruct",
        "repro/core/representations.py:PyMaxEntRepresentation.reconstruct",
        "repro/ml/knn.py:KNNRegressor.fit",
        "repro/ml/model_selection.py:GroupKFold.get_n_splits",
        "repro/ml/model_selection.py:GroupKFold.split",
        "repro/ml/model_selection.py:KFold.get_n_splits",
        "repro/ml/model_selection.py:KFold.split",
        "repro/ml/model_selection.py:LeaveOneGroupOut.get_n_splits",
        "repro/ml/model_selection.py:LeaveOneGroupOut.split",
        "repro/ml/scaling.py:RobustScaler.fit",
        "repro/ml/scaling.py:StandardScaler.fit",
        "repro/simbench/variability.py:RunDraws.n_runs",
        "repro/stats/empirical.py:ECDF.from_samples",
    }
)


def _public(name: str) -> bool:
    return not name.startswith("_")


def iter_module_gaps(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
    """``(node, qualname)`` per undocumented public definition of *tree*."""
    if ast.get_docstring(tree) is None:
        yield tree, "<module>"
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _public(node.name) and ast.get_docstring(node) is None:
                yield node, node.name
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            if ast.get_docstring(node) is None:
                yield node, node.name
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _public(item.name) and ast.get_docstring(item) is None:
                        yield item, f"{node.name}.{item.name}"


def _gap_key(relpath: str, qualname: str) -> str:
    # Allowlist entries are relative to `src/`; strip the prefix when
    # present.
    rel = relpath[4:] if relpath.startswith("src/") else relpath
    return f"{rel}:{qualname}"


@register
class MissingDocstringRule(Rule):
    """Public definitions in library code must carry docstrings."""

    rule_id = "DOC001"
    name = "missing-docstring"
    rationale = (
        "the public API is the reproduction's paper-facing surface; "
        "undocumented definitions rot fastest. Pre-existing gaps are pinned "
        "in the ALLOWLIST baseline so coverage can only improve."
    )

    def __init__(self) -> None:
        self.seen_gap_keys: set[str] = set()

    def applies_to(self, source: SourceFile) -> bool:
        """Parsed library files only."""
        return source.scope is Scope.LIBRARY and source.tree is not None

    def check(self, source: SourceFile) -> Iterable[Finding]:
        """Flag undocumented public definitions not in the baseline."""
        for node, qualname in iter_module_gaps(source.tree):
            key = _gap_key(source.relpath, qualname)
            self.seen_gap_keys.add(key)
            if key in ALLOWLIST:
                continue
            yield self.finding(
                source,
                node,
                f"public definition `{qualname}` has no docstring (do not "
                "extend the allowlist — document it)",
            )


@register
class StaleAllowlistRule(Rule):
    """Allowlist entries must disappear once their target is documented."""

    rule_id = "DOC002"
    name = "stale-allowlist"
    rationale = (
        "a stale baseline entry would let a future regression of that "
        "definition slip through unnoticed; deleting it keeps the baseline "
        "shrink-only."
    )

    def __init__(self) -> None:
        self._gaps: set[str] = set()
        self._saw_library = False

    def applies_to(self, source: SourceFile) -> bool:
        """Parsed library files only."""
        return source.scope is Scope.LIBRARY and source.tree is not None

    def check(self, source: SourceFile) -> Iterable[Finding]:
        """Accumulate present gaps (no per-file findings)."""
        self._saw_library = True
        for _node, qualname in iter_module_gaps(source.tree):
            self._gaps.add(_gap_key(source.relpath, qualname))
        return ()

    def finalize(self, project: Project) -> Iterable[Finding]:
        """Flag baseline entries whose gap no longer exists.

        Skipped on partial runs and for corpora that do not contain the
        library tree the baseline describes (e.g. the test fixtures).
        """
        if project.partial or not self._saw_library:
            return
        if not any(s.relpath.startswith("src/repro/") for s in project.sources):
            return
        for entry in sorted(ALLOWLIST - self._gaps):
            yield Finding(
                rule_id=self.rule_id,
                path="src/repro/analysis/docstrings.py",
                line=1,
                col=0,
                message=(
                    f"stale ALLOWLIST entry `{entry}` — the definition is now "
                    "documented; delete the entry"
                ),
            )
