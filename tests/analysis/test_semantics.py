"""Semantics layer: symbol graph, call graph, ``Project.semantics``."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import build_project, module_path

FIXTURES = Path(__file__).resolve().parent / "fixtures"
MINIPROJ = FIXTURES / "miniproj"


def _project(tmp_path, files):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return build_project(tmp_path)


class TestModulePath:
    def test_src_prefix_is_stripped(self):
        assert module_path("src/repro/serving/fleet/router.py") == "repro.serving.fleet.router"

    def test_package_init_maps_to_the_package(self):
        assert module_path("src/repro/serving/__init__.py") == "repro.serving"

    def test_non_src_trees_keep_their_prefix(self):
        assert module_path("tools/trace_report.py") == "tools.trace_report"


class TestSymbolGraph:
    def test_defs_and_kinds(self):
        project = build_project(MINIPROJ)
        table = project.semantics.symbols.module("minipkg.jobs")
        assert table is not None
        assert table.defs["good_task"].kind == "function"
        assert table.defs["work"].kind == "lambda"

    def test_relative_import_resolution(self):
        project = build_project(MINIPROJ)
        sym = project.semantics.symbols.resolve("minipkg.dispatch", "work")
        assert sym is not None
        assert sym.qualname == "minipkg.jobs.work"
        assert sym.kind == "lambda"

    def test_reexport_chain_through_package_init(self):
        # __init__ re-binds jobs.work as fast_work; resolving the
        # re-export lands on the original definition.
        project = build_project(MINIPROJ)
        sym = project.semantics.symbols.resolve("minipkg", "fast_work")
        assert sym is not None
        assert sym.qualname == "minipkg.jobs.work"

    def test_implicit_submodule_resolution(self):
        project = build_project(MINIPROJ)
        sym = project.semantics.symbols.resolve("minipkg", "store_ops")
        assert sym is not None
        assert sym.kind == "module"
        assert sym.module == "minipkg.store_ops"

    def test_dotted_resolution_across_modules(self):
        project = build_project(MINIPROJ)
        sym = project.semantics.symbols.resolve_dotted(
            "minipkg", "store_ops.consume_and_close"
        )
        assert sym is not None
        assert sym.qualname == "minipkg.store_ops.consume_and_close"

    def test_names_outside_the_walk_resolve_to_none(self):
        # Under the wider fixtures root, app.py's absolute `minipkg.*`
        # import points outside the symbol graph's module table.
        project = build_project(FIXTURES)
        sym = project.semantics.symbols.resolve("miniproj.app", "work")
        assert sym is None

    def test_picklability_verdicts(self):
        project = build_project(MINIPROJ)
        symbols = project.semantics.symbols
        lam = symbols.resolve("minipkg.dispatch", "work")
        fn = symbols.resolve("minipkg.dispatch", "good_task")
        assert lam is not None and not lam.picklable_by_reference
        assert fn is not None and fn.picklable_by_reference


class TestCallGraph:
    def test_direct_edges_across_an_import(self):
        project = build_project(MINIPROJ)
        graph = project.semantics.callgraph
        node = graph.node("minipkg.serve.lookup")
        assert node is not None
        assert [c.callee.qualname for c in node.calls if c.kind == "direct"] == [
            "minipkg.io_helpers.load_tag"
        ]

    def test_method_edge_through_annotated_ctor_param(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "models.py": '''
                    """models."""


                    class Base:
                        """base."""

                        def ping(self):
                            """ping."""
                            return 1


                    class Model(Base):
                        """model."""

                        def predict(self, x):
                            """predict."""
                            return x
                ''',
                "caller.py": '''
                    """caller."""

                    from models import Model


                    class Service:
                        """service."""

                        def __init__(self, model: Model):
                            """init."""
                            self.model = model

                        def run(self, x):
                            """run."""
                            return self.model.predict(x)
                ''',
            },
        )
        graph = project.semantics.callgraph
        node = graph.node("caller.Service.run")
        assert node is not None
        edges = {(c.callee.qualname, c.kind) for c in node.calls}
        assert ("models.Model.predict", "method") in edges

    def test_inherited_method_resolves_through_bases(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "models.py": '''
                    """models."""


                    class Base:
                        """base."""

                        def ping(self):
                            """ping."""
                            return 1


                    class Model(Base):
                        """model."""
                ''',
                "caller.py": '''
                    """caller."""

                    from models import Model


                    def use(m: Model):
                        """use."""
                        return m.ping()
                ''',
            },
        )
        node = project.semantics.callgraph.node("caller.use")
        assert node is not None
        assert [(c.callee.qualname, c.kind) for c in node.calls] == [
            ("models.Base.ping", "method")
        ]

    def test_local_constructor_type_inference(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "m.py": '''
                    """m."""


                    class Widget:
                        """widget."""

                        def spin(self):
                            """spin."""
                            return 1


                    def go():
                        """go."""
                        w = Widget()
                        return w.spin()
                ''',
            },
        )
        node = project.semantics.callgraph.node("m.go")
        assert node is not None
        edges = {(c.callee.qualname, c.kind) for c in node.calls}
        assert ("m.Widget.spin", "method") in edges
        # the constructor itself is a direct edge to the class
        assert ("m.Widget", "direct") in edges

    def test_executor_and_callback_edges(self, tmp_path):
        project = _project(
            tmp_path,
            {
                "t.py": '''
                    """t."""


                    def job(x):
                        """job."""
                        return x


                    async def arun(loop):
                        """arun."""
                        return await loop.run_in_executor(None, job, 1)


                    def schedule(loop):
                        """schedule."""
                        loop.call_soon(job)
                ''',
            },
        )
        graph = project.semantics.callgraph
        arun = graph.node("t.arun")
        schedule = graph.node("t.schedule")
        assert arun is not None and schedule is not None
        assert [(c.callee.qualname, c.kind) for c in arun.calls] == [
            ("t.job", "executor")
        ]
        assert [(c.callee.qualname, c.kind) for c in schedule.calls] == [
            ("t.job", "callback")
        ]


class TestSemanticsMemo:
    def test_same_project_returns_the_same_instance(self):
        project = build_project(MINIPROJ)
        assert project.semantics is project.semantics

    def test_rebuilt_project_with_shared_trees_reuses_the_graphs(self):
        # The AST cache returns identical tree objects for unchanged
        # content, so a rebuilt Project hits the semantics memo too.
        first = build_project(MINIPROJ)
        second = build_project(MINIPROJ)
        if all(
            a.tree is b.tree for a, b in zip(first.sources, second.sources)
        ):  # cache enabled (the default)
            assert first.semantics is second.semantics
