"""Tests of the top-level package surface."""

import importlib

import pytest

import repro


class TestTopLevelApi:
    def test_version(self):
        assert repro.__version__

    def test_core_reexports(self):
        assert repro.BUFFERING_RATIO.name == "buffering_ratio"
        assert callable(repro.analyze_trace)
        assert repro.DEFAULT_SCHEMA.names[0] == "asn"

    def test_lazy_trace_exports(self):
        assert callable(repro.generate_trace)
        assert repro.StandardWorkloads.tiny().name == "tiny"

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            repro.no_such_thing

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name


class TestSubpackageImports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.trace",
            "repro.sim",
            "repro.analysis",
            "repro.experiments",
            "repro.io",
            "repro.cli",
        ],
    )
    def test_importable(self, module):
        importlib.import_module(module)

    @pytest.mark.parametrize(
        "module",
        ["repro.core", "repro.trace", "repro.sim", "repro.analysis"],
    )
    def test_all_lists_resolve(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert getattr(mod, name) is not None, f"{module}.{name}"


class TestPublicDocstrings:
    @pytest.mark.parametrize(
        "module",
        [
            "repro",
            "repro.core.critical",
            "repro.core.problems",
            "repro.trace.events",
            "repro.sim.playback",
            "repro.analysis.whatif",
        ],
    )
    def test_module_docstrings(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__) > 40

    def test_public_callables_documented(self):
        import repro.analysis.whatif as whatif
        import repro.core.critical as critical

        for mod in (whatif, critical):
            for name in dir(mod):
                if name.startswith("_"):
                    continue
                obj = getattr(mod, name)
                if callable(obj) and getattr(obj, "__module__", "").startswith(
                    "repro."
                ):
                    assert obj.__doc__, f"{mod.__name__}.{name} undocumented"


class TestImportFootprint:
    def test_cli_import_loads_no_networkx(self):
        # networkx is not a runtime dependency; a CLI process (and the
        # pool workers it starts) must not pay for importing it.
        import subprocess
        import sys

        from tests.test_cli import _cli_env

        code = "import sys, repro.cli; print('networkx' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=_cli_env(), check=True, capture_output=True, text=True,
        )
        assert out.stdout.strip() == "False"
