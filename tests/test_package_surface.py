"""API-surface stability guards.

Cheap checks that the advertised public names exist and resolve -
catches broken re-exports before users do.
"""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.granularity",
    "repro.constraints",
    "repro.automata",
    "repro.mining",
    "repro.hardness",
    "repro.resilience",
    "repro.simulation",
    "repro.store",
    "repro.io",
    "repro.core",
    "repro.parallel",
    "repro.service",
    "repro.bench",
    "repro.obs",
    "repro.cli",
]

#: Every package: each resolves its exports on first use (except
#: ``repro.obs``, which every layer imports anyway).
PACKAGES = ["repro"] + [m for m in SUBPACKAGES if m != "repro.cli"]


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), "missing top-level name %r" % name

    def test_headline_api(self):
        for name in (
            "TCG",
            "EventStructure",
            "ComplexEventType",
            "StructureBuilder",
            "standard_system",
            "build_tag",
            "TagMatcher",
            "StreamingMatcher",
            "EventSequence",
            "EventDiscoveryProblem",
            "discover",
            "mine",
            "compile_pattern",
            "stream_pattern",
        ):
            assert name in repro.__all__


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_importable(self, module_name):
        module = importlib.import_module(module_name)
        assert module is not None

    @pytest.mark.parametrize(
        "module_name",
        [m for m in SUBPACKAGES if m not in ("repro.cli",)],
    )
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (
                "%s.__all__ advertises missing %r" % (module_name, name)
            )

    @pytest.mark.parametrize("module_name", PACKAGES)
    def test_dir_lists_every_export(self, module_name):
        module = importlib.import_module(module_name)
        assert set(module.__all__) <= set(dir(module))

    @pytest.mark.parametrize("module_name", PACKAGES)
    def test_star_import_binds_every_export(self, module_name):
        namespace = {}
        exec("from %s import *" % module_name, namespace)
        module = importlib.import_module(module_name)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name)

    def test_py_typed_marker_present(self):
        import os

        package_dir = os.path.dirname(repro.__file__)
        assert os.path.exists(os.path.join(package_dir, "py.typed"))
