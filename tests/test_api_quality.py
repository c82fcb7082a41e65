"""API quality gates: the public surface is importable and documented."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SUBPACKAGES = [
    "repro.sim", "repro.xs1", "repro.network", "repro.board",
    "repro.energy", "repro.analysis", "repro.apps", "repro.core",
    "repro.obs",
]


class TestPublicSurface:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name}"

    @pytest.mark.parametrize("package_name", SUBPACKAGES)
    def test_subpackage_all_resolves(self, package_name):
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            assert hasattr(package, name), f"{package_name}.__all__: {name}"

    def test_no_duplicate_exports(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_all_is_sorted(self):
        assert list(repro.__all__) == sorted(repro.__all__)


def _public_members():
    """Every public class/function defined inside the repro tree."""
    members = []
    for package_name in SUBPACKAGES:
        package = importlib.import_module(package_name)
        prefix = package.__name__ + "."
        for module_info in pkgutil.iter_modules(package.__path__, prefix):
            module = importlib.import_module(module_info.name)
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                members.append((module.__name__, name, obj))
    return members


class TestDocumentation:
    def test_every_module_has_a_docstring(self):
        undocumented = []
        for package_name in SUBPACKAGES:
            package = importlib.import_module(package_name)
            prefix = package.__name__ + "."
            for module_info in pkgutil.iter_modules(package.__path__, prefix):
                module = importlib.import_module(module_info.name)
                if not (module.__doc__ or "").strip():
                    undocumented.append(module.__name__)
        assert not undocumented

    def test_every_public_item_has_a_docstring(self):
        undocumented = [
            f"{module}.{name}"
            for module, name, obj in _public_members()
            if not (obj.__doc__ or "").strip()
        ]
        assert not undocumented, f"{len(undocumented)} items: {undocumented[:10]}"

    def test_public_methods_documented(self):
        undocumented = []
        for module, name, obj in _public_members():
            if not inspect.isclass(obj):
                continue
            for attr_name, attr in vars(obj).items():
                if attr_name.startswith("_"):
                    continue
                if not (inspect.isfunction(attr) or isinstance(attr, property)):
                    continue
                doc = (
                    attr.fget.__doc__ if isinstance(attr, property) and attr.fget
                    else getattr(attr, "__doc__", None)
                )
                if not (doc or "").strip():
                    undocumented.append(f"{module}.{name}.{attr_name}")
        assert not undocumented, (
            f"{len(undocumented)} methods: {undocumented[:10]}"
        )


class TestLayering:
    def test_library_never_imports_the_cli(self):
        """Building every registered workload leaves the CLI unimported."""
        code = (
            "import sys\n"
            "import repro\n"
            "from repro.checkpoint import WORKLOADS, build_workload\n"
            "for name in sorted(WORKLOADS):\n"
            "    build_workload(name, {})\n"
            "assert 'repro.__main__' not in sys.modules, 'CLI imported'\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr

    def test_canonical_module_is_a_leaf(self):
        """repro.canonical imports nothing from repro, so any layer may."""
        import repro.canonical

        with open(repro.canonical.__file__, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        imported = [
            alias.name for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names
        ] + [
            node.module or "" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        ]
        assert not [name for name in imported if name.startswith("repro")]
