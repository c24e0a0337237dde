"""Public-API hygiene: exports exist, are documented, and round-trip."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import repro

#: run in a fresh interpreter, where no test has imported a submodule
#: yet: the package names resolve lazily, and must resolve to the very
#: objects their submodules define.
_FRESH_PROCESS_CHECK = """
import importlib, sys

packages = ("repro", "repro.obs", "repro.campaign")
for package in packages:
    importlib.import_module(package)
eager = sorted(m for m in sys.modules if m.startswith("repro"))
assert eager == ["repro", "repro._lazy", "repro.campaign", "repro.obs"], eager

star = {}
exec("from repro import *", star)
import repro
missing = sorted(set(repro.__all__) - set(star))
assert len(repro.__all__) == 57 and not missing, missing

for package in packages:
    module = sys.modules[package]
    for source, names in module._EXPORTS.items():
        for name in names:
            value = getattr(module, name)
            owner = importlib.import_module(f"{package}.{source}")
            assert value is getattr(owner, name), f"{package}.{name}"
        assert getattr(module, source.split(".")[0]) is sys.modules[
            f"{package}.{source.split('.')[0]}"], source
    assert not hasattr(module, "no_such_name")
"""


class TestLazyExports:
    def test_names_resolve_on_first_use_to_their_submodules_objects(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        done = subprocess.run(
            [sys.executable, "-c", _FRESH_PROCESS_CHECK],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True,
        )
        assert done.returncode == 0, done.stderr.strip().splitlines()[-1]


class TestBenchmarkImports:
    """Every ``repro`` name the benchmarks import still exists: the perf
    harness (``benchmarks/perf/``) is frozen, so a deletion it would
    trip on has to fail here, in tier-1, and not only in the job that
    runs it."""

    def test_every_imported_repro_name_resolves(self):
        root = pathlib.Path(__file__).parent.parent / "benchmarks"
        paths = sorted(root.glob("*.py")) + sorted(root.glob("perf/*.py"))
        assert any(p.parent.name == "perf" for p in paths)
        missing = []
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    targets = [(alias.name, None) for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    targets = [(node.module, alias.name)
                               for alias in node.names]
                else:
                    continue
                for module, name in targets:
                    if module != "repro" and not module.startswith("repro."):
                        continue
                    where = f"{path.name}:{node.lineno} {module}"
                    try:
                        owner = importlib.import_module(module)
                    except ImportError:
                        missing.append(where)
                        continue
                    if name is not None and not hasattr(owner, name):
                        try:
                            importlib.import_module(f"{module}.{name}")
                        except ImportError:
                            missing.append(f"{where}.{name}")
        assert not missing, missing


def test_no_module_imports_a_name_it_never_uses():
    """Every name a ``src/`` module imports is read in that module (no
    linter runs here).  A quoted annotation counts as a read; the
    packages' ``__init__.py`` export tables are the exception, since
    importing a name for callers is what they are for."""
    root = pathlib.Path(__file__).parent.parent / "src" / "repro"
    unused = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        used = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(sub.id for sub in ast.walk(quoted)
                            if isinstance(sub, ast.Name))
        relative = path.relative_to(root)
        unused += [f"{relative}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, unused


class TestAllList:
    def test_every_name_in_all_exists(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ lists missing {name}"

    def test_no_duplicates(self):
        assert len(repro.__all__) == len(set(repro.__all__))

    def test_every_public_item_documented(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not (obj.__doc__ or "").strip():
                    undocumented.append(name)
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_key_entry_points_present(self):
        for name in (
            "SimConfig", "run_simulation", "FastEngine", "Message",
            "WormholeNetwork", "ProtocolConfig", "torus",
        ):
            assert name in repro.__all__


class TestModuleDocstrings:
    def test_every_module_has_a_docstring(self):
        import pathlib

        root = pathlib.Path(repro.__file__).parent
        missing = []
        for path in sorted(root.rglob("*.py")):
            text = path.read_text()
            stripped = text.lstrip()
            if not stripped:
                continue  # empty __init__ stubs
            if not stripped.startswith(('"""', "'''", 'r"""')):
                missing.append(str(path.relative_to(root)))
        assert not missing, f"modules without docstrings: {missing}"


class TestVersion:
    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    def test_pyproject_carries_no_literal_version(self):
        # repro.__version__ is the single source (the store, the sweep
        # cache key and cr_build_info read it); packaging derives it.
        import pathlib
        import re

        text = (
            pathlib.Path(__file__).parent.parent / "pyproject.toml"
        ).read_text()
        assert not re.search(r'^\s*version\s*=\s*"', text, re.MULTILINE)
        assert re.search(r'^dynamic\s*=\s*\[[^\]]*"version"', text,
                         re.MULTILINE)
        assert 'attr = "repro.__version__"' in text
