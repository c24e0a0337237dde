"""Public-API hygiene: exports exist, are documented, and round-trip."""

import inspect


import repro


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
            "SimConfig", "run_simulation", "Engine", "Message",
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
