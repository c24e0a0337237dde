"""The reachability check (``tools/reachability.py``) on the real tree and
on small planted trees, each of which it must fail."""

import importlib.util
import pathlib
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "reachability", ROOT / "tools" / "reachability.py")
reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachability)


def test_the_tree_passes():
    report = reachability.check(ROOT)
    assert report.findings == []


def test_every_reason_is_in_the_vocabulary():
    for symbol, reason in reachability.KEEP.items():
        assert reachability.REASON.fullmatch(reason), (symbol, reason)


def plant(root, files):
    """Write ``files`` (path -> source) under ``root``."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def findings(root, keep=None):
    return reachability.check(root, keep or {}).findings


def kinds(found):
    return sorted({line.split(": ")[0] for line in found})


LIBRARY = {
    "src/repro/__init__.py": "",
    "src/repro/lib.py": """\
        class Registry:
            def snapshot(self):
                return {}

        class Monitor:
            def snapshot(self):
                return {}

        class Coordinator:
            def run(self, timeout=None):
                return timeout

        def used(flag=False):
            return Monitor().snapshot()
        """,
    "tools/drive.py": """\
        import subprocess

        from repro.lib import Coordinator, Registry, used

        registry = Registry()
        used(flag=True)
        Coordinator().run()
        # a namesake: subprocess's timeout, not the coordinator's
        subprocess.run(["true"], timeout=5)
        """,
}


class TestPlantedTrees:
    def test_the_clean_library_passes_with_its_entries(self, tmp_path):
        root = plant(tmp_path, LIBRARY)
        keep = {"repro.lib.Registry.snapshot": "oracle",
                "repro.lib.Coordinator.run(timeout=)": "seam"}
        assert findings(root, keep) == []

    def test_a_dead_function_fails(self, tmp_path):
        root = plant(tmp_path, {**LIBRARY, "src/repro/extra.py": """\
            def dead():
                return 2
            """, "tests/test_extra.py": """\
            from repro.extra import dead

            def test_dead():
                assert dead() == 2
            """})
        found = findings(root)
        assert any(line.startswith("dead: repro.extra.dead ")
                   and "test tests/test_extra.py" in line for line in found)

    def test_a_dead_defaulted_parameter_fails(self, tmp_path):
        root = plant(tmp_path, {**LIBRARY, "src/repro/extra.py": """\
            def scaled(value, factor=2):
                return value * factor
            """, "tools/scale.py": """\
            from repro.extra import scaled

            print(scaled(3))
            """, "tests/test_extra.py": """\
            from repro.extra import scaled

            def test_factor():
                assert scaled(3, factor=3) == 9
            """})
        found = findings(root)
        assert any(line.startswith("dead: repro.extra.scaled(factor=)")
                   for line in found)
        assert not any("repro.extra.scaled " in line for line in found)

    def test_a_method_a_namesake_reaches_fails(self, tmp_path):
        """The stale ``MetricsRegistry.snapshot`` verdict: the one
        production ``snapshot()`` has another class as its receiver."""
        found = findings(plant(tmp_path, LIBRARY))
        assert any(line.startswith("dead: repro.lib.Registry.snapshot ")
                   for line in found)
        assert not any("repro.lib.Monitor.snapshot " in line
                       for line in found)

    def test_a_parameter_a_namesake_passes_fails(self, tmp_path):
        """The stale ``Coordinator.run(timeout=)`` verdict: the one
        production ``timeout=`` goes to ``subprocess.run``."""
        found = findings(plant(tmp_path, LIBRARY))
        assert any(line.startswith("dead: repro.lib.Coordinator.run(timeout=)")
                   for line in found)

    def test_a_site_in_a_dead_method_does_not_count(self, tmp_path):
        root = plant(tmp_path, {**LIBRARY, "src/repro/extra.py": """\
            class Leaf:
                def value(self):
                    return 1

            class Branch:
                def unused(self):
                    return Leaf().value()
            """, "tools/branch.py": """\
            from repro.extra import Branch

            Branch()
            """})
        found = findings(root)
        assert any(line.startswith("dead: repro.extra.Branch.unused ")
                   for line in found)
        assert any(line.startswith("dead: repro.extra.Leaf.value ")
                   for line in found)

    def test_a_duck_typed_store_reaches_its_class(self, tmp_path):
        """A value stored into an annotated name or attribute adds its
        class to the target's types, though the annotation names
        another: ``x: Base = Duck(); x.quack()`` reaches ``Duck.quack``."""
        root = plant(tmp_path, {**LIBRARY, "src/repro/extra.py": """\
            class Base:
                def swim(self):
                    return "swim"

            class Duck:
                def quack(self):
                    return "quack"

            class Goose:
                def honk(self):
                    return "honk"

            class Pond:
                def __init__(self):
                    self.bird: Base = Goose()

                def stir(self):
                    return self.bird.honk()
            """, "tools/pond.py": """\
            from repro.extra import Base, Duck, Pond

            x: Base = Duck()
            x.quack()
            x.swim()
            Pond().stir()
            """})
        found = findings(root)
        assert not any(line.startswith(("dead: repro.extra.Duck.quack ",
                                         "dead: repro.extra.Goose.honk "))
                       for line in found), found

    def test_an_unresolved_receiver_needs_an_entry(self, tmp_path):
        files = {**LIBRARY, "src/repro/extra.py": """\
            class Sink:
                def on_event(self, event):
                    return event

            def publish(sinks, event):
                for sink in sinks:
                    sink.on_event(event)
            """, "tools/publish.py": """\
            import queue

            from repro.extra import Sink, publish

            # a queued value could hold anything
            publish(queue.Queue().get(), 1)
            print(Sink())
            """}
        keep = {"repro.lib.Registry.snapshot": "oracle",
                "repro.lib.Coordinator.run(timeout=)": "seam"}
        root = plant(tmp_path, files)
        found = findings(root, keep)
        assert any(line.startswith("dead: repro.extra.Sink.on_event ")
                   and "unresolved src/repro/extra.py:7" in line
                   for line in found)
        keep["repro.extra.Sink.on_event"] = (
            "unresolved: src/repro/extra.py:7")
        assert findings(root, keep) == []
        keep["repro.extra.Sink.on_event"] = "unresolved: tools/drive.py:1"
        assert kinds(findings(root, keep)) == ["reason"]

    def test_an_entry_whose_symbol_is_gone_fails(self, tmp_path):
        root = plant(tmp_path, LIBRARY)
        keep = {"repro.lib.Registry.snapshot": "oracle",
                "repro.lib.Coordinator.run(timeout=)": "seam",
                "repro.lib.Registry.write_json": "seam"}
        found = findings(root, keep)
        assert kinds(found) == ["gone"]
        assert "repro.lib.Registry.write_json" in found[0]

    def test_an_entry_whose_symbol_gained_a_caller_fails(self, tmp_path):
        files = dict(LIBRARY)
        files["tools/drive.py"] += "registry.snapshot()\n"
        keep = {"repro.lib.Registry.snapshot": "oracle",
                "repro.lib.Coordinator.run(timeout=)": "seam"}
        found = findings(plant(tmp_path, files), keep)
        assert kinds(found) == ["caller"]
        assert "repro.lib.Registry.snapshot" in found[0]

    @pytest.mark.parametrize("reason", ["kept", "harness import", "ROADMAP"])
    def test_a_reason_outside_the_vocabulary_fails(self, tmp_path, reason):
        keep = {"repro.lib.Registry.snapshot": reason,
                "repro.lib.Coordinator.run(timeout=)": "seam"}
        found = findings(plant(tmp_path, LIBRARY), keep)
        assert kinds(found) == ["reason"]

    def test_a_package_export_nothing_imports_fails(self, tmp_path):
        files = dict(LIBRARY)
        files["src/repro/__init__.py"] = """\
            from ._lazy import lazy_exports

            _EXPORTS = {"lib": ("Monitor", "used")}
            __all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
            """
        files["src/repro/_lazy.py"] = "def lazy_exports(*args):\n    pass\n"
        files["tests/test_api.py"] = "from repro import used\n"
        keep = {"repro.lib.Registry.snapshot": "oracle",
                "repro.lib.Coordinator.run(timeout=)": "seam"}
        found = findings(plant(tmp_path, files), keep)
        assert [line.split(" (")[0] for line in found] == [
            "dead: repro:Monitor"]
