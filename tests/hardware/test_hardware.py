"""Hardware models: interface inventory and router delay."""

import pytest

from repro.hardware.costmodel import (
    InterfaceParams,
    injector_components,
    interface_table,
    receiver_components,
    totals,
)
from repro.hardware.routermodel import (
    RouterSpec,
    router_delay,
    router_table,
    standard_specs,
)


class TestInterfaceInventory:
    def setup_method(self):
        self.params = InterfaceParams(radix=16, dims=2)

    def test_mode_ordering_injector(self):
        """plain < cr < fcr in gate count."""
        plain = totals(injector_components(self.params, "plain"))
        cr = totals(injector_components(self.params, "cr"))
        fcr = totals(injector_components(self.params, "fcr"))
        assert plain["gates"] < cr["gates"] < fcr["gates"]

    def test_mode_ordering_receiver(self):
        plain = totals(receiver_components("plain"))
        cr = totals(receiver_components("cr"))
        fcr = totals(receiver_components("fcr"))
        assert plain["gates"] < cr["gates"] < fcr["gates"]

    def test_cr_addition_is_modest(self):
        """The paper's claim: CR interface hardware is a few hundred
        gates over a plain interface."""
        plain = totals(injector_components(self.params, "plain"))
        cr = totals(injector_components(self.params, "cr"))
        delta = cr["gates"] - plain["gates"]
        assert 100 < delta < 2000

    def test_widths_grow_with_radix(self):
        small = totals(injector_components(InterfaceParams(radix=4), "cr"))
        big = totals(injector_components(InterfaceParams(radix=64), "cr"))
        assert big["gates"] > small["gates"]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            injector_components(self.params, "bogus")
        with pytest.raises(ValueError):
            receiver_components("bogus")

    def test_table_shape(self):
        rows = interface_table(self.params)
        assert [row["interface"] for row in rows] == ["plain", "cr", "fcr"]
        for row in rows:
            assert row["total_gates"] == (
                row["injector_gates"] + row["receiver_gates"]
            )


class TestRouterModel:
    def test_cr_faster_than_vc_adaptive(self):
        """The motivating ordering: CR < Duato/PAR/Linder-Harden."""
        table = {row["router"]: row["total_ns"] for row in router_table()}
        assert table["CR"] < table["Duato"]
        assert table["CR"] < table["PAR"]
        assert table["CR"] < table["LinderHarden"]

    def test_cr_competitive_with_dor(self):
        table = {row["router"]: row["total_ns"] for row in router_table()}
        assert table["CR"] <= table["DOR"] * 1.1

    def test_vcs_increase_delay(self):
        base = RouterSpec("x", 6, 1, 2)
        more = RouterSpec("x", 6, 4, 2)
        assert router_delay(more) > router_delay(base)

    def test_freedom_increases_routing_stage(self):
        narrow = RouterSpec("x", 6, 1, 1)
        wide = RouterSpec("x", 6, 1, 8)
        assert router_delay(wide) > router_delay(narrow)

    def test_standard_specs_cover_paper_schemes(self):
        names = {spec.name for spec in standard_specs()}
        assert {"DOR", "CR", "Duato", "PAR", "LinderHarden"} <= names

    def test_relative_column_normalised_to_dor(self):
        rows = router_table()
        dor = next(r for r in rows if r["router"] == "DOR")
        assert dor["vs_dor"] == 1.0
