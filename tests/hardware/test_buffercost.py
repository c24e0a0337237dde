"""Buffer-storage accounting."""

from repro.hardware.buffercost import BufferOrganisation, standard_organisations


class TestOrganisation:
    def test_flit_count(self):
        org = BufferOrganisation("x", num_vcs=2, buffer_depth=4, ports=5)
        assert org.flits_per_router == 40


class TestStandardSet:
    def test_covers_e04_e05_configs(self):
        names = {o.name for o in standard_organisations()}
        assert "dor_2vc_d16" in names
        assert "cr_2vc_d2" in names
        assert "dor_8vc_d2" in names

    def test_cr_budget_fraction_of_deep_dor(self):
        orgs = {o.name: o for o in standard_organisations()}
        assert (
            orgs["cr_2vc_d2"].flits_per_router * 8
            == orgs["dor_2vc_d16"].flits_per_router
        )
