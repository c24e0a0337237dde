"""CampaignSpec: dict round-trip, grid expansion, derived seeds."""

from collections import Counter

import pytest

from repro.campaign import CampaignSpec, Grid, get_campaign
from repro.campaign.spec import decode_field
from repro.core.backoff import ExponentialBackoff, StaticGap
from repro.core.timeout import FixedTimeout
from repro.experiments import PAPER, QUICK, REGISTRY
from repro.sim.parallel import config_cache_key


def tiny_dict(**overrides):
    data = {
        "name": "t",
        "base": {"radix": 4, "warmup": 50, "measure": 200,
                 "message_length": 8},
        "axes": {"routing": ["cr", "dor"], "load": [0.1, 0.2]},
        "replications": 2,
    }
    data.update(overrides)
    return data


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = CampaignSpec.from_dict(tiny_dict())
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()
        assert again == spec

    def test_multi_grid_round_trip(self):
        spec = CampaignSpec.from_dict({
            "name": "m",
            "grids": {
                "a": {"base": {"radix": 4}, "axes": {"load": [0.1]}},
                "b": {"axes": {"load": [0.1, 0.2]}},
            },
        })
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        assert spec.size == 3

    def test_json_compatible(self):
        import json

        spec = CampaignSpec.from_dict(tiny_dict())
        assert CampaignSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        ) == spec


class TestValidation:
    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown SimConfig field"):
            CampaignSpec.from_dict(tiny_dict(axes={"bananas": [1]}))

    def test_seed_axis_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            CampaignSpec.from_dict(tiny_dict(axes={"seed": [1, 2]}))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            CampaignSpec.from_dict(tiny_dict(axes={"load": []}))

    @pytest.mark.parametrize("data, named", [
        ([1, 2], "campaign spec must be a mapping, got list"),
        ({"name": "x", "axes": 5}, "axes must be a mapping, got int"),
        ({"name": "x", "base": 5}, "base must be a mapping, got int"),
        ({"name": "x", "grids": [1]}, "grids must be a mapping, got list"),
        ({"name": "x", "grids": {"a": 5}},
         "grid 'a' must be a mapping, got int"),
        ({"name": "x", "axes": {"load": 5}}, "axis 'load' needs a non-empty"),
        ({"name": "x", "axes": {"routing": "cr"}},
         "axis 'routing' needs a non-empty"),
    ])
    def test_wrong_shape_rejected_by_name(self, data, named):
        # Each used to be an AttributeError / TypeError from the middle
        # of from_dict (or, for the string, the axis ['c', 'r']).
        with pytest.raises(ValueError, match=named):
            CampaignSpec.from_dict(data)

    def test_grids_and_axes_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            CampaignSpec.from_dict(
                tiny_dict(grids={"a": {"axes": {"load": [0.1]}}})
            )

    def test_needs_replications(self):
        with pytest.raises(ValueError, match="replications"):
            CampaignSpec.from_dict(tiny_dict(replications=0))

    @pytest.mark.parametrize("value", [0, -1, 2.5, "3", True, None])
    def test_attempt_budget_refused_by_name(self, value):
        with pytest.raises(ValueError, match="max_attempts"):
            CampaignSpec.from_dict(tiny_dict(max_attempts=value))

    def test_attempt_budget_round_trips_and_keeps_hashes(self):
        """The budget is campaign data, not point data: it round-trips
        through the dict form and leaves point ids and hashes alone."""
        spec = CampaignSpec.from_dict(tiny_dict())
        assert spec.max_attempts == 3
        tight = CampaignSpec.from_dict(tiny_dict(max_attempts=1))
        assert CampaignSpec.from_dict(tight.to_dict()).max_attempts == 1
        assert ([(p.point_id, p.config_hash) for p in tight.points()]
                == [(p.point_id, p.config_hash) for p in spec.points()])

    def test_duplicate_grid_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            CampaignSpec(
                name="d",
                grids=(Grid("x", axes={"load": [0.1]}),
                       Grid("x", axes={"load": [0.2]})),
            )


class TestExpansion:
    def test_size_and_point_count(self):
        spec = CampaignSpec.from_dict(tiny_dict())
        points = list(spec.points())
        assert spec.size == len(points) == 2 * 2 * 2

    def test_point_ids_stable_and_unique(self):
        spec = CampaignSpec.from_dict(tiny_dict())
        ids = [p.point_id for p in spec.points()]
        assert len(set(ids)) == len(ids)
        assert ids == [p.point_id for p in spec.points()]
        assert ids[0] == "routing=cr/load=0.1/rep=0"

    def test_derived_seeds_per_replication(self):
        spec = CampaignSpec.from_dict(tiny_dict(seed=100))
        by_rep = {}
        for p in spec.points():
            by_rep.setdefault(p.replication, set()).add(p.config.seed)
        # one seed per replication index, shared across scenarios
        assert by_rep == {0: {100}, 1: {101}}

    def test_base_and_axes_land_in_config(self):
        spec = CampaignSpec.from_dict(tiny_dict())
        point = next(iter(spec.points()))
        assert point.config.radix == 4
        assert point.config.routing == "cr"
        assert point.config.load == 0.1


class TestPolicyDecoding:
    def test_timeout_encodings(self):
        assert isinstance(decode_field("timeout", "fixed:32"),
                          FixedTimeout)
        decoded = decode_field("timeout", "fixed:32")
        assert decoded.cycles == 32

    def test_backoff_encodings(self):
        assert isinstance(decode_field("backoff", "static:16"), StaticGap)
        assert isinstance(decode_field("backoff", "exponential"),
                          ExponentialBackoff)
        assert decode_field("backoff", "exponential:8").slot_cycles == 8

    def test_unknown_encoding_rejected(self):
        with pytest.raises(ValueError, match="unknown backoff"):
            decode_field("backoff", "banana:1")

    def test_non_policy_fields_pass_through(self):
        assert decode_field("pattern", "uniform") == "uniform"

    def test_policies_reach_configs(self):
        spec = CampaignSpec.from_dict({
            "name": "p",
            "base": {"routing": "cr", "timeout": "fixed:32"},
            "axes": {"backoff": ["static:4", "exponential"]},
        })
        configs = [p.config for p in spec.points()]
        assert all(isinstance(c.timeout, FixedTimeout) for c in configs)
        assert isinstance(configs[0].backoff, StaticGap)
        assert isinstance(configs[1].backoff, ExponentialBackoff)


class TestBuiltins:
    def test_builtin_campaigns_expand_and_build(self):
        for name in ("fault-matrix", "paper-core"):
            spec = get_campaign(name)
            points = list(spec.points())
            assert len(points) == spec.size > 0
            # every point's config must actually build an engine
            points[0].config.build()

    @pytest.mark.parametrize("scale", [QUICK, PAPER], ids=["quick", "paper"])
    def test_paper_core_is_the_experiments_grids(self, scale):
        """``paper-core``'s grids (``e04-dor`` + ``e04-cr`` make E04)
        expand to exactly the configs each experiment runs."""
        spec = get_campaign("paper-core", scale)
        for experiment in ("e01", "e03", "e04"):
            campaign = Counter(
                config_cache_key(point.config) for point in spec.points()
                if point.grid.split("-")[0] == experiment
            )
            grid = Counter(
                config_cache_key(config) for _, config
                in REGISTRY[experiment].module.points(scale)
            )
            assert campaign == grid, experiment

    def test_unknown_builtin(self):
        with pytest.raises(KeyError, match="unknown campaign"):
            get_campaign("nope")
