"""Change stamps and the switch seam: what the fast engine's cuts rest on.

``FastEngine`` stops re-trying a blocked header while its router's
``stamp`` and the engine's fault epoch stand where they stood at the
header's last failure, and walks a router's cached claim records
instead of re-sorting.  Both are sound only if the counters move
whenever their inputs do; these tests check exactly that, cycle by
cycle, on long single ``run()`` calls (a bare ``step()`` rebuilds the
phase table, bumps the epoch and so never gates).

The same runs check the switch stage's seam: ``_switch`` picks every
output port's winner first (``_arbitrate``) and moves the flits
afterwards (``_move``), as ``ReferenceEngine._switch`` does, which is
the reference's stage only if the winners are the ones it would pick
from the same state, in the same order, and every cached claim record
holds the live objects it stands for.
"""

from __future__ import annotations

import inspect
import random
import re
from pathlib import Path

import pytest

import repro
from lockstep import CASCADE, build
from repro.faults.permanent import (
    PermanentFaultSchedule,
    random_channel_faults,
)
from repro.network.buffer import VCBuffer
from repro.network.channel import Channel
from repro.network.engine import _LIVE_PHASES
from repro.network.fastengine import FastEngine
from repro.network.flit import FlitKind
from repro.network.message import Message
from repro.network.router import Router
from repro.obs.tracing import config_for_experiment
from repro.routing.base import Candidate
from repro.sim.config import SimConfig

SMALL = dict(radix=4, dims=2, message_length=8, seed=11, engine="fast")


def assert_order_is_current(router, order, where="") -> None:
    """``order`` is ``router``'s claims, sorted, one record each, and
    every record holds the very objects it stands for."""
    assert [((port, vc), buffer) for port, vc, buffer, *_ in order] == sorted(
        router.claims.items()
    ), f"{where}router {router.node_id} serves a stale claim order"
    for port, vc, buffer, fifo, channel, credits in order:
        assert fifo is buffer.fifo, f"{where}{buffer!r}: stale fifo"
        assert channel is router.out_channels[port], (
            f"{where}router {router.node_id} port {port}: stale channel"
        )
        assert credits is channel.credits, f"{where}{channel!r}: stale credits"


def reference_winners(engine):
    """``ReferenceEngine._switch``'s selection from the state as it
    stands: one walk of the claims in key order, ``used_inputs`` and the
    round-robin pointer, read without advancing it.  Returns the
    transfers it would make, in order, and the ``_rr`` each router would
    be left with."""
    winners, pointers = [], {}
    for router in engine.routers:
        out_channels = router.out_channels
        rr = dict(router._rr)

        def rotate(port, count):
            idx = rr.get(port, 0) % count
            rr[port] = idx + 1
            return idx

        used_inputs = set()
        requests = []
        for (port, vc), buffer in sorted(router.claims.items()):
            if requests and port != requests[0][0]:
                pick = rotate(requests[0][0], len(requests))
                used_inputs.add(requests[pick][2].port)
                winners.append((router.node_id, *requests[pick]))
                requests = []
            if (
                buffer.fifo
                and buffer.port not in used_inputs
                and buffer.owner is not None
                and buffer.owner.phase in _LIVE_PHASES
                and out_channels[port].can_send(vc)
            ):
                requests.append((port, vc, buffer))
        if requests:
            pick = rotate(requests[0][0], len(requests))
            winners.append((router.node_id, *requests[pick]))
        pointers[router.node_id] = rr
    return winners, pointers


class _CheckedFastEngine(FastEngine):
    """FastEngine asserting the stamp invariants at every cycle's end
    and every arbitration against the reference's selection."""

    gated_checked = 0
    moves_checked = 0
    contested = 0

    def _arbitrate(self):
        expected, pointers = reference_winners(self)
        moves = super()._arbitrate()
        where = f"t={self.now}: "
        assert [
            (buffer.router.node_id, port, vc, buffer)
            for port, vc, buffer, *_ in moves
        ] == expected, f"{where}winners differ from the reference's"
        for router in self.routers:
            assert router._rr == pointers[router.node_id], (
                f"{where}router {router.node_id}: round-robin pointers "
                f"are not where rotate() would leave them"
            )
            if router._order is not None:
                assert_order_is_current(router, router._order, where)
                ports = [port for port, *_ in router._order]
                self.contested += len(ports) - len(set(ports))
        self.moves_checked += len(moves)
        return moves

    def _monitors(self, now: int) -> None:
        super()._monitors(now)
        for router in self.routers:
            if router._order is not None:
                assert_order_is_current(router, router._order, f"t={now}: ")
        for buffer in self.route_pending:
            if not self._gate_would_skip(buffer):
                continue
            self.gated_checked += 1
            free = self._free_now(buffer, buffer.fifo[0].message)
            assert not free, (
                f"t={now}: {buffer!r} would be skipped, yet {free} is free"
            )

    def _gate_would_skip(self, buffer) -> bool:
        head = buffer.fifo[0] if buffer.fifo else None
        return (
            head is not None
            and head.kind is FlitKind.HEAD
            and not buffer.routed
            and head.message.phase in _LIVE_PHASES
            and buffer.route_fail_key
            == buffer.router.stamp + self._fault_epoch
        )

    def _free_now(self, buffer, message):
        """``_grant``'s free candidates, recomputed from the live
        relation with no memo, no claim and no draw."""
        router = buffer.router
        if router.node_id == message.dst:
            tiers = [[Candidate(port, 0) for port in router.eject_ports]]
        else:
            tiers = self.routing.candidates(router, message)
        return [
            cand
            for tier in tiers
            for cand in tier
            if router.output_free(cand.port, cand.vc)
            and not router.out_channels[cand.port].dead
        ]


def _checked(config: SimConfig) -> _CheckedFastEngine:
    engine = build(config, "fast")
    engine.__class__ = _CheckedFastEngine
    return engine


def _run_and_drain(engine, cycles: int, drain: int = 6000) -> bool:
    engine.run(cycles)
    drained = engine.run_until_drained(drain)
    assert engine.gated_checked > 0, "no header was ever gated"
    assert engine.moves_checked > 1000, "hardly a flit moved"
    assert engine.contested > 0, "no output port ever had two claims"
    return drained


class TestStampSoundness:
    @pytest.mark.parametrize("routing", ("cr", "dor"))
    def test_saturated_e01_torus(self, routing):
        config = config_for_experiment("e01").with_(
            routing=routing, num_vcs=2, load=0.5, engine="fast"
        )
        assert _run_and_drain(_checked(config), 600)

    @pytest.mark.parametrize("shape", (
        dict(channel_latency=2),
        dict(num_inject=2, num_vcs=4),
    ), ids=("latency-2", "two-injectors-four-vcs"))
    def test_other_network_shapes(self, shape):
        # Flits in flight across a cycle boundary (the arrival set's
        # survivors) and more than two requesters per output port.
        config = SimConfig(**{
            **SMALL, "routing": "cr", "num_vcs": 2, "load": 0.6, **shape
        })
        assert _run_and_drain(_checked(config), 500)

    def test_cascading_faults_with_misrouting(self):
        engine = _checked(SimConfig(
            routing="fcr", misrouting=True, num_vcs=2, load=0.4,
            workload="mmpp",
            cascade_faults=CASCADE,
            **SMALL,
        ))
        epoch = engine._fault_epoch
        # A quarter of the links stay dead at any time, so the drain
        # runs its budget out: 2 100 cycles of kills, detours, repairs.
        _run_and_drain(engine, 600, drain=1500)
        # One bump per check_interval boundary, not one per cycle.
        assert 600 // 16 <= engine._fault_epoch - epoch < engine.now // 8
        assert engine.fault_model.channel_faults > 0

    def test_permanent_fault_firing_mid_run(self):
        config = SimConfig(
            routing="fcr", misrouting=True, num_vcs=2, load=0.5, **SMALL
        )
        engine = _checked(config)
        engine.fault_model = PermanentFaultSchedule(random_channel_faults(
            engine.network, 3, random.Random(5), cycle=150
        ))
        epoch = engine._fault_epoch
        assert _run_and_drain(engine, 400)
        assert not engine.fault_model.pending
        # Entry to run, the firing cycle, entry to run_until_drained.
        assert engine._fault_epoch - epoch == 3

    def test_channel_death_assigned_between_runs(self):
        # Plain DOR never kills, so headers pile up behind a dead link
        # for as long as it stays dead: reviving it between two runs
        # turns every one of those gated failures into a grant, which
        # only the epoch bump at the phase table's build can announce.
        engine = _checked(
            SimConfig(routing="dor", num_vcs=2, load=0.3, **SMALL)
        )
        engine.run(100)
        victims = engine.network.link_channels[::5]
        for channel in victims:
            channel.dead = True
        engine.run(150)
        blocked = [
            buffer for buffer in engine.route_pending
            if engine._gate_would_skip(buffer)
        ]
        assert blocked, "nothing is parked behind the dead links"
        for channel in victims:
            channel.dead = False
        freed = [
            buffer for buffer in blocked
            if engine._free_now(buffer, buffer.fifo[0].message)
        ]
        assert freed, "no parked header wanted a revived link"
        engine.run(1)
        assert any(buffer.routed for buffer in freed)
        assert _run_and_drain(engine, 100)


class TestRouterDrift:
    """Every way into ``out_owner`` / ``claims`` moves its tracker."""

    #: one value per parameter name a public Router method may take.
    @staticmethod
    def _arguments(router, key):
        return {
            "port": key[0],
            "vc": key[1],
            "buffer": VCBuffer(router, 0, 0, 4),
            "message": router.out_owner[(0, 0)],
            "count": 2,
            "buffer_depth": 4,
        }

    @staticmethod
    def _router(out_ports=2):
        router = Router(0, 2)
        for _ in range(out_ports):
            router.add_output_channel(Channel(0, 1, 2))
        return router

    def _claimed_router(self):
        router = self._router()
        router.claim_output(0, 0, VCBuffer(router, 1, 0, 4), Message(0, 1, 4))
        router.claim_order()  # populate the cache
        return router

    def _public_methods(self):
        # add_output_channel wires a Channel and touches neither dict.
        return [
            name for name, member in inspect.getmembers(
                Router, inspect.isfunction
            )
            if not name.startswith("_") and name != "add_output_channel"
        ]

    @pytest.mark.parametrize("key", [(0, 0), (1, 1)], ids=["owned", "free"])
    def test_writers_move_their_tracker(self, key):
        wrote_owner, wrote_claims = set(), set()
        for name in self._public_methods():
            router = self._claimed_router()
            pool = self._arguments(router, key)
            params = list(
                inspect.signature(getattr(router, name)).parameters
            )
            unknown = [param for param in params if param not in pool]
            assert not unknown, (
                f"Router.{name} takes {unknown}: teach _arguments about "
                f"it so the drift test can call the new method"
            )
            owner, claims = dict(router.out_owner), dict(router.claims)
            stamp = router.stamp
            try:
                getattr(router, name)(*(pool[param] for param in params))
            except RuntimeError:
                continue  # claim_output on an owned output
            if router.out_owner != owner:
                wrote_owner.add(name)
                assert router.stamp != stamp, (
                    f"Router.{name} wrote out_owner without bumping stamp"
                )
            if router.claims != claims:
                wrote_claims.add(name)
                assert router._order is None, (
                    f"Router.{name} wrote claims and kept the cached order"
                )
        if key == (0, 0):
            assert wrote_owner == {"release_output", "release_output_if"}
            assert wrote_claims == wrote_owner | {"retire_claim"}
        else:
            assert wrote_owner == wrote_claims == {"claim_output"}

    def test_claim_order_is_the_sorted_claims(self):
        router = self._router(out_ports=3)
        for port, vc in ((2, 1), (0, 1), (2, 0), (0, 0)):
            router.claim_output(
                port, vc, VCBuffer(router, port, vc, 4), Message(0, 1, 4)
            )
        assert len(router.claim_order()) == 4
        assert_order_is_current(router, router.claim_order())
        assert router.claim_order() is router.claim_order()
        router.retire_claim(2, 0)
        assert len(router.claim_order()) == 3
        assert_order_is_current(router, router.claim_order())

    def test_nothing_rebinds_fifo_or_credits(self):
        # A claim record holds buffer.fifo and channel.credits for as
        # long as the claim stands: both may be mutated, never replaced.
        rebind = re.compile(r"\.(fifo|credits)\s*(:[^=]+)?=[^=]")
        package = Path(repro.__file__).parent
        lines = [
            f"{path.relative_to(package)}: {line.strip()}"
            for path in sorted(package.rglob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines()
            if rebind.search(line)
        ]
        assert lines == [
            'network/buffer.py: self.fifo: List["Flit"] = []',
            "network/channel.py: self.credits: List[int] = [0] * num_vcs",
        ]

    def test_nothing_outside_router_py_writes_either_dict(self):
        write = re.compile(
            r"\.(out_owner|claims)\s*("
            r"=[^=]"                                    # rebinding
            r"|\[[^\]]*\]\s*=[^=]"                      # item assignment
            r"|\.(pop|popitem|clear|update|setdefault)\("
            r")"
            r"|\bdel\s+[\w.]+\.(out_owner|claims)\b"
        )
        package = Path(repro.__file__).parent
        offenders = [
            f"{path.relative_to(package)}:{number}: {line.strip()}"
            for path in sorted(package.rglob("*.py"))
            if path.name != "router.py"
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1
            )
            if write.search(line)
        ]
        assert not offenders, "\n".join(offenders)
