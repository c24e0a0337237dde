"""KillManager mechanics: wavefronts, guards, resource returns."""

from repro import (
    FirstFree,
    FixedTimeout,
    Message,
    MinimalAdaptive,
    ProtocolConfig,
    ProtocolMode,
    StaticGap,
    WormholeNetwork,
    torus,
)
from repro.core.protocol import KillCause, MessagePhase
from repro.verify.reference import ReferenceEngine


def make_engine(**proto):
    topology = torus(4, 2)
    network = WormholeNetwork(
        topology, MinimalAdaptive(topology), FirstFree(), num_vcs=1
    )
    protocol = ProtocolConfig(mode=ProtocolMode.CR, **proto)
    return ReferenceEngine(network, protocol=protocol, seed=2, watchdog=5000)


def stretched_worm(engine, length=40):
    """Inject a long worm and freeze it mid-flight by a dead channel.

    Callers that want to drive kills manually must configure a timeout
    long enough (e.g. ``FixedTimeout(1000)``) that the source does not
    kill the worm during the stretch steps.
    """
    topology = engine.topology
    src = topology.node_at((0, 0))
    dst = topology.node_at((2, 0))  # straight-line, FirstFree keeps it
    engine.network.find_link(
        topology.node_at((1, 0)), dst
    ).dead = True
    msg = Message(src, dst, length, seq=0)
    engine.admit(msg)
    # Let it stretch and stall.
    for _ in range(10):
        engine.step()
    assert msg.phase is MessagePhase.INJECTING
    return msg


class TestInitiateGuards:
    def test_kill_requires_injecting(self):
        engine = make_engine()
        msg = Message(0, 1, 4, seq=0)
        engine.admit(msg)
        engine.run_until_drained(500)
        assert msg.phase is MessagePhase.DELIVERED
        engine.kills.initiate(
            msg, KillCause.SOURCE_TIMEOUT, backward=False, now=engine.now
        )
        assert msg.phase is MessagePhase.DELIVERED  # no-op
        assert msg.kills == 0

    def test_double_kill_is_single(self):
        engine = make_engine(timeout=FixedTimeout(1000), backoff=StaticGap(500))
        msg = stretched_worm(engine)
        assert msg.phase is MessagePhase.INJECTING
        engine.kills.initiate(
            msg, KillCause.SOURCE_TIMEOUT, backward=False, now=engine.now
        )
        first_kills = msg.kills
        engine.kills.initiate(
            msg, KillCause.SOURCE_TIMEOUT, backward=False, now=engine.now
        )
        assert msg.kills == first_kills == 1

    def test_committed_killable_only_when_allowed(self):
        engine = make_engine()
        msg = Message(0, 1, 4, seq=0)
        engine.admit(msg)
        while not msg.committed:
            engine.step()
        engine.kills.initiate(
            msg, KillCause.PATH_TIMEOUT, backward=False, now=engine.now
        )
        assert msg.phase is MessagePhase.COMMITTED
        engine.kills.initiate(
            msg,
            KillCause.PATH_TIMEOUT,
            backward=False,
            now=engine.now,
            allow_committed=True,
        )
        assert msg.phase is MessagePhase.KILLED


class TestWavefront:
    def test_flush_rate_one_segment_per_cycle(self):
        engine = make_engine(timeout=FixedTimeout(1000), backoff=StaticGap(500))
        msg = stretched_worm(engine)
        engine.kills.initiate(
            msg, KillCause.SOURCE_TIMEOUT, backward=False, now=engine.now
        )
        segments = len(msg.kill_wavefront)
        assert segments >= 2
        for remaining in range(segments - 1, -1, -1):
            engine.step()
            if msg.kill_wavefront is None:
                break
            assert len(msg.kill_wavefront) == remaining

    def test_all_resources_returned_after_flush(self):
        engine = make_engine(timeout=FixedTimeout(1000), backoff=StaticGap(500))
        msg = stretched_worm(engine)
        engine.kills.initiate(
            msg, KillCause.SOURCE_TIMEOUT, backward=False, now=engine.now
        )
        for _ in range(30):
            engine.step()
        assert msg.phase is MessagePhase.QUEUED
        for router in engine.routers:
            assert not router.claims
            assert not router.out_owner
            for port_bufs in router.in_buffers:
                for buf in port_bufs:
                    assert buf.occupancy == 0
                    assert buf.owner is None

    def test_backward_plan_is_reversed(self):
        engine = make_engine(timeout=FixedTimeout(1000), backoff=StaticGap(500))
        msg = stretched_worm(engine)
        forward_order = list(msg.active_segments)
        engine.kills.initiate(
            msg, KillCause.FKILL, backward=True, now=engine.now
        )
        assert msg.kill_wavefront == list(reversed(forward_order))
        assert msg.fkills == 1 and msg.kills == 0

    def test_retransmit_time_includes_gap(self):
        engine = make_engine(timeout=FixedTimeout(1000), backoff=StaticGap(77))
        msg = stretched_worm(engine)
        now = engine.now
        engine.kills.initiate(
            msg, KillCause.SOURCE_TIMEOUT, backward=False, now=now
        )
        assert msg.retransmit_at == now + 77

    def test_kill_reason_recorded(self):
        engine = make_engine(timeout=FixedTimeout(1000), backoff=StaticGap(500))
        msg = stretched_worm(engine)
        engine.kills.initiate(
            msg, KillCause.HEADER_FAULT, backward=True, now=engine.now
        )
        assert msg.kill_reason == "header_fault"
        assert engine.stats.counters["kills_header_fault"] == 1
