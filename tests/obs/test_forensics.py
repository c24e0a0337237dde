"""Deadlock forensics: the bundle attached to NetworkDeadlockError."""

import dataclasses
import json

import pytest

from repro import (
    GraphTopology,
    Message,
    MinimalAdaptive,
    NetworkDeadlockError,
    ProtocolConfig,
    ProtocolMode,
    WormholeNetwork,
    attach,
)
from repro.obs import DeadlockReport, ListSink, event_to_dict
from repro.obs.forensics import RECENT_EVENT_LIMIT, find_cycle
from repro.verify.reference import ReferenceEngine


def deadlocking_engine(watchdog=300, warmup_messages=0):
    """A 4-node PLAIN ring whose worms provably wedge in a cycle.

    Each node sends a 40-flit worm two hops round the clockwise-only
    ring with a
    single VC and shallow buffers: every head ends up waiting on the
    channel its neighbour's worm holds, and PLAIN mode has no kill
    mechanism to break the cycle.  ``warmup_messages`` short one-hop
    messages per node go first and are delivered before the wedge.
    """
    topology = GraphTopology.from_edges(
        4, [(0, 1), (1, 2), (2, 3), (3, 0)], bidirectional=False
    )
    network = WormholeNetwork(
        topology, MinimalAdaptive(topology), num_vcs=1, buffer_depth=2,
    )
    engine = ReferenceEngine(
        network, protocol=ProtocolConfig(mode=ProtocolMode.PLAIN),
        seed=0, watchdog=watchdog,
    )
    for seq in range(warmup_messages):
        for src in range(4):
            engine.admit(Message(src, (src + 1) % 4, 4, seq=seq))
    for src in range(4):
        engine.admit(Message(src, (src + 2) % 4, 40,
                             seq=warmup_messages + src))
    return engine


def wedge(engine, limit=2000):
    with pytest.raises(NetworkDeadlockError) as excinfo:
        for _ in range(limit):
            engine.step()
    return excinfo.value


class TestDeadlockReport:
    def test_error_carries_the_forensic_bundle(self):
        # Regression: the watchdog must attach a report, not just a
        # "no progress" string.
        err = wedge(deadlocking_engine())
        assert isinstance(err.report, DeadlockReport)
        assert err.report.watchdog == 300
        assert err.report.routing == "minimal_adaptive"
        assert err.report.protocol == "plain"
        assert err.report.live_messages == 4

    def test_wait_for_graph_closes_a_cycle(self):
        report = wedge(deadlocking_engine()).report
        assert report.wait_for, "no wait-for edges recorded"
        uids = {edge["uid"] for edge in report.wait_for}
        assert sorted(report.cycle_uids) == sorted(
            set(report.cycle_uids)
        )
        assert set(report.cycle_uids) <= uids
        assert len(report.cycle_uids) >= 2
        for edge in report.wait_for:
            assert edge["kind"] in {
                "vc-allocation", "credit", "dead-channel",
                "ejection-credit",
            }

    def test_stalled_injectors_are_listed(self):
        report = wedge(deadlocking_engine()).report
        assert report.stalled_injectors
        for entry in report.stalled_injectors:
            assert entry["stall"] > 0

    def test_format_and_exception_text(self):
        err = wedge(deadlocking_engine())
        text = err.report.format()
        assert "deadlock forensics" in text
        assert "dependency cycle" in text
        # The rendered bundle rides the exception message too, so a bare
        # traceback is already diagnosable.
        assert "wait-for graph" in str(err)

    def test_report_is_json_serialisable(self):
        report = wedge(deadlocking_engine()).report
        payload = json.loads(json.dumps(dataclasses.asdict(report)))
        assert payload["cycle"] == report.cycle
        assert len(payload["wait_for"]) == len(report.wait_for)

    def test_recent_events_come_from_an_attached_sink(self):
        # No ring buffer: the one ListSink a traced run attaches is
        # where forensics reads "what happened just before the wedge".
        engine = deadlocking_engine(warmup_messages=8)
        sink = ListSink()
        attach(engine, sink)
        report = wedge(engine).report
        assert len(sink.events) > RECENT_EVENT_LIMIT
        assert report.recent_events == [
            event_to_dict(e) for e in sink.events[-RECENT_EVENT_LIMIT:]
        ]

    def test_no_sink_means_no_recent_events(self):
        report = wedge(deadlocking_engine()).report
        assert report.recent_events == []


class TestFindCycle:
    def edges(self, pairs):
        return [{"uid": a, "node": 0, "waits_on": b, "kind": "credit"}
                for a, b in pairs]

    def test_simple_ring(self):
        cycle = find_cycle(self.edges([(1, 2), (2, 3), (3, 1)]))
        assert sorted(cycle) == [1, 2, 3]

    def test_chain_has_no_cycle(self):
        assert find_cycle(self.edges([(1, 2), (2, 3)])) == []

    def test_self_loop(self):
        assert find_cycle(self.edges([(5, 5)])) == [5]

    def test_cycle_behind_a_tail(self):
        # 0 -> 1 -> 2 -> 1: the cycle excludes the entry node.
        cycle = find_cycle(self.edges([(0, 1), (1, 2), (2, 1)]))
        assert sorted(cycle) == [1, 2]

    def test_none_targets_are_ignored(self):
        edges = self.edges([(1, 2)]) + [
            {"uid": 2, "node": 0, "waits_on": None, "kind": "dead-channel"}
        ]
        assert find_cycle(edges) == []
