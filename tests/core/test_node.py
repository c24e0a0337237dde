"""Node container: queue, injectors, receiver wiring."""

import pytest

from repro import SimConfig
from repro.core.node import Node
from repro.network.message import Message


def build_node(num_inject=2, queue_cap=4, order=True):
    engine = SimConfig(
        radix=4, dims=2, routing="cr", num_inject=num_inject,
        queue_cap=queue_cap, order_preserving=order,
    ).build()
    return engine.nodes[0], engine


class TestNode:
    def test_injector_per_channel(self):
        node, engine = build_node(num_inject=3)
        assert len(node.injectors) == 3
        channels = {inj.channel for inj in node.injectors}
        assert len(channels) == 3

    def test_enqueue_respects_cap(self):
        node, _ = build_node(queue_cap=2)
        assert node.enqueue(Message(0, 1, 4))
        assert node.enqueue(Message(0, 2, 4))
        assert not node.enqueue(Message(0, 3, 4))
        assert len(node.queue) == 2

    def test_requeue_bypasses_cap(self):
        """Killed messages re-enter at the front even when full --
        dropping them would lose data."""
        node, _ = build_node(queue_cap=1)
        assert node.enqueue(Message(0, 1, 4))
        retry = Message(0, 2, 4)
        node.queue.insert(0, retry)  # what KillManager._complete does
        assert len(node.queue) == 2
        assert node.queue[0] is retry

    def test_gate_mode_follows_config(self):
        ordered, _ = build_node(order=True)
        free, _ = build_node(order=False)
        assert ordered.gate.enabled
        assert not free.gate.enabled

    def test_invalid_queue_cap(self):
        engine = SimConfig(radix=4, dims=2).build()
        with pytest.raises(ValueError):
            Node(0, engine.network.injection_channels[0], engine,
                 queue_cap=0)
