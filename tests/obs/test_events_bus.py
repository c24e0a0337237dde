"""Event taxonomy, the subscriber bus, and the attach lifecycle."""

import dataclasses

import pytest

from repro import SimConfig, attach
from repro.obs import ListSink
from repro.obs.events import (
    EVENT_TYPES,
    Event,
    EventBus,
    InjectionStarted,
    KillStarted,
    MessageCreated,
    MessageDelivered,
    event_to_dict,
)


def small_config(**overrides):
    params = dict(
        radix=4, dims=2, routing="cr", load=0.2, message_length=8,
        warmup=50, measure=300, drain=3000, seed=2,
    )
    params.update(overrides)
    return SimConfig(**params)


class TestEventTypes:
    def test_every_type_subclasses_event_with_cycle_first(self):
        for cls in EVENT_TYPES:
            assert issubclass(cls, Event)
            fields = dataclasses.fields(cls)
            assert fields[0].name == "cycle"

    def test_events_are_frozen(self):
        event = MessageCreated(5, uid=1, src=0, dst=3, payload_length=8)
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.cycle = 6

    def test_event_to_dict_is_flat_and_named(self):
        event = KillStarted(12, uid=7, cause="timeout", backward=True,
                            wavefront_extent=3)
        out = event_to_dict(event)
        assert out == {
            "event": "KillStarted", "cycle": 12, "uid": 7,
            "cause": "timeout", "backward": True, "wavefront_extent": 3,
        }

    def test_type_names_are_unique(self):
        names = [cls.__name__ for cls in EVENT_TYPES]
        assert len(names) == len(set(names))


class TestEventBus:
    def test_emit_fans_out_in_subscription_order(self):
        bus = EventBus()
        seen = []

        class Recorder:
            def __init__(self, tag):
                self.tag = tag

            def on_event(self, event):
                seen.append((self.tag, event))

        bus.subscribe(Recorder("a"))
        bus.subscribe(Recorder("b"))
        event = MessageCreated(0, uid=1, src=0, dst=1, payload_length=4)
        bus.emit(event)
        assert seen == [("a", event), ("b", event)]

    def test_subscribe_is_idempotent(self):
        bus = EventBus()
        sink = ListSink()
        bus.subscribe(sink)
        bus.subscribe(sink)
        assert bus.sinks == [sink]
        bus.emit(MessageCreated(0, uid=1, src=0, dst=1, payload_length=4))
        assert len(sink.events) == 1


class TestAttachDetach:
    def test_untraced_engine_has_no_bus(self):
        engine = small_config().build()
        assert engine.bus is None
        assert engine.sampler is None

    def test_attach_installs_bus(self):
        engine = small_config().build()
        sink = ListSink()
        bus = attach(engine, sink)
        assert engine.bus is bus
        assert sink in bus.sinks

    def test_attach_twice_reuses_the_bus(self):
        engine = small_config().build()
        first, second = ListSink(), ListSink()
        bus = attach(engine, first)
        assert attach(engine, second) is bus
        assert bus.sinks == [first, second]


class TestLiveEmission:
    def test_run_emits_lifecycle_events_in_cycle_order(self):
        engine = small_config().build()
        sink = ListSink()
        attach(engine, sink)
        engine.run(350)
        engine.run_until_drained(3000)
        kinds = {type(e).__name__ for e in sink.events}
        assert {"MessageCreated", "InjectionStarted", "MessageCommitted",
                "MessageDelivered"} <= kinds
        cycles = [e.cycle for e in sink.events]
        assert cycles == sorted(cycles)

    def test_delivery_events_match_the_counter(self):
        engine = small_config().build()
        sink = ListSink()
        attach(engine, sink)
        engine.run(350)
        engine.run_until_drained(3000)
        delivered = [e for e in sink.events
                     if isinstance(e, MessageDelivered)]
        assert len(delivered) == engine.stats.counters["messages_delivered"]

    def test_injection_events_carry_wire_length(self):
        engine = small_config().build()
        sink = ListSink()
        attach(engine, sink)
        engine.run(350)
        starts = [e for e in sink.events
                  if isinstance(e, InjectionStarted)]
        assert starts
        # CR pads to at least the payload length.
        assert all(e.wire_length >= 8 for e in starts)
