"""Network-interface hardware inventory (paper Section 5).

The paper argues CR/FCR interface hardware is "modest": the injector
needs "a few adders and a distance calculator" for Imin, a stall counter
and comparator for the timeout, and a small FSM for kill/retransmit; the
receiver (Fig. 8) interprets "PAD, FKILL and flow control information".
This module makes that argument quantitative with a gate/latch inventory
built from standard cell-count rules of thumb:

* ripple/carry-select adder: ~6 gates per bit,
* counter: ~8 gates + 1 latch per bit,
* comparator: ~3 gates per bit,
* mux/steering per bit: ~3 gates,
* small FSM: ~25 gates + 1 latch per state bit.

Absolute numbers are indicative (a real datapath differs by small
factors); the reproduced *claim* is relative: the CR additions are a few
hundred gates -- far below the thousands in a Meiko CS-2-class message
processor -- and FCR adds only a check-code datapath on top of CR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

GATES_PER_ADDER_BIT = 6
GATES_PER_COUNTER_BIT = 8
LATCHES_PER_COUNTER_BIT = 1
GATES_PER_COMPARATOR_BIT = 3
GATES_PER_MUX_BIT = 3
GATES_PER_FSM_STATE_BIT = 25
CRC16_GATES = 80  # serial LFSR datapath
CRC16_LATCHES = 16

#: longest message on the wire, in flits: sizes the pad and flit counters
MAX_WIRE_LENGTH = 256
#: largest source timeout, in cycles: sizes the stall counter
MAX_TIMEOUT = 1024
#: largest backoff exponent (`ExponentialBackoff.cap`): the backoff
#: timer's extra bits and the LFSR width
BACKOFF_CAP = 6


@dataclass(frozen=True)
class Component:
    """One datapath element of an interface."""

    name: str
    gates: int
    latches: int
    purpose: str


def _bits(max_value: int) -> int:
    """Register width to hold values up to ``max_value``."""
    if max_value < 1:
        raise ValueError("max_value must be >= 1")
    return max(1, math.ceil(math.log2(max_value + 1)))


@dataclass(frozen=True)
class InterfaceParams:
    """Network parameters the widths depend on.

    radix/dims size the distance calculator; the counter and timer
    widths come from the module constants above.
    """

    radix: int = 16
    dims: int = 2


def _adder(name: str, bits: int, purpose: str) -> Component:
    return Component(name, GATES_PER_ADDER_BIT * bits, 0, purpose)


def _counter(name: str, bits: int, purpose: str) -> Component:
    return Component(
        name,
        GATES_PER_COUNTER_BIT * bits,
        LATCHES_PER_COUNTER_BIT * bits,
        purpose,
    )


def _comparator(name: str, bits: int, purpose: str) -> Component:
    return Component(name, GATES_PER_COMPARATOR_BIT * bits, 0, purpose)


def _fsm(name: str, states: int, purpose: str) -> Component:
    bits = _bits(states - 1)
    return Component(name, GATES_PER_FSM_STATE_BIT * bits, bits, purpose)


def injector_components(
    params: InterfaceParams, mode: str = "cr"
) -> List[Component]:
    """Datapath inventory of the injection interface.

    ``mode``: "plain" (classic wormhole source), "cr", or "fcr".
    """
    if mode not in ("plain", "cr", "fcr"):
        raise ValueError(f"unknown interface mode {mode!r}")
    coord_bits = _bits(params.radix - 1)
    dist_bits = _bits(params.dims * (params.radix // 2))
    wire_bits = _bits(MAX_WIRE_LENGTH)
    timeout_bits = _bits(MAX_TIMEOUT)
    parts: List[Component] = [
        _counter("flit counter", wire_bits, "position in outgoing message"),
        _fsm("send FSM", 4, "idle / sending / blocked / done"),
    ]
    if mode == "plain":
        return parts
    # Distance calculator: per-dimension |src-dst| with wrap minimum.
    parts.append(
        Component(
            "distance calculator",
            params.dims * (2 * GATES_PER_ADDER_BIT + GATES_PER_MUX_BIT)
            * coord_bits,
            0,
            "per-dimension wrap distance, summed",
        )
    )
    parts.append(_adder("distance accumulator", dist_bits, "sum over dims"))
    parts.append(
        _adder("Imin adder", wire_bits, "distance x per-hop depth + slack")
    )
    parts.append(
        _comparator("pad comparator", wire_bits, "payload sent vs Imin")
    )
    parts.append(
        _counter("stall counter", timeout_bits, "consecutive blocked cycles")
    )
    parts.append(
        _comparator("timeout comparator", timeout_bits, "stall vs threshold")
    )
    parts.append(_fsm("kill FSM", 4, "drive kill signal, await teardown"))
    parts.append(
        _counter(
            "backoff timer",
            timeout_bits + BACKOFF_CAP,
            "retransmission gap countdown",
        )
    )
    parts.append(
        Component(
            "backoff LFSR",
            GATES_PER_COUNTER_BIT * BACKOFF_CAP,
            BACKOFF_CAP,
            "randomised exponential gap",
        )
    )
    if mode == "fcr":
        parts.append(
            Component(
                "CRC generator",
                CRC16_GATES,
                CRC16_LATCHES,
                "per-flit check code",
            )
        )
        parts.append(_fsm("FKILL monitor", 3, "abort on receiver kill"))
    return parts


def receiver_components(mode: str = "cr") -> List[Component]:
    """Datapath inventory of the reception interface (paper Fig. 8).

    No network parameter sizes it: its one counter is
    ``MAX_WIRE_LENGTH`` wide.
    """
    if mode not in ("plain", "cr", "fcr"):
        raise ValueError(f"unknown interface mode {mode!r}")
    wire_bits = _bits(MAX_WIRE_LENGTH)
    parts: List[Component] = [
        _counter("flit counter", wire_bits, "position in incoming message"),
        _fsm("assembly FSM", 4, "idle / header / body / done"),
    ]
    if mode == "plain":
        return parts
    parts.append(
        Component(
            "PAD stripper",
            GATES_PER_MUX_BIT * 8 + GATES_PER_COMPARATOR_BIT * 2,
            0,
            "drop pad flits before the host",
        )
    )
    if mode == "fcr":
        parts.append(
            Component(
                "CRC checker", CRC16_GATES, CRC16_LATCHES, "per-flit check"
            )
        )
        parts.append(_fsm("FKILL driver", 3, "tear down corrupt worms"))
    return parts


def totals(components: List[Component]) -> Dict[str, int]:
    return {
        "gates": sum(c.gates for c in components),
        "latches": sum(c.latches for c in components),
    }


def interface_table(params: InterfaceParams) -> List[Dict[str, object]]:
    """Rows of the T01 table: per-mode interface totals."""
    rows: List[Dict[str, object]] = []
    for mode in ("plain", "cr", "fcr"):
        inj = totals(injector_components(params, mode))
        rcv = totals(receiver_components(mode))
        rows.append(
            {
                "interface": mode,
                "injector_gates": inj["gates"],
                "injector_latches": inj["latches"],
                "receiver_gates": rcv["gates"],
                "receiver_latches": rcv["latches"],
                "total_gates": inj["gates"] + rcv["gates"],
                "total_latches": inj["latches"] + rcv["latches"],
            }
        )
    return rows
