"""Seeded protocol bugs: the differential oracle for the checkers.

A checker that never fires proves nothing.  Each mutation here plants
one realistic protocol bug into a freshly built engine -- an off-by-one
credit return, a kill wavefront that skips a hop, a padding calculation
that forgets Imin -- and the conformance suite asserts that every
registered mutation is caught by at least one invariant while the
unmutated simulator passes them all (``tests/verify/test_mutations.py``).

Mutations are applied *per engine instance* at build time (enable one
via ``SimConfig(verify=VerifyConfig(mutation="..."))``, which builds
the reference engine, ``repro.verify.reference``, whatever ``engine``
says: the fast engine inlines the methods patched here, so anything
but a ``ReferenceEngine`` is refused), by wrapping bound methods of the
non-slotted protocol objects (engine, kill manager, injectors,
receivers, routing) or by perturbing channel state directly --
``Channel`` and ``VCBuffer`` use ``__slots__``, so faults against them
are injected at the data level.

To add a mutation: decorate an ``apply(engine)`` function with
:func:`register`, stating which invariant is expected to catch it, then
add a tuned config for it in the conformance suite.  The suite fails if
a registry entry has no test coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List

from ..network.fastengine import FastEngineRefusal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .reference import ReferenceEngine


@dataclass(frozen=True)
class Mutation:
    """One registered protocol bug."""

    name: str
    description: str
    #: invariant expected to flag it (documentation; the conformance
    #: suite accepts any InvariantViolation).
    caught_by: str
    apply: Callable[["ReferenceEngine"], None]


MUTATIONS: Dict[str, Mutation] = {}


def register(name: str, description: str, caught_by: str):
    """Class the decorated ``apply(engine)`` function as a mutation."""

    def wrap(func: Callable[["ReferenceEngine"], None]):
        if name in MUTATIONS:
            raise ValueError(f"duplicate mutation {name!r}")
        MUTATIONS[name] = Mutation(name, description, caught_by, func)
        return func

    return wrap


def mutation_names() -> List[str]:
    """Registered mutation names, sorted."""
    return sorted(MUTATIONS)


def apply_mutation(engine: "ReferenceEngine", name: str) -> None:
    """Plant the named bug into ``engine`` (raises on unknown names,
    and on any engine but the reference, whose phases call the methods
    patched; the fast engine's inlined paths would bypass the patch)."""
    try:
        mutation = MUTATIONS[name]
    except KeyError:
        known = ", ".join(mutation_names())
        raise ValueError(
            f"unknown mutation {name!r}; choose from {known}"
        ) from None
    # Here, not at the top: every checked run loads this package, only
    # a run on the spec loads the spec.
    from .reference import ReferenceEngine

    if not isinstance(engine, ReferenceEngine):
        raise FastEngineRefusal("instance-patched methods (a mutation)")
    mutation.apply(engine)


# ----------------------------------------------------------------------
# Credit-loop bugs
# ----------------------------------------------------------------------

@register(
    "credit-loss",
    "every 5th switch transfer forgets to return the freed credit "
    "upstream (off-by-one in the credit-return pipeline)",
    "credits",
)
def _credit_loss(engine: "ReferenceEngine") -> None:
    orig = engine._transfer
    state = {"n": 0}

    def mutated(router, port, vc, buffer, now):
        orig(router, port, vc, buffer, now)
        feeder = buffer.feeder
        if feeder is not None and feeder._pending:
            state["n"] += 1
            if state["n"] % 5 == 0:
                feeder._pending.pop()

    engine._transfer = mutated


@register(
    "credit-double-return",
    "every 5th switch transfer returns the freed credit twice "
    "(duplicated credit-return event)",
    "credits",
)
def _credit_double_return(engine: "ReferenceEngine") -> None:
    orig = engine._transfer
    state = {"n": 0}

    def mutated(router, port, vc, buffer, now):
        orig(router, port, vc, buffer, now)
        feeder = buffer.feeder
        if feeder is not None and feeder._pending:
            state["n"] += 1
            if state["n"] % 5 == 0:
                feeder._pending.append(feeder._pending[-1])

    engine._transfer = mutated


@register(
    "eject-credit-leak",
    "the receiver occasionally loses an ejection credit instead of "
    "returning it after consuming a flit",
    "credits",
)
def _eject_credit_leak(engine: "ReferenceEngine") -> None:
    state = {"n": 0}
    for node in engine.nodes:
        receiver = node.receiver
        orig = receiver.process

        def mutated(now, _orig=orig, _node=node):
            _orig(now)
            for channel in engine.network.ejection_channels[_node.node_id]:
                if channel._pending:
                    state["n"] += 1
                    if state["n"] % 3 == 0:
                        channel._pending.pop()

        receiver.process = mutated


# ----------------------------------------------------------------------
# Kill-protocol bugs
# ----------------------------------------------------------------------

@register(
    "kill-skip-hop",
    "the kill wavefront plan drops its final segment, so the teardown "
    "never reaches one hop of the worm",
    "kill-protocol",
)
def _kill_skip_hop(engine: "ReferenceEngine") -> None:
    orig = engine.kills.initiate

    def mutated(message, cause, backward, now, allow_committed=False):
        orig(message, cause, backward, now, allow_committed)
        plan = message.kill_wavefront
        if plan:
            plan.pop()

    engine.kills.initiate = mutated


@register(
    "kill-leaves-flit",
    "flushing a segment misses the last flit in the buffer; it stays "
    "behind as an orphan after the kill completes",
    "kill-protocol",
)
def _kill_leaves_flit(engine: "ReferenceEngine") -> None:
    orig = engine.kills._flush_segment

    def mutated(message, buffer, now):
        stash = buffer.fifo.pop() if buffer.fifo else None
        orig(message, buffer, now)
        if stash is not None:
            buffer.fifo.append(stash)

    engine.kills._flush_segment = mutated


# ----------------------------------------------------------------------
# Padding / injection bugs
# ----------------------------------------------------------------------

@register(
    "padding-shortfall",
    "the injector forgets the Imin padding and wires the bare payload "
    "length",
    "padding",
)
def _padding_shortfall(engine: "ReferenceEngine") -> None:
    for node in engine.nodes:
        for injector in node.injectors:
            orig = injector._start

            def mutated(message, vc, now, _orig=orig):
                _orig(message, vc, now)
                message.wire_length = message.payload_length

            injector._start = mutated


@register(
    "timeout-disabled",
    "the source timeout never fires: CR degrades to naive adaptive "
    "wormhole and can deadlock",
    "liveness",
)
def _timeout_disabled(engine: "ReferenceEngine") -> None:
    class _NeverFires:
        name = "mutated-never-fires"

        def threshold(self, message, num_vcs):
            return 1 << 30

        def fires(self, stall, message, num_vcs):
            return False

    engine.protocol.timeout = _NeverFires()


# ----------------------------------------------------------------------
# Routing bugs
# ----------------------------------------------------------------------

@register(
    "dateline-skip",
    "dimension-order routing forgets to set the dateline bit on "
    "wraparound hops, re-opening the torus dependency cycle",
    "liveness",
)
def _dateline_skip(engine: "ReferenceEngine") -> None:
    orig = engine.routing.on_header_hop

    def mutated(message, channel):
        if channel.is_wrap:
            return
        orig(message, channel)

    engine.routing.on_header_hop = mutated


# ----------------------------------------------------------------------
# Delivery bugs
# ----------------------------------------------------------------------

@register(
    "double-delivery",
    "the receiver occasionally processes a staged body flit twice "
    "(duplicate hand-off to the assembly stage)",
    "conservation",
)
def _double_delivery(engine: "ReferenceEngine") -> None:
    state = {"n": 0}
    for node in engine.nodes:
        receiver = node.receiver
        orig = receiver.process

        def mutated(now, _orig=orig, _recv=receiver):
            for entry in _recv.staging:
                arrival, flit, _channel = entry
                if arrival <= now and not flit.is_head and not flit.is_tail:
                    state["n"] += 1
                    if state["n"] % 7 == 0:
                        _recv.staging.append(entry)
                    break
            _orig(now)

        receiver.process = mutated
