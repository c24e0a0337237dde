"""The lockstep driver the per-seam oracles share.

The two engines cannot run side by side -- message uids come from one
process-wide counter -- so each is built alone (uids restarting at 0),
run through single long ``run()`` / ``run_until_drained()`` calls (a
bare ``step()`` rebuilds the phase table and forgets what the fast
engine caches across cycles), and observed through wrappers around
entries of its phase table; the per-cycle records are compared
afterwards.  An oracle file brings its recorders, its seam-specific
assertions and its test ids; everything else is here.

``recorders`` maps a phase name to ``record(engine) -> {name: value}``:
what that phase must leave identical under both engines, filed under
``engine.seen[phase][cycle]``.  ``probes`` maps a phase name to
``probe(engine) -> value`` for what is *meant* to differ (the staging
the fast engine skips), filed under ``engine.probed[phase][cycle]`` and
compared by nobody but the oracle file itself.
"""

from __future__ import annotations

from repro.network.fastengine import FastEngine
from repro.network.message import reset_uid_counter
from repro.verify.reference import ReferenceEngine

#: the small torus the oracles share, and the cascade that keeps a
#: quarter of its links dead at any time.
SMALL = dict(radix=4, dims=2, message_length=8, seed=11)
CASCADE = (
    "base_hazard=2e-4,load_gain=8,check_interval=16,"
    "neighbor_boost=10,boost_cycles=96,repair_cycles=200"
)


class _Observed:
    """Mixin wrapping the recorded and probed entries of the table."""

    def _phase_table(self):
        return tuple(
            (name, self._observing(name, phase))
            if name in self.recorders or name in self.probes
            else (name, phase)
            for name, phase in super()._phase_table()
        )

    def _observing(self, name, phase):
        record = self.recorders.get(name)
        probe = self.probes.get(name)

        def observed(now: int) -> None:
            phase(now)
            if record is not None:
                self.seen[name][now] = record(self)
            if probe is not None:
                self.probed[name][now] = probe(self)

        return observed


#: two classes for the whole session: a class made per run would cost
#: the interpreter its per-type attribute caches (+20 % wall, measured).
_CLASSES = {
    "reference": type(
        "ObservedReferenceEngine", (_Observed, ReferenceEngine), {}
    ),
    "fast": type("ObservedFastEngine", (_Observed, FastEngine), {}),
}


def build(config, engine_name):
    """``config`` built alone on the named engine, uids restarting at 0."""
    reset_uid_counter()
    engine = config.with_(engine=engine_name).build()
    assert type(engine) is (
        FastEngine if engine_name == "fast" else ReferenceEngine
    )
    return engine


def observed(config, engine_name, recorders, probes=None):
    """:func:`build`, with the named phases recorded and probed."""
    engine = build(config, engine_name)
    engine.__class__ = _CLASSES[engine_name]
    engine.recorders, engine.probes = recorders, probes or {}
    engine.seen = {name: {} for name in engine.recorders}
    engine.probed = {name: {} for name in engine.probes}
    return engine


def observe(config, engine_name, recorders, probes=None,
            cycles=500, drain=4000):
    engine = observed(config, engine_name, recorders, probes)
    engine.run(cycles)
    engine.run_until_drained(drain)
    return engine


def first_difference(got, want):
    """Where two records part: the first key (a buffer's ``(node, port,
    vc)``, a channel index) of a dict-shaped record, the first index
    (one entry per channel / injector) of a sequence-shaped one."""
    pairs = []
    if isinstance(got, dict):
        pairs = [(key, got.get(key), want.get(key))
                 for key in sorted(set(got) | set(want))]
    elif isinstance(got, (tuple, list)) and len(got) == len(want):
        pairs = [(index, *pair) for index, pair in enumerate(zip(got, want))]
    for key, mine, theirs in pairs:
        if mine != theirs:
            return f"[{key}]: {mine} != {theirs}"
    return f"{got} != {want}"


def assert_records_identical(reference, fast):
    """Every recorded phase the fast engine ran left what the
    reference's did (cycles it skipped are cycles nothing could happen
    in)."""
    for phase, seen in fast.seen.items():
        assert seen, f"the fast engine never ran {phase}"
        for now, state in seen.items():
            expected = reference.seen[phase][now]
            for name, got in state.items():
                assert got == expected[name], (
                    f"t={now}, after {phase}: {name}, fast vs reference: "
                    f"{first_difference(got, expected[name])}"
                )
    assert fast.now == reference.now


def observe_both(config, recorders, probes=None, cycles=500, drain=4000):
    """Run both engines; compare what every recorded phase left and the
    run's counters.  Returns ``(reference, fast)``."""
    reference, fast = (
        observe(config, name, recorders, probes, cycles, drain)
        for name in ("reference", "fast")
    )
    assert_records_identical(reference, fast)
    assert dict(fast.stats.counters) == dict(reference.stats.counters)
    return reference, fast
