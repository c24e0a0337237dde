"""E22 (synthesis): cycle counts x router clock = wall-clock latency.

The paper's two halves meet here.  The simulation experiments (E01...)
count *cycles*; the implementation study (T02, after Chien '93) says the
cycle itself is not equal across routers -- "virtual channels can reduce
the achievable speed of adaptive routers significantly", while CR's
no-VC adaptive router is simpler than a dateline DOR router.  A fair
end-to-end comparison multiplies each scheme's cycle counts by its
achievable cycle time:

    latency_ns = latency_cycles * router_delay_ns(scheme)

This experiment re-expresses the E01 sweep in nanoseconds using the T02
delay model: CR's clock advantage (~0.78x DOR's cycle time) compounds
its cycle-count advantage, and would partially rescue schemes that lose
on cycles alone.  Duato's 3-VC router is included to show the opposite
effect: its cycle-count win over DOR shrinks once its 1.4x cycle time
is charged.
"""

from __future__ import annotations

from typing import Dict, List

from ..hardware.routermodel import router_table
from ..stats.report import format_table
from .common import Row, Scale, at_top

#: simulated scheme -> (VCs simulated, router organisation in T02)
#: each scheme runs at its *minimum* VC provisioning -- the hardware
#: configuration whose clock the T02 model prices.
SCHEME_TO_ROUTER = {
    "cr": (1, "CR"),
    "dor": (2, "DOR"),
    "duato": (3, "Duato"),
}

COLUMNS = (
    "load", "scheme", "clock_ns", "latency_cycles", "latency_ns",
    ("throughput_flits_cycle", "throughput"), "throughput_flits_us",
)


def clock_ns(dims: int = 2) -> Dict[str, float]:
    """Cycle time per scheme from the T02 router-delay model."""
    delays = {row["router"]: float(row["total_ns"])
              for row in router_table(dims=dims)}
    return {
        scheme: delays[router]
        for scheme, (_, router) in SCHEME_TO_ROUTER.items()
    }


def points(scale: Scale):
    clocks = clock_ns(scale.dims)
    return [
        ({"load": load, "scheme": scheme, "clock_ns": clocks[scheme]},
         scale.base_config(routing=scheme, num_vcs=num_vcs, load=load))
        for load in scale.loads
        for scheme, (num_vcs, _) in SCHEME_TO_ROUTER.items()
    ]


def from_report(report, clock_ns, **coords) -> Row:
    cycles = float(report["latency_mean"])
    return {
        "latency_cycles": round(cycles, 1),
        "latency_ns": round(cycles * clock_ns, 1),
        "throughput_flits_us": round(
            1000.0 * float(report["throughput"]) / clock_ns, 1
        ),
    }


def table(rows: List[Row]) -> str:
    return format_table(
        rows,
        title="E22: clock-adjusted comparison "
              "(cycles x achievable cycle time)",
    )


def claim(rows: List[Row], scale: Scale) -> None:
    top = at_top(rows, "scheme")
    # CR's router clocks faster than both baselines in the model...
    assert top["cr"]["clock_ns"] < top["dor"]["clock_ns"]
    assert top["cr"]["clock_ns"] < top["duato"]["clock_ns"]
    # ...so its wall-clock throughput lead at saturation holds.
    assert (
        top["cr"]["throughput_flits_us"] >= top["dor"]["throughput_flits_us"]
    )
    assert (
        top["cr"]["throughput_flits_us"]
        >= top["duato"]["throughput_flits_us"] * 0.9
    )
