"""Production-shaped workloads layered above ``repro.traffic``.

The traffic layer answers *where* messages go (patterns) and *how big*
they are (lengths); this package answers *when* they arrive and *why*:
stochastic arrival processes (Bernoulli, geometric/Poisson, bursty MMPP,
heavy-tailed Pareto), semi-open client-server request/reply loops,
N-to-1 incast bursts, phase-scheduled collectives, and trace replay —
all behind one drop-in :class:`WorkloadGenerator` selected by
``SimConfig(workload=...)`` / ``cr-sim ... --workload``.

See ``docs/WORKLOADS.md`` for the model semantics and hazard math of
the companion :class:`repro.faults.cascading.LoadDependentFaults`.
"""

from .arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    BernoulliArrivals,
    GeometricArrivals,
    MMPPArrivals,
    ParetoArrivals,
    make_arrivals,
)
from .generator import (
    OpenLoopSource,
    RequestReply,
    ScheduledArrival,
    WorkloadGenerator,
)
from .spec import (
    WORKLOAD_KINDS,
    WorkloadSpec,
    build_workload,
    incast_bursts,
    load_workload_trace,
    record_trace,
    save_workload_trace,
)

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "BernoulliArrivals",
    "GeometricArrivals",
    "MMPPArrivals",
    "ParetoArrivals",
    "make_arrivals",
    "OpenLoopSource",
    "RequestReply",
    "ScheduledArrival",
    "WorkloadGenerator",
    "WORKLOAD_KINDS",
    "WorkloadSpec",
    "build_workload",
    "incast_bursts",
    "load_workload_trace",
    "record_trace",
    "save_workload_trace",
]
