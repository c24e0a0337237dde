"""Buffer-storage accounting: what each organisation actually costs.

The buffer-organisation experiments (E04/E05) compare schemes at very
different storage budgets; this module makes the budgets explicit so the
comparison can be cost-normalised.  Storage is counted in flit-slots per
router (input VC buffers; CR's ejection staging and the interface
counters are counted by :mod:`repro.hardware.costmodel`).

The punchline T03's table supports: CR's performance point is reached at a
*fraction* of the deep-FIFO DOR budget -- buffer storage dominated early
routers' silicon, so flits-of-buffer per unit throughput was a real
design currency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class BufferOrganisation:
    """One router buffer configuration to be costed."""

    name: str
    num_vcs: int
    buffer_depth: int
    ports: int  # input ports carrying VC buffers (links + injection)

    @property
    def flits_per_router(self) -> int:
        return self.ports * self.num_vcs * self.buffer_depth


def standard_organisations(dims: int = 2) -> List[BufferOrganisation]:
    """The buffer organisations of E04/E05 (2D torus, one injector)."""
    ports = 2 * dims + 1  # link inputs + injection input
    return [
        BufferOrganisation("dor_2vc_d2", 2, 2, ports),
        BufferOrganisation("dor_2vc_d4", 2, 4, ports),
        BufferOrganisation("dor_2vc_d8", 2, 8, ports),
        BufferOrganisation("dor_2vc_d16", 2, 16, ports),
        BufferOrganisation("dor_4vc_d4", 4, 4, ports),
        BufferOrganisation("dor_8vc_d2", 8, 2, ports),
        BufferOrganisation("cr_1vc_d2", 1, 2, ports),
        BufferOrganisation("cr_2vc_d2", 2, 2, ports),
        BufferOrganisation("cr_4vc_d2", 4, 2, ports),
    ]
