"""Transient faults: per-flit-per-hop data corruption.

Section 6.2 of the paper evaluates FCR "with a range of fault rates";
the natural unit is the probability that one flit crossing one physical
channel is damaged.  The damage is detected by per-flit check codes (see
:mod:`repro.faults.crc` for the code model): at the next router for
header flits, at the receiving interface for body flits.  FCR then
FKILLs the worm and the source retransmits -- "FCR networks tolerate any
transient faults".
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from .model import FaultModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..network.channel import Channel
    from ..network.flit import Flit


class TransientFaults(FaultModel):
    """Bernoulli corruption of flits on link traversals.

    Parameters
    ----------
    flit_fault_rate:
        Probability that a single flit-hop is corrupted
        (``SimConfig.fault_rate``).  Pads are corrupted like any flit;
        the receiver ignores a corrupted pad (it carries no data).
    """

    def __init__(self, flit_fault_rate: float) -> None:
        if not 0.0 <= flit_fault_rate <= 1.0:
            raise ValueError(
                f"fault_rate must be a probability in [0, 1], "
                f"got {flit_fault_rate!r}"
            )
        self.flit_fault_rate = flit_fault_rate

    def corrupt(
        self, flit: "Flit", channel: "Channel", rng: random.Random
    ) -> bool:
        if self.flit_fault_rate == 0.0:
            return False
        return rng.random() < self.flit_fault_rate

    def __repr__(self) -> str:
        return f"TransientFaults(rate={self.flit_fault_rate})"
