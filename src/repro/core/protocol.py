"""Protocol-level enumerations shared by the CR/FCR core and the network.

These are deliberately dependency-free so both ``repro.network`` (the
substrate) and ``repro.core`` (the protocol) can import them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .backoff import RetransmitPolicy
    from .padding import PaddingParams
    from .timeout import PathWideTimeout, TimeoutPolicy


class MessagePhase(enum.Enum):
    """Lifecycle of a message under (F)CR.

    QUEUED      waiting at the source for an injection channel / backoff gap.
    INJECTING   worm partially injected; killable by timeout or FKILL.
    KILLED      kill wavefront tearing the worm down; will be requeued.
    COMMITTED   tail has left the source: delivery is guaranteed (CR
                padding lemma), the source has released the message.
    DELIVERED   tail consumed at the destination, payload handed to host.
    FAILED      permanently undeliverable (only with retry limits).
    """

    QUEUED = "queued"
    PROBING = "probing"  # pipelined circuit switching: path search
    INJECTING = "injecting"
    KILLED = "killed"
    COMMITTED = "committed"
    DELIVERED = "delivered"
    FAILED = "failed"


class KillCause(enum.Enum):
    """Why a worm was torn down."""

    SOURCE_TIMEOUT = "source_timeout"
    PATH_TIMEOUT = "path_timeout"
    FKILL = "fkill"
    HEADER_FAULT = "header_fault"
    DROP_AT_BLOCK = "drop_at_block"



class ProtocolMode(enum.Enum):
    """Network-interface protocol the sources and sinks run.

    PLAIN   classic blocking wormhole: stream the message, never kill.
            (Used with deadlock-free routing functions: DOR, Duato, turn
            model -- or with naive adaptive routing to demonstrate the
            deadlock CR exists to break.)
    CR      Compressionless Routing: pad to Imin, source timeout, kill,
            retransmit with backoff.
    FCR     Fault-tolerant CR: CR plus round-trip padding, per-flit
            integrity checks, and receiver-initiated FKILL.
    """

    PLAIN = "plain"
    CR = "cr"
    FCR = "fcr"
    #: pipelined circuit switching (Gaughan & Yalamanchili): a header
    #: probe reserves the path hop by hop, backtracking around blocked
    #: or dead channels; data streams only on the completed circuit.
    PCS = "pcs"


@dataclass
class ProtocolConfig:
    """Everything the network interfaces need to run (F)CR.

    ``timeout`` and ``backoff`` are ignored in PLAIN mode.  ``path_wide``
    replaces the source-based timeout with per-router monitoring (the
    paper's rejected alternative, kept for the E10 ablation).
    ``retry_limit`` bounds kills per message (None = unlimited, the
    paper's model); exceeding it marks the message FAILED.
    """

    mode: ProtocolMode = ProtocolMode.CR
    timeout: Optional["TimeoutPolicy"] = None
    backoff: Optional["RetransmitPolicy"] = None
    padding: Optional["PaddingParams"] = None
    order_preserving: bool = True
    retry_limit: Optional[int] = None
    path_wide: Optional["PathWideTimeout"] = None
    # Drop-at-block (BBN Butterfly / MIT Transit lineage, paper
    # Section 8): a router whose *header* has been blocked for this many
    # cycles rejects the whole message; the sender retransmits later.
    # CR's predecessor -- kept as a baseline for E19.
    drop_at_block: Optional[int] = None
    # PCS: cycles a probe waits on busy channels before backtracking.
    pcs_wait: int = 4

    def __post_init__(self) -> None:
        from .backoff import ExponentialBackoff
        from .padding import PaddingParams
        from .timeout import LengthScaledTimeout

        if self.timeout is None:
            self.timeout = LengthScaledTimeout()
        if self.backoff is None:
            self.backoff = ExponentialBackoff()
        if self.padding is None:
            self.padding = PaddingParams()
