"""Section and operator-demand dataclasses for the RDU compiler.

An :class:`OpDemand` is one operator's resource request (PCUs for compute,
PMUs for staging) plus the traffic it induces; a :class:`Section` is the
set of operators resident on the chip at once. Sections execute
sequentially; operators inside a section stream data concurrently through
the reconfigurable fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class OpDemand:
    """One operator's resource and traffic profile.

    Attributes:
        name: operator identifier.
        kind: coarse category (mirrors :class:`repro.graph.ops.OpKind`).
        flops: FLOPs per section invocation (full batch).
        pcus / pmus: resource request.
        weight_bytes: parameter bytes DMA'd from DDR per invocation.
        io_bytes: boundary activation bytes (input + output) that cross
            DDR when the op sits at a section edge; intra-section
            producer/consumer traffic stays in PMUs.
        backward: whether this is a gradient op.
    """

    name: str
    kind: str
    flops: float
    pcus: float
    pmus: float
    weight_bytes: float = 0.0
    io_bytes: float = 0.0
    backward: bool = False
    meta: dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.pcus < 0 or self.pmus < 0:
            raise ConfigurationError(
                f"op {self.name!r}: resource demands must be >= 0")
        if self.flops < 0:
            raise ConfigurationError(f"op {self.name!r}: flops must be >= 0")

    def renamed(self, name: str) -> "OpDemand":
        """This demand under another name, with its own ``meta``."""
        return OpDemand(name, self.kind, self.flops, self.pcus, self.pmus,
                        self.weight_bytes, self.io_bytes, self.backward,
                        dict(self.meta))


@dataclass
class Section:
    """A unit of sequential execution on one RDU.

    Attributes:
        name: section identifier.
        ops: operators resident during the section.
        invocations: times the section runs per training step (per-layer
            sections in O0/O1 run once per decoder layer).
        kind: ``forward`` / ``backward`` / ``model`` / ``comm`` — used by
            the Table II(a) partitioning accounting.
    """

    name: str
    ops: list[OpDemand]
    invocations: int = 1
    kind: str = "forward"

    def __post_init__(self) -> None:
        if not self.ops:
            raise ConfigurationError(f"section {self.name!r} has no ops")
        if self.invocations <= 0:
            raise ConfigurationError(
                f"section {self.name!r}: invocations must be > 0")

    @property
    def pcus(self) -> float:
        """PCUs resident during the section."""
        return sum(op.pcus for op in self.ops)

    @property
    def pmus(self) -> float:
        """PMUs resident during the section."""
        return sum(op.pmus for op in self.ops)

    @property
    def flops(self) -> float:
        """FLOPs per invocation."""
        return sum(op.flops for op in self.ops)

    @property
    def weight_bytes(self) -> float:
        """Parameter bytes loaded from DDR per invocation."""
        return sum(op.weight_bytes for op in self.ops)

    @property
    def boundary_bytes(self) -> float:
        """DDR activation traffic per invocation.

        Only the first and last ops' io traffic crosses DDR; everything
        between flows PMU-to-PMU. This is the mechanism that makes O1's
        fusion reduce off-chip traffic relative to O0.
        """
        first = self.ops[0].io_bytes / 2.0
        last = self.ops[-1].io_bytes / 2.0
        return first + last

    @property
    def ddr_bytes(self) -> float:
        """Total DDR bytes per invocation (weights + boundary activations)."""
        return self.weight_bytes + self.boundary_bytes
