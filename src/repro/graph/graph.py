"""A validated directed acyclic graph of :class:`~repro.graph.ops.Operator` nodes.

:mod:`repro.models.graph_builder` builds two of them from a model
lowering: the full training graph, for inspection, and the one-layer
graph whose linear chains the RDU's O1 mode fuses. The queries cover
topological order, per-layer views, aggregate cost totals, and subgraph
extraction.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.common.errors import ConfigurationError
from repro.graph.ops import OpKind, Operator


@dataclass(frozen=True)
class Edge:
    """A data dependency: ``dst`` consumes ``src``'s output.

    Attributes:
        src: producing operator name.
        dst: consuming operator name.
        bytes_transferred: payload size per step, used by placement and
            communication cost models.
    """

    src: str
    dst: str
    bytes_transferred: float = 0.0


class ComputationGraph:
    """Mutable DAG of operators with dependency edges.

    Node names are unique. Edges may only reference existing nodes, and
    cycle creation is rejected eagerly so that a constructed graph is
    always schedulable.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._ops: dict[str, Operator] = {}
        self._succ: dict[str, list[Edge]] = {}
        self._pred: dict[str, list[Edge]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_op(self, op: Operator) -> Operator:
        """Insert a node; duplicate names are configuration errors."""
        if op.name in self._ops:
            raise ConfigurationError(f"duplicate operator name: {op.name!r}")
        self._ops[op.name] = op
        self._succ[op.name] = []
        self._pred[op.name] = []
        return op

    def add_edge(self, src: str, dst: str,
                 bytes_transferred: float | None = None) -> Edge:
        """Insert a dependency edge ``src -> dst``.

        If ``bytes_transferred`` is omitted it defaults to the producer's
        ``output_bytes``. Raises if either endpoint is missing, if the edge
        is a self-loop, or if it would create a cycle.
        """
        if src not in self._ops:
            raise ConfigurationError(f"unknown edge source: {src!r}")
        if dst not in self._ops:
            raise ConfigurationError(f"unknown edge destination: {dst!r}")
        if src == dst:
            raise ConfigurationError(f"self-loop on {src!r} is not allowed")
        # A node with no successors reaches nothing, so an edge into a
        # fresh sink needs no search.
        if self._succ[dst] and self._reaches(dst, src):
            raise ConfigurationError(
                f"edge {src!r} -> {dst!r} would create a cycle"
            )
        if bytes_transferred is None:
            bytes_transferred = self._ops[src].output_bytes
        edge = Edge(src=src, dst=dst, bytes_transferred=bytes_transferred)
        self._succ[src].append(edge)
        self._pred[dst].append(edge)
        return edge

    def chain(self, names: Iterable[str]) -> None:
        """Add edges linking ``names`` sequentially (a linear pipeline)."""
        previous: str | None = None
        for name in names:
            if previous is not None:
                self.add_edge(previous, name)
            previous = name

    def _reaches(self, start: str, target: str) -> bool:
        """BFS reachability used for eager cycle detection."""
        if start == target:
            return True
        seen = {start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for edge in self._succ[node]:
                if edge.dst == target:
                    return True
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    queue.append(edge.dst)
        return False

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ops)

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __iter__(self) -> Iterator[Operator]:
        return iter(self._ops.values())

    def op(self, name: str) -> Operator:
        """Look up a node by name; raises ``KeyError`` if absent."""
        return self._ops[name]

    @property
    def ops(self) -> list[Operator]:
        """All nodes in insertion order."""
        return list(self._ops.values())

    @property
    def edges(self) -> list[Edge]:
        """All edges in insertion order of their source nodes."""
        return [edge for edges in self._succ.values() for edge in edges]

    def successors(self, name: str) -> list[Operator]:
        """Operators that consume ``name``'s output."""
        return [self._ops[e.dst] for e in self._succ[name]]

    def predecessors(self, name: str) -> list[Operator]:
        """Operators whose output ``name`` consumes."""
        return [self._ops[e.src] for e in self._pred[name]]

    def in_degree(self, name: str) -> int:
        return len(self._pred[name])

    def out_degree(self, name: str) -> int:
        return len(self._succ[name])

    def sources(self) -> list[Operator]:
        """Nodes with no predecessors (graph entry points)."""
        return [op for op in self._ops.values() if not self._pred[op.name]]

    def sinks(self) -> list[Operator]:
        """Nodes with no successors (graph exit points)."""
        return [op for op in self._ops.values() if not self._succ[op.name]]

    def topological_order(self) -> list[Operator]:
        """Kahn's-algorithm topological sort (stable for equal rank)."""
        indegree = {name: len(preds) for name, preds in self._pred.items()}
        ready = deque(name for name, deg in indegree.items() if deg == 0)
        order: list[Operator] = []
        while ready:
            name = ready.popleft()
            order.append(self._ops[name])
            for edge in self._succ[name]:
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    ready.append(edge.dst)
        if len(order) != len(self._ops):  # pragma: no cover - guarded by add_edge
            raise ConfigurationError("graph contains a cycle")
        return order

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def total_flops(self) -> float:
        """Sum of per-step FLOPs over all nodes."""
        return sum(op.flops for op in self._ops.values())

    @property
    def total_weight_bytes(self) -> float:
        """Sum of parameter bytes over all nodes."""
        return sum(op.weight_bytes for op in self._ops.values())

    @property
    def total_activation_bytes(self) -> float:
        """Sum of activation traffic over all nodes."""
        return sum(op.activation_bytes for op in self._ops.values())

    def ops_of_kind(self, kind: OpKind) -> list[Operator]:
        """All nodes of one :class:`OpKind`, in insertion order."""
        return [op for op in self._ops.values() if op.kind is kind]

    def layer_indices(self) -> list[int]:
        """Sorted distinct decoder-layer indices present in the graph."""
        return sorted({op.layer_index for op in self._ops.values()
                       if op.layer_index >= 0})

    def layer_ops(self, layer_index: int) -> list[Operator]:
        """All nodes belonging to one decoder layer."""
        return [op for op in self._ops.values()
                if op.layer_index == layer_index]

    def model_level_ops(self) -> list[Operator]:
        """Nodes not attached to any decoder layer."""
        return [op for op in self._ops.values() if op.layer_index < 0]

    def subgraph(self, names: Iterable[str],
                 name: str = "subgraph") -> "ComputationGraph":
        """Extract the induced subgraph over ``names``.

        Edges are kept only when both endpoints are included. Used by the
        RDU sectioner and the IPU pipeline compiler.
        """
        selected = set(names)
        missing = selected - set(self._ops)
        if missing:
            raise ConfigurationError(
                f"subgraph references unknown operators: {sorted(missing)}"
            )
        sub = ComputationGraph(name=name)
        for op in self._ops.values():
            if op.name in selected:
                sub.add_op(op)
        for edge in self.edges:
            if edge.src in selected and edge.dst in selected:
                sub.add_edge(edge.src, edge.dst, edge.bytes_transferred)
        return sub

    def boundary_bytes(self, names: Iterable[str]) -> float:
        """Bytes crossing the cut between ``names`` and the rest.

        This is the communication volume a partitioner pays for placing
        ``names`` in a separate section/stage/device.
        """
        selected = set(names)
        crossing = 0.0
        for edge in self.edges:
            if (edge.src in selected) != (edge.dst in selected):
                crossing += edge.bytes_transferred
        return crossing

    def validate(self) -> None:
        """Re-check structural invariants; raises on violation.

        Construction already guarantees these, but compilers call this
        after graph surgery as a safety net.
        """
        for edges in self._succ.values():
            for edge in edges:
                if edge.src not in self._ops or edge.dst not in self._ops:
                    raise ConfigurationError(
                        f"dangling edge {edge.src!r} -> {edge.dst!r}"
                    )
        self.topological_order()

    def __repr__(self) -> str:
        return (f"ComputationGraph(name={self.name!r}, ops={len(self._ops)}, "
                f"edges={len(self.edges)})")
