"""ComputationGraph structure, validation, and queries."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.graph.graph import ComputationGraph
from repro.graph.ops import OpKind, Operator


def op(name, kind=OpKind.FFN_UP, layer=-1, **kw):
    defaults = dict(flops=10.0, output_bytes=8.0)
    defaults.update(kw)
    return Operator(name=name, kind=kind, layer_index=layer, **defaults)


@pytest.fixture()
def chain3():
    g = ComputationGraph("chain")
    for name in ("a", "b", "c"):
        g.add_op(op(name))
    g.chain(["a", "b", "c"])
    return g


class TestConstruction:
    def test_duplicate_name_rejected(self, chain3):
        with pytest.raises(ConfigurationError):
            chain3.add_op(op("a"))

    def test_edge_unknown_source(self, chain3):
        with pytest.raises(ConfigurationError):
            chain3.add_edge("nope", "a")

    def test_edge_unknown_destination(self, chain3):
        with pytest.raises(ConfigurationError):
            chain3.add_edge("a", "nope")

    def test_self_loop_rejected(self, chain3):
        with pytest.raises(ConfigurationError):
            chain3.add_edge("a", "a")

    def test_cycle_rejected(self, chain3):
        with pytest.raises(ConfigurationError):
            chain3.add_edge("c", "a")

    def test_residual_back_edge_rejected(self):
        # A cycle closing through a node that already has successors:
        # res1 -> ln2 -> res2, then res2 -> res1.
        g = ComputationGraph()
        for name in ("res1", "ln2", "res2"):
            g.add_op(op(name))
        g.chain(["res1", "ln2", "res2"])
        g.add_edge("res1", "res2", 4.0)
        with pytest.raises(ConfigurationError, match="cycle"):
            g.add_edge("res2", "res1")
        assert len(g.edges) == 3
        g.validate()

    def test_edge_into_fresh_sink(self, chain3):
        chain3.add_op(op("d"))
        edge = chain3.add_edge("a", "d")
        assert (edge.src, edge.dst) == ("a", "d")
        assert [o.name for o in chain3.successors("a")] == ["b", "d"]
        assert {o.name for o in chain3.sinks()} == {"c", "d"}
        chain3.validate()

    def test_edge_bytes_default_to_producer_output(self, chain3):
        edge = [e for e in chain3.edges if e.src == "a"][0]
        assert edge.bytes_transferred == 8.0

    def test_edge_bytes_override(self):
        g = ComputationGraph()
        g.add_op(op("x"))
        g.add_op(op("y"))
        edge = g.add_edge("x", "y", bytes_transferred=99.0)
        assert edge.bytes_transferred == 99.0


class TestQueries:
    def test_len_and_contains(self, chain3):
        assert len(chain3) == 3
        assert "b" in chain3
        assert "z" not in chain3

    def test_sources_and_sinks(self, chain3):
        assert [o.name for o in chain3.sources()] == ["a"]
        assert [o.name for o in chain3.sinks()] == ["c"]

    def test_degrees(self, chain3):
        assert chain3.in_degree("a") == 0
        assert chain3.out_degree("b") == 1
        assert chain3.in_degree("c") == 1

    def test_successors_predecessors(self, chain3):
        assert [o.name for o in chain3.successors("a")] == ["b"]
        assert [o.name for o in chain3.predecessors("c")] == ["b"]

    def test_topological_order(self, chain3):
        assert [o.name for o in chain3.topological_order()] == ["a", "b", "c"]

    def test_topological_order_diamond(self):
        g = ComputationGraph()
        for name in "abcd":
            g.add_op(op(name))
        g.add_edge("a", "b")
        g.add_edge("a", "c")
        g.add_edge("b", "d")
        g.add_edge("c", "d")
        order = [o.name for o in g.topological_order()]
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")

    def test_aggregates(self, chain3):
        assert chain3.total_flops == 30.0
        assert chain3.total_activation_bytes == 3 * 8.0

    def test_ops_of_kind(self):
        g = ComputationGraph()
        g.add_op(op("m", OpKind.FFN_UP))
        g.add_op(op("n", OpKind.LAYERNORM))
        assert [o.name for o in g.ops_of_kind(OpKind.LAYERNORM)] == ["n"]

    def test_layer_queries(self):
        g = ComputationGraph()
        g.add_op(op("l0a", layer=0))
        g.add_op(op("l1a", layer=1))
        g.add_op(op("emb", layer=-1))
        assert g.layer_indices() == [0, 1]
        assert [o.name for o in g.layer_ops(1)] == ["l1a"]
        assert [o.name for o in g.model_level_ops()] == ["emb"]


class TestSubgraph:
    def test_induced_edges_only(self, chain3):
        sub = chain3.subgraph(["a", "c"])
        assert len(sub) == 2
        assert sub.edges == []

    def test_contiguous_subgraph_keeps_edges(self, chain3):
        sub = chain3.subgraph(["a", "b"])
        assert len(sub.edges) == 1

    def test_unknown_names_rejected(self, chain3):
        with pytest.raises(ConfigurationError):
            chain3.subgraph(["a", "zzz"])

    def test_boundary_bytes(self, chain3):
        # Cut between {a} and {b, c}: one 8-byte edge crosses.
        assert chain3.boundary_bytes(["a"]) == 8.0
        assert chain3.boundary_bytes(["a", "b", "c"]) == 0.0

    def test_validate_passes_on_wellformed(self, chain3):
        chain3.validate()


@given(st.integers(min_value=1, max_value=30))
def test_chain_topology_any_length(n):
    g = ComputationGraph()
    names = [f"n{i}" for i in range(n)]
    for name in names:
        g.add_op(op(name))
    g.chain(names)
    assert [o.name for o in g.topological_order()] == names
    assert len(g.edges) == n - 1
