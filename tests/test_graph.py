"""Graph construction, validation and basic traversal."""

from fractions import Fraction

import pytest

import ultragraph as ug


def triangle():
    return ug.build_graph(
        ["a", "b", "c"], [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)]
    )


class TestWeights:
    def test_accepts_int_str_fraction(self):
        assert ug.to_weight(3) == Fraction(3)
        assert ug.to_weight("1/2") == Fraction(1, 2)
        assert ug.to_weight(Fraction(7, 3)) == Fraction(7, 3)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            ug.to_weight(0.5)

    def test_rejects_negative(self):
        with pytest.raises(ug.NegativeWeightError):
            ug.to_weight(-1)
        with pytest.raises(ug.NegativeWeightError):
            ug.to_weight("-1/2")

    def test_zero_is_fine(self):
        assert ug.to_weight(0) == 0


class TestBuildGraph:
    def test_vertex_order_preserved(self):
        g = ug.build_graph(["z", "a", "m"], [("z", "a", 1)])
        assert g.vertices == ("z", "a", "m")

    def test_edges_canonical(self):
        g = triangle()
        # keys orient toward the earlier declared vertex
        assert g.edges == (("a", "b"), ("a", "c"), ("b", "c"))
        assert g.weight("c", "a") == 3
        assert g.weight("a", "c") == 3

    def test_edges_canonical_when_given_in_reverse(self):
        g = ug.build_graph(
            ["a", "b", "c", "d"],
            [("d", "c", 4), ("c", "a", 3), ("d", "a", 2), ("b", "a", 1)],
        )
        assert g.edges == (("a", "b"), ("a", "c"), ("a", "d"), ("c", "d"))
        assert list(g.weighted_edges()) == [
            ("a", "b", 1), ("a", "c", 3), ("a", "d", 2), ("c", "d", 4)
        ]

    def test_neighbors_sorted_by_declaration(self):
        g = ug.build_graph(
            ["a", "b", "c", "d"],
            [("a", "d", 1), ("a", "b", 1), ("a", "c", 1)],
        )
        assert g.neighbors("a") == ("b", "c", "d")

    def test_self_loop_rejected(self):
        with pytest.raises(ug.SelfLoopError):
            ug.build_graph(["a"], [("a", "a", 1)])

    def test_duplicate_edge_rejected_any_orientation(self):
        with pytest.raises(ug.DuplicateEdgeError):
            ug.build_graph(["a", "b"], [("a", "b", 1), ("b", "a", 2)])

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ug.DuplicateEdgeError):
            ug.build_graph(["a", "a"], [])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ug.UnknownVertexError):
            ug.build_graph(["a", "b"], [("a", "q", 1)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ug.NegativeWeightError):
            ug.build_graph(["a", "b"], [("a", "b", -3)])

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(ug.UnknownVertexError):
            ug.build_graph([], [])

    def test_has_edge(self):
        g = triangle()
        assert g.has_edge("b", "a")
        assert not g.has_edge("a", "a")
        assert g.edge_count() == 3


class TestComponents:
    def test_single_component(self):
        assert ug.is_connected(triangle())

    def test_blocks_ordered_by_first_appearance(self):
        g = ug.build_graph(
            ["p", "x", "q", "y"], [("p", "q", 1), ("x", "y", 2)]
        )
        parts = ug.connected_components(g)
        assert parts.blocks == (("p", "q"), ("x", "y"))
        assert parts.block_of("y") == ("x", "y")
        assert parts.block_index("q") == 0

    def test_isolated_vertices(self):
        g = ug.build_graph(["a", "b", "c"], [("a", "b", 1)])
        assert not ug.is_connected(g)
        assert ug.connected_components(g).blocks == (("a", "b"), ("c",))


class TestThresholdSubgraph:
    def test_strictness(self):
        g = triangle()
        h = ug.strict_threshold_subgraph(g, Fraction(2))
        assert h.edges == (("a", "b"),)
        assert h.vertices == g.vertices

    def test_keeps_all_when_bound_exceeds_max(self):
        g = triangle()
        h = ug.strict_threshold_subgraph(g, Fraction(100))
        assert h.edges == g.edges

    def test_zero_bound_drops_everything(self):
        g = triangle()
        assert ug.strict_threshold_subgraph(g, Fraction(0)).edges == ()


class TestInducedSubgraph:
    def test_keeps_order_and_weights(self):
        g = triangle()
        h = ug.induced_subgraph(g, ["c", "a"])
        assert h.vertices == ("a", "c")
        assert h.weight("a", "c") == 3
        assert h.edge_count() == 1

    def test_unknown_vertex(self):
        with pytest.raises(ug.UnknownVertexError):
            ug.induced_subgraph(triangle(), ["a", "zz"])


class TestPath:
    def test_valid_path(self):
        p = ug.Path(("a", "b", "c"))
        g = triangle()
        p.validate_in(g)
        assert p.max_weight(g) == 2
        assert p.total_weight(g) == 3
        assert tuple(p.edges()) == (("a", "b"), ("b", "c"))

    def test_repeat_vertex_rejected(self):
        with pytest.raises(ValueError):
            ug.Path(("a", "b", "a")).validate_in(triangle())

    def test_missing_edge_detected(self):
        g = ug.build_graph(["a", "b", "c"], [("a", "b", 1)])
        with pytest.raises(ValueError):
            ug.Path(("a", "b", "c")).validate_in(g)

    def test_single_vertex_path(self):
        p = ug.Path(("a",))
        p.validate_in(triangle())
        assert tuple(p.edges()) == ()
        assert p.total_weight(triangle()) == 0


class TestCycle:
    def test_edges_wrap_around(self):
        c = ug.Cycle(("a", "b", "c"))
        assert tuple(c.edges()) == (("a", "b"), ("b", "c"), ("c", "a"))

    def test_too_short(self):
        with pytest.raises(ValueError):
            ug.Cycle(("a", "b")).validate_in(triangle())

    def test_max_weight_edges(self):
        c = ug.Cycle(("a", "b", "c"))
        g = triangle()
        c.validate_in(g)
        assert c.max_weight_edges(g) == [("c", "a")]

    def test_tied_maximum(self):
        g = ug.build_graph(
            ["a", "b", "c"], [("a", "b", 2), ("b", "c", 2), ("a", "c", 1)]
        )
        c = ug.Cycle(("a", "b", "c"))
        assert c.max_weight_edges(g) == [("a", "b"), ("b", "c")]
