"""Graph construction, validation and basic traversal."""

import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
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

    def test_strings_share_the_literal_caps(self):
        # The edge-list reader's bounds, before any Fraction is built.
        assert ug.to_weight("1e1000") == 10**1000
        m = ug.distance_matrix(["a", "b"], [["0", "1e1000"], ["1e1000", "0"]])
        assert m.entry("a", "b") == 10**1000
        for text in ["1e1001", "1e-1001", "1" * 1001]:
            with pytest.raises(ValueError, match="exponent beyond 1000"):
                ug.to_weight(text)
            with pytest.raises(ValueError, match="exponent beyond 1000"):
                ug.distance_matrix(["a", "b"], [["0", text], [text, "0"]])
            with pytest.raises(ValueError, match="exponent beyond 1000"):
                ug.build_graph(["a", "b"], [("a", "b", text)])

    @pytest.mark.parametrize("text", ["1/0", "0/0", " 5/0 "])
    def test_zero_denominator_is_a_value_error_at_every_entry_point(self, text):
        # Like every other bad literal, not a ZeroDivisionError.
        g = ug.build_graph(["a", "b", "c"], [("a", "b", 1)])
        calls = [
            lambda: ug.to_weight(text),
            lambda: ug.build_graph(["a", "b"], [("a", "b", text)]),
            lambda: ug.distance_matrix(["a", "b"], [["0", text], [text, "0"]]),
            lambda: ug.strict_threshold_subgraph(g, text),
            lambda: ug.augment(g, 0, {1: text}),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"weight literal {text!r} has a zero denominator"):
                call()


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

    def test_levels_are_ordered_exactly(self):
        # 1 + 2**-60 and 1 are the same float
        g = ug.build_graph("abc", [("a", "b", 1 + Fraction(1, 2**60)), ("b", "c", 1)])
        assert g._levels == (1, 1 + Fraction(1, 2**60))
        assert g._edge_columns.T.tolist() == [[0, 1, 1], [1, 2, 0]]


class TestValueObject:
    def test_equal_graphs_hash_equal(self):
        g = triangle()
        h = ug.parse_edge_list("vertex a\nvertex b\na c 3\nb c 2\na b 1/1")
        assert g == h and hash(g) == hash(h)
        assert {g: "first", h: "second"} == {g: "second"}

    def test_a_weight_or_the_vertex_order_tells_graphs_apart(self):
        g = triangle()
        assert g != ug.build_graph("abc", [("a", "b", 1), ("b", "c", 2), ("a", "c", 4)])
        assert g != ug.build_graph("bac", [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)])
        assert g != ug.build_graph("abc", [("a", "b", 1), ("b", "c", 2)])

    def test_repr_shows_the_vertices_only(self):
        assert repr(triangle()) == "WeightedGraph(vertices=('a', 'b', 'c'))"

    def test_name_views_are_built_on_first_read(self):
        g = triangle()
        assert {"_weights", "_adjacency"}.isdisjoint(vars(g))
        assert g.edge_count() == 3 and g.vertex_index("c") == 2
        assert {"_weights", "_adjacency"}.isdisjoint(vars(g))
        assert g.weight("c", "a") == 3
        assert "_weights" in vars(g) and "_adjacency" not in vars(g)
        assert g.neighbors("b") == ("a", "c")
        assert "_adjacency" in vars(g)
        assert hash(g) == hash(triangle()) and g == triangle()

    def test_index_columns_are_built_once_and_left_out_of_the_value(self):
        g = triangle()
        assert "_neighbours" not in vars(g)
        columns = g._edge_columns
        assert columns.T.tolist() == [[0, 1, 0], [0, 2, 2], [1, 2, 1]]
        neighbours = g._neighbours
        assert neighbours == ((1, 2), (0, 2), (0, 1)) and g._neighbours is neighbours
        assert g._edge_columns is columns and not columns.flags.writeable
        assert hash(g) == hash(triangle()) and g == triangle()
        assert repr(g) == "WeightedGraph(vertices=('a', 'b', 'c'))"
        empty = ug.build_graph("ab")._edge_columns
        assert empty.shape == (3, 0) and empty.dtype == np.intp


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


    def test_bound_is_checked_as_a_weight(self):
        g = triangle()
        with pytest.raises(ug.NegativeWeightError):
            ug.strict_threshold_subgraph(g, -1)
        with pytest.raises(TypeError):
            ug.strict_threshold_subgraph(g, 1.5)
        with pytest.raises(ValueError):
            ug.strict_threshold_subgraph(g, "x")

    def test_levels_below_the_bound_are_kept_as_they_are(self):
        g = ug.build_graph("abcd", [("a", "b", 3), ("b", "c", 1), ("c", "d", "1/2"), ("a", "d", 1)])
        h = ug.strict_threshold_subgraph(g, "3/2")
        assert h.edges == (("a", "d"), ("b", "c"), ("c", "d"))
        assert h._levels == (Fraction(1, 2), 1)
        assert h._edge_columns.T.tolist() == [[0, 3, 1], [1, 2, 1], [2, 3, 0]]
        assert h.neighbors("d") == ("a", "c")


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

    @pytest.mark.parametrize("seed", ["2", "4"])
    def test_first_unknown_vertex_in_the_callers_order(self, seed):
        # Set order follows the string hashes; the caller's order does not.
        code = (
            "import ultragraph as ug\n"
            "g = ug.build_graph(['a', 'b'], [('a', 'b', 1)])\n"
            "try:\n"
            "    ug.induced_subgraph(g, ['x', 'y', 'zz', 'w'])\n"
            "except ug.UnknownVertexError as exc:\n"
            "    print(exc)\n"
        )
        src = os.path.dirname(os.path.dirname(ug.__file__))
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout == "unknown vertex 'x'\n"


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
