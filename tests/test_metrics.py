"""Distance matrices: classification, the two graph pseudometrics,
quotients, dendrograms and the betweenness exponent."""

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction

import networkx as nx
import pytest

import ultragraph as ug
from ultragraph import AxiomClass, PartialOrderResult

from corpus import random_connected_graph, random_ultrametric


def triangle123():
    return ug.build_graph(
        ["a", "b", "c"], [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)]
    )


def mat(names, *rows):
    return ug.distance_matrix(names, [[Fraction(x) for x in r] for r in rows])


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(g.vertices)
    for u, v, w in g.weighted_edges():
        G.add_edge(u, v, weight=w)
    return G


class TestClassification:
    def test_ultrametric(self):
        m = mat(["a", "b", "c"], (0, 1, 2), (1, 0, 2), (2, 2, 0))
        assert m.axiom_class is AxiomClass.ULTRAMETRIC

    def test_metric_not_ultra(self):
        m = mat(["a", "b", "c"], (0, 1, 2), (1, 0, 3), (2, 3, 0))
        assert m.axiom_class is AxiomClass.METRIC

    def test_pseudometric_zero_offdiagonal(self):
        # the zero pair forces equal rows; the scalene a,c,d triple
        # (1,2,3 is additive-tight) blocks the strong inequality
        m = mat(
            ["a", "b", "c", "d"],
            (0, 0, 1, 2),
            (0, 0, 1, 2),
            (1, 1, 0, 3),
            (2, 2, 3, 0),
        )
        assert m.axiom_class is AxiomClass.PSEUDOMETRIC

    def test_pseudoultrametric(self):
        m = mat(["a", "b", "c"], (0, 0, 2), (0, 0, 2), (2, 2, 0))
        assert m.axiom_class is AxiomClass.PSEUDOULTRAMETRIC

    def test_none_triangle_violation(self):
        m = mat(["a", "b", "c"], (0, 5, 1), (5, 0, 1), (1, 1, 0))
        assert m.axiom_class is AxiomClass.NONE

    def test_none_asymmetric(self):
        m = mat(["a", "b"], (0, 1), (2, 0))
        assert m.axiom_class is AxiomClass.NONE

    def test_none_nonzero_diagonal(self):
        m = mat(["a", "b"], (1, 1), (1, 0))
        assert m.axiom_class is AxiomClass.NONE

    def test_satisfies_lattice(self):
        assert AxiomClass.ULTRAMETRIC.satisfies(AxiomClass.PSEUDOMETRIC)
        assert AxiomClass.METRIC.satisfies(AxiomClass.PSEUDOMETRIC)
        assert not AxiomClass.METRIC.satisfies(AxiomClass.PSEUDOULTRAMETRIC)
        assert not AxiomClass.PSEUDOULTRAMETRIC.satisfies(AxiomClass.METRIC)
        assert AxiomClass.ULTRAMETRIC.satisfies(AxiomClass.ULTRAMETRIC)
        assert not AxiomClass.NONE.satisfies(AxiomClass.PSEUDOMETRIC)

    def test_factory_rejects_bad_shapes(self):
        with pytest.raises(ug.VertexMismatchError):
            ug.distance_matrix(["a", "a"], [[0, 1], [1, 0]])
        with pytest.raises(ug.VertexMismatchError):
            ug.distance_matrix(["a", "b"], [[0, 1]])
        with pytest.raises(ug.VertexMismatchError):
            ug.distance_matrix([], [])

    def test_entry_lookup(self):
        m = mat(["a", "b"], (0, 7), (7, 0))
        assert m.entry("a", "b") == 7
        assert m.entry("b", "b") == 0


class TestValidate:
    def test_pass(self):
        m = mat(["a", "b", "c"], (0, 1, 2), (1, 0, 2), (2, 2, 0))
        v = ug.validate(m, AxiomClass.ULTRAMETRIC)
        assert v
        assert v is ug.PASS

    def test_asymmetry_witness(self):
        m = mat(["a", "b"], (0, 1), (2, 0))
        v = ug.validate(m, AxiomClass.PSEUDOMETRIC)
        assert not v
        assert v.kind == "asymmetry"
        assert v.witness == ("a", "b")

    def test_diagonal_witness(self):
        m = mat(["a", "b"], (0, 1), (1, 3))
        v = ug.validate(m, AxiomClass.PSEUDOMETRIC)
        assert v.kind == "nonzero-diagonal"
        assert v.witness == ("b",)

    def test_strong_triangle_witness(self):
        m = mat(["a", "b", "c"], (0, 1, 2), (1, 0, 3), (2, 3, 0))
        v = ug.validate(m, AxiomClass.PSEUDOULTRAMETRIC)
        assert not v
        assert v.kind == "strong-triangle"
        x, z, y = v.witness
        assert m.entry(x, y) > max(m.entry(x, z), m.entry(z, y))

    def test_additive_triangle_witness(self):
        m = mat(["a", "b", "c"], (0, 5, 1), (5, 0, 1), (1, 1, 0))
        v = ug.validate(m, AxiomClass.PSEUDOMETRIC)
        assert v.kind == "triangle"
        x, z, y = v.witness
        assert m.entry(x, y) > m.entry(x, z) + m.entry(z, y)

    def test_zero_offdiagonal_witness(self):
        m = mat(["a", "b"], (0, 0), (0, 0))
        assert ug.validate(m, AxiomClass.PSEUDOMETRIC)
        v = ug.validate(m, AxiomClass.METRIC)
        assert v.kind == "zero-off-diagonal"
        assert v.witness == ("a", "b")

    def test_none_target_only_checks_shape(self):
        m = mat(["a", "b", "c"], (0, 5, 1), (5, 0, 1), (1, 1, 0))
        assert ug.validate(m, AxiomClass.NONE)


class TestSubdominant:
    def test_triangle(self):
        m = ug.subdominant_matrix(triangle123())
        assert m.entry("a", "b") == 1
        assert m.entry("a", "c") == 2
        assert m.entry("b", "c") == 2
        assert m.axiom_class is AxiomClass.ULTRAMETRIC

    def test_single_edge(self):
        g = ug.build_graph(["a", "b"], [("a", "b", 5)])
        assert ug.subdominant_matrix(g).entry("a", "b") == 5

    def test_zero_weights_give_pseudo(self):
        g = ug.build_graph(
            ["a", "b", "c"], [("a", "b", 0), ("b", "c", 0)]
        )
        m = ug.subdominant_matrix(g)
        assert m.entry("a", "c") == 0
        assert m.axiom_class is AxiomClass.PSEUDOULTRAMETRIC

    def test_disconnected_rejected(self):
        g = ug.build_graph(["a", "b", "c"], [("a", "b", 1)])
        with pytest.raises(ug.DisconnectedError):
            ug.subdominant_matrix(g)

    def test_positive_weights_give_ultrametric(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_connected_graph(rng, 2, 7)
            if any(w == 0 for *_, w in g.weighted_edges()):
                continue
            assert ug.subdominant_matrix(g).axiom_class is AxiomClass.ULTRAMETRIC

    def test_agrees_with_minimax_over_spanning_trees(self):
        # The bottleneck distance is realized on any minimum spanning
        # tree, so the max edge on the tree path must reproduce every
        # entry, whichever algorithm built the tree.
        rng = random.Random(11)
        for _ in range(20):
            g = random_connected_graph(rng, 3, 8)
            m = ug.subdominant_matrix(g)
            G = to_nx(g)
            for algo in ("kruskal", "prim"):
                T = nx.minimum_spanning_tree(G, algorithm=algo)
                for i, u in enumerate(g.vertices):
                    for v in g.vertices[i + 1:]:
                        walk = nx.shortest_path(T, u, v)
                        top = max(
                            T[a][b]["weight"] for a, b in zip(walk, walk[1:])
                        )
                        assert m.entry(u, v) == top


class TestShortestPath:
    def test_triangle(self):
        m = ug.shortest_path_matrix(triangle123())
        assert m.entry("a", "c") == 3
        assert m.axiom_class is AxiomClass.METRIC

    def test_detour_wins(self):
        g = ug.build_graph(
            ["a", "b", "c"], [("a", "b", 1), ("b", "c", 1), ("a", "c", 5)]
        )
        assert ug.shortest_path_matrix(g).entry("a", "c") == 2

    def test_zero_chain_collapses(self):
        g = ug.build_graph(["a", "b", "c"], [("a", "b", 0), ("b", "c", 0)])
        m = ug.shortest_path_matrix(g)
        assert m.entry("a", "c") == 0
        assert m.axiom_class is AxiomClass.PSEUDOULTRAMETRIC

    def test_zero_edge_with_additive_tail(self):
        g = ug.build_graph(
            ["a", "b", "c", "d"],
            [("a", "b", 0), ("b", "c", 1), ("c", "d", 2)],
        )
        m = ug.shortest_path_matrix(g)
        assert m.entry("a", "d") == 3
        assert m.axiom_class is AxiomClass.PSEUDOMETRIC

    def test_disconnected_rejected(self):
        g = ug.build_graph(["a", "b", "c"], [("a", "b", 1)])
        with pytest.raises(ug.DisconnectedError):
            ug.shortest_path_matrix(g)

    def test_exact_fractions(self):
        g = ug.build_graph(
            ["a", "b", "c"],
            [("a", "b", "1/3"), ("b", "c", "1/6"), ("a", "c", "2/3")],
        )
        assert ug.shortest_path_matrix(g).entry("a", "c") == Fraction(1, 2)


class TestCompare:
    def test_first_less(self):
        g = triangle123()
        rho = ug.subdominant_matrix(g)
        d = ug.shortest_path_matrix(g)
        assert ug.compare(rho, d) is PartialOrderResult.FIRST_LESS
        assert ug.compare(d, rho) is PartialOrderResult.SECOND_LESS

    def test_equal(self):
        m1 = mat(["a", "b"], (0, 1), (1, 0))
        m2 = mat(["a", "b"], (0, 1), (1, 0))
        assert ug.compare(m1, m2) is PartialOrderResult.EQUAL

    def test_incomparable(self):
        m1 = mat(["a", "b", "c"], (0, 0, 1), (0, 0, 1), (1, 1, 0))
        m2 = mat(["a", "b", "c"], (0, 1, 0), (1, 0, 1), (0, 1, 0))
        assert ug.compare(m1, m2) is PartialOrderResult.INCOMPARABLE

    def test_vertex_mismatch(self):
        m1 = mat(["a", "b"], (0, 1), (1, 0))
        m2 = mat(["a", "c"], (0, 1), (1, 0))
        with pytest.raises(ug.VertexMismatchError):
            ug.compare(m1, m2)


class TestQuotient:
    def test_identity_on_ultrametric(self):
        m = mat(["a", "b", "c"], (0, 1, 2), (1, 0, 2), (2, 2, 0))
        parts, q = ug.quotient(m)
        assert parts.blocks == (("a",), ("b",), ("c",))
        assert q == m

    def test_collapses_zero_pair(self):
        m = mat(["x", "y", "z"], (0, 0, 2), (0, 0, 2), (2, 2, 0))
        parts, q = ug.quotient(m)
        assert parts.blocks == (("x", "y"), ("z",))
        assert q.vertices == ("x", "z")
        assert q.entry("x", "z") == 2
        assert q.axiom_class is AxiomClass.ULTRAMETRIC

    def test_all_zero(self):
        m = mat(["a", "b", "c"], (0, 0, 0), (0, 0, 0), (0, 0, 0))
        parts, q = ug.quotient(m)
        assert parts.blocks == (("a", "b", "c"),)
        assert q.vertices == ("a",)

    def test_requires_pseudoultrametric(self):
        m = mat(["a", "b", "c"], (0, 1, 2), (1, 0, 3), (2, 3, 0))
        with pytest.raises(ug.NotPseudoultrametricError):
            ug.quotient(m)


class TestDendrogram:
    def test_two_level_tree(self):
        m = mat(["a", "b", "c"], (0, 1, 2), (1, 0, 2), (2, 2, 0))
        d = ug.dendrogram(m)
        assert d.height == 1
        inner, leaf = d.children
        assert inner.height == Fraction(1, 2)
        assert sorted(inner.leaves()) == ["a", "b"]
        assert leaf.label == "c"
        assert leaf.height == 0

    def test_simultaneous_merge_is_multiway(self):
        m = mat(["a", "b", "c"], (0, 2, 2), (2, 0, 2), (2, 2, 0))
        d = ug.dendrogram(m)
        assert d.height == 1
        assert [ch.label for ch in d.children] == ["a", "b", "c"]

    def test_two_points(self):
        m = mat(["a", "b"], (0, 3), (3, 0))
        d = ug.dendrogram(m)
        assert d.height == Fraction(3, 2)
        assert [ch.label for ch in d.children] == ["a", "b"]

    def test_children_ordered_by_min_leaf(self):
        m = mat(["d", "c", "a"], (0, 1, 2), (1, 0, 2), (2, 2, 0))
        d = ug.dendrogram(m)
        assert d.children[0].label == "a"
        assert sorted(d.children[1].leaves()) == ["c", "d"]

    def test_single_point(self):
        m = ug.distance_matrix(["a"], [[0]])
        d = ug.dendrogram(m)
        assert d.is_leaf() and d.label == "a"

    def test_requires_ultrametric(self):
        m = mat(["a", "b", "c"], (0, 0, 2), (0, 0, 2), (2, 2, 0))
        with pytest.raises(ug.NotUltrametricError):
            ug.dendrogram(m)

    def test_round_trip_exact(self):
        rng = random.Random(3)
        for _ in range(15):
            names = [f"v{i}" for i in range(rng.randint(1, 8))]
            m = random_ultrametric(rng, names)
            d = ug.dendrogram(m)
            back = ug.matrix_from_dendrogram(d, m.vertices)
            assert back == m

    def test_round_trip_default_order(self):
        m = mat(["b", "a"], (0, 3), (3, 0))
        back = ug.matrix_from_dendrogram(ug.dendrogram(m))
        assert set(back.vertices) == {"a", "b"}
        assert back.entry("a", "b") == 3

    def test_eq_hash_repr_match_the_dataclass_forms(self):
        # The dataclass-generated methods, the reference for the
        # non-recursive ones.
        @dataclass(frozen=True)
        class Dendrogram:
            height: Fraction
            children: tuple
            label: str | None = None

        Dendrogram.__qualname__ = "Dendrogram"

        def plain(d):
            return Dendrogram(d.height, tuple(map(plain, d.children)), d.label)

        rng = random.Random(5)
        for _ in range(15):
            names = [f"v{i}" for i in range(rng.randint(1, 8))]
            d = ug.dendrogram(random_ultrametric(rng, names))
            assert repr(d) == repr(plain(d))
            twin = ug.dendrogram(random_ultrametric(rng, names))
            assert (d == twin) == (plain(d) == plain(twin))
            copy = ug.Dendrogram(d.height, d.children, d.label)
            assert d == copy and hash(d) == hash(copy)
        assert ug.dendrogram(mat(["a"], (0,))) != "a"

    def test_deep_tree_compares_hashes_and_prints(self):
        n = 1500
        assert sys.getrecursionlimit() < n
        edges = [(f"v{k - 1}", f"v{k}", k) for k in range(1, n)]
        g = ug.build_graph([f"v{k}" for k in range(n)], edges)
        d, d2 = ug.subdominant_dendrogram(g), ug.subdominant_dendrogram(g)
        assert d is not d2 and d == d2 and hash(d) == hash(d2)
        assert repr(d) == repr(d2)
        assert repr(d).count("Dendrogram(") == 2 * n - 1
        edges[-1] = ("v1498", "v1499", n)
        other = ug.subdominant_dendrogram(ug.build_graph(g.vertices, edges))
        assert d != other

    def test_from_dendrogram_rejects_bad_leaf_set(self):
        m = mat(["a", "b"], (0, 3), (3, 0))
        d = ug.dendrogram(m)
        with pytest.raises(ug.VertexMismatchError):
            ug.matrix_from_dendrogram(d, ["a", "z"])


class TestBetweennessExponent:
    def test_tight_triangle_is_one(self):
        m = mat(["a", "b", "c"], (0, 2, 1), (2, 0, 1), (1, 1, 0))
        assert ug.betweenness_exponent(m) == 1.0

    def test_isosceles_root(self):
        m = mat(
            ["a", "b", "c"],
            (0, Fraction(3, 2), 1),
            (Fraction(3, 2), 0, 1),
            (1, 1, 0),
        )
        expected = math.log(2) / math.log(Fraction(3, 2))
        assert abs(ug.betweenness_exponent(m) - expected) <= 1e-8

    def test_ultrametric_is_infinite(self):
        m = mat(["a", "b", "c"], (0, 1, 2), (1, 0, 2), (2, 2, 0))
        assert ug.betweenness_exponent(m) == ug.INFINITE_EXPONENT
        assert math.isinf(ug.betweenness_exponent(m))

    def test_infinite_iff_pseudoultrametric(self):
        rng = random.Random(19)
        for _ in range(20):
            g = random_connected_graph(rng, 2, 6)
            m = ug.shortest_path_matrix(g)
            alpha = ug.betweenness_exponent(m)
            is_ultra = m.axiom_class.satisfies(AxiomClass.PSEUDOULTRAMETRIC)
            assert (alpha == ug.INFINITE_EXPONENT) == is_ultra

    def triangle_346(self):
        g = ug.build_graph(
            ["a", "b", "c"], [("a", "b", 3), ("b", "c", 4), ("a", "c", 6)]
        )
        return ug.shortest_path_matrix(g)

    def test_triangle_346(self):
        assert abs(ug.betweenness_exponent(self.triangle_346()) - 1.2931741) <= 1e-6

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol"):
            ug.betweenness_exponent(self.triangle_346(), tol=tol)

    def test_requires_pseudometric(self):
        m = mat(["a", "b", "c"], (0, 5, 1), (5, 0, 1), (1, 1, 0))
        with pytest.raises(ug.NotPseudometricError):
            ug.betweenness_exponent(m)

    def test_minimum_over_triples(self):
        # two constraining triples; the tight one (exponent 1) wins
        m = mat(
            ["a", "b", "c", "d"],
            (0, 2, 1, 2),
            (2, 0, 1, 2),
            (1, 1, 0, Fraction(3, 2)),
            (2, 2, Fraction(3, 2), 0),
        )
        assert ug.betweenness_exponent(m) == 1.0


class TestMatrixToCompleteGraph:
    def test_round_trip_entries(self):
        m = mat(["a", "b", "c"], (0, 1, 2), (1, 0, 2), (2, 2, 0))
        g = ug.matrix_to_complete_graph(m)
        assert g.vertices == m.vertices
        assert g.edge_count() == 3
        assert g.weight("a", "c") == 2
        back = ug.subdominant_matrix(g)
        assert back == m

    def test_zero_entries_become_zero_edges(self):
        m = mat(["a", "b"], (0, 0), (0, 0))
        g = ug.matrix_to_complete_graph(m)
        assert g.weight("a", "b") == 0

    def test_single_point(self):
        m = ug.distance_matrix(["a"], [[0]])
        g = ug.matrix_to_complete_graph(m)
        assert g.vertices == ("a",)
        assert g.edge_count() == 0


class TestRankArray:
    def test_is_readonly(self):
        m = mat(["a", "b"], (0, 1), (1, 0))
        arr = m.rank_array()
        with pytest.raises(ValueError):
            arr[0, 0] = 5

    def test_order_isomorphic(self):
        m = mat(["a", "b", "c"], (0, "1/2", 3), ("1/2", 0, 1), (3, 1, 0))
        arr = m.rank_array()
        assert arr[0][1] < arr[1][2] < arr[0][2]
        assert arr[0][0] == arr[1][1] == arr[2][2]
