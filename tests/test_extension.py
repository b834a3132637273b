"""Extendability, the greatest and least extensions, uniqueness, and the
pair families (twice-max and well-chained) that drive them."""

import random
from fractions import Fraction
from unittest import mock

import pytest

import ultragraph as ug
from ultragraph import AxiomClass, extension, graph, metrics, oracle
from ultragraph.extension import _block_forest

from corpus import named_twice_max_analysis, random_connected_graph, random_multipartite


def triangle123():
    return ug.build_graph(
        ["a", "b", "c"], [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)]
    )


def unit_c4():
    return ug.build_graph(
        ["a", "b", "c", "d"],
        [("a", "b", 1), ("b", "c", 1), ("c", "d", 1), ("a", "d", 1)],
    )


def alternating_c4():
    return ug.build_graph(
        ["a", "b", "c", "d"],
        [("a", "b", 1), ("b", "c", 2), ("c", "d", 1), ("a", "d", 2)],
    )


def paw():
    # triangle u,v,q with a pendant p hanging off q, all weights 1
    return ug.build_graph(
        ["u", "v", "q", "p"],
        [("u", "v", 1), ("u", "q", 1), ("v", "q", 1), ("q", "p", 1)],
    )


class TestExtendability:
    def test_scalene_triangle_fails_with_witness(self):
        rep = ug.is_pseudoultrametrizable(triangle123())
        assert not rep.pseudoultrametrizable
        c = rep.witness
        c.validate_in(triangle123())
        assert len(c.max_weight_edges(triangle123())) == 1

    def test_isosceles_triangle_passes(self):
        g = ug.build_graph(
            ["a", "b", "c"], [("a", "b", 1), ("b", "c", 2), ("a", "c", 2)]
        )
        rep = ug.is_pseudoultrametrizable(g)
        assert rep.pseudoultrametrizable
        assert rep.witness is None

    def test_forest_always_passes(self):
        g = ug.build_graph(
            ["a", "b", "c"], [("a", "b", 1), ("b", "c", 100)]
        )
        assert ug.is_pseudoultrametrizable(g).pseudoultrametrizable

    def test_agrees_with_oracle_on_random_graphs(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_connected_graph(rng, 2, 7)
            rep = ug.is_pseudoultrametrizable(g)
            assert rep.pseudoultrametrizable == oracle.oracle_cycle_condition(g)
            if not rep.pseudoultrametrizable:
                rep.witness.validate_in(g)
                assert len(rep.witness.max_weight_edges(g)) == 1

    def test_disconnected_graph_is_judged_per_cycle(self):
        g = ug.build_graph(
            ["a", "b", "c", "x", "y"],
            [("a", "b", 1), ("b", "c", 2), ("a", "c", 3), ("x", "y", 1)],
        )
        assert not ug.is_pseudoultrametrizable(g).pseudoultrametrizable


class TestGreatestExtension:
    def test_matches_weights_on_edges(self):
        g = ug.build_graph(
            ["a", "b", "c"], [("a", "b", 1), ("b", "c", 2), ("a", "c", 2)]
        )
        m = ug.greatest_extension(g)
        for u, v, w in g.weighted_edges():
            assert m.entry(u, v) == w

    def test_star_fills_in_maximum(self):
        g = ug.build_graph(
            ["z", "x", "y"], [("z", "x", 1), ("z", "y", 3)]
        )
        m = ug.greatest_extension(g)
        assert m.entry("x", "y") == 3
        assert m.axiom_class is AxiomClass.ULTRAMETRIC

    def test_rejects_non_extendable(self):
        with pytest.raises(ug.NotExtendableError):
            ug.greatest_extension(triangle123())

    def test_rejects_disconnected(self):
        g = ug.build_graph(["a", "b", "c"], [("a", "b", 1)])
        with pytest.raises(ug.DisconnectedError):
            ug.greatest_extension(g)

    def test_is_the_subdominant(self):
        g = unit_c4()
        assert ug.greatest_extension(g) == ug.subdominant_matrix(g)

    def test_disconnection_is_reported_before_a_unique_maximum(self):
        g = ug.build_graph(["a", "b", "c", "d"], [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)])
        with pytest.raises(ug.DisconnectedError) as excinfo:
            ug.greatest_extension(g)
        assert (excinfo.value.u, excinfo.value.v) == ("a", "d")

    @pytest.mark.parametrize("g", [unit_c4(), triangle123()])
    def test_searches_components_once(self, g):
        searches = mock.Mock(wraps=graph.connected_components)
        with mock.patch.object(metrics, "connected_components", searches), \
                mock.patch.object(extension, "connected_components", searches):
            try:
                ug.greatest_extension(g)
            except ug.NotExtendableError as exc:
                assert exc.witness == ug.is_pseudoultrametrizable(g).witness
        assert searches.call_count == 1


class TestTwiceMaxPairs:
    def test_unit_four_cycle(self):
        assert ug.twice_max_pairs(unit_c4()) == frozenset(
            {("a", "c"), ("b", "d")}
        )

    def test_alternating_four_cycle_empty(self):
        assert ug.twice_max_pairs(alternating_c4()) == frozenset()

    def test_paw(self):
        assert ug.twice_max_pairs(paw()) == frozenset(
            {("u", "p"), ("v", "p")}
        )

    def test_detour_below_the_bar(self):
        # p-a-q is the only two-edge route and its maximum is unique,
        # yet both endpoints sit in one component below that weight;
        # deciding this pair needs the two-disjoint-paths probe.
        g = ug.build_graph(
            ["p", "a", "b", "q"],
            [("p", "a", 1), ("a", "q", 2), ("a", "b", 1), ("b", "q", 1)],
        )
        assert ug.twice_max_pairs(g) == frozenset()
        assert oracle.oracle_twice_max(g) == frozenset()

    def test_bottleneck_vertex_keeps_pair_in(self):
        # every route from p or q to the heavy edge xy runs through m,
        # so no two disjoint routes exist and {p,q} stays in the family
        g = ug.build_graph(
            ["m", "p", "q", "x", "y"],
            [
                ("p", "m", 1), ("q", "m", 1),
                ("x", "m", 1), ("y", "m", 1), ("x", "y", 2),
            ],
        )
        assert ug.twice_max_pairs(g) == frozenset({("p", "q")})
        assert oracle.oracle_twice_max(g) == frozenset({("p", "q")})

    def test_pair_hanging_off_a_cut_vertex_of_the_heavy_edges_path(self):
        # Below 2, x-{x,a,c}-c-{c,b}-b-{b,y}-y is the forest path of the
        # heavy edge xy. p (in block {c,p,s}) and q (bridge cq) hang off
        # its cut vertex c, so no simple p-q route uses xy; b sits on the
        # path, so p-c-x-y-b is a route with the unique maximum 2.
        g = ug.build_graph(
            ["x", "a", "c", "b", "y", "p", "s", "q"],
            [
                ("x", "a", 1), ("a", "c", 1), ("x", "c", 1), ("c", "b", 1),
                ("b", "y", 1), ("c", "p", 1), ("p", "s", 1), ("s", "c", 1),
                ("c", "q", 1), ("x", "y", 2),
            ],
        )
        pairs, values = named_twice_max_analysis(g)
        assert ("p", "q") in pairs
        assert ("b", "p") not in pairs and values[("b", "p")] == 2
        assert pairs == oracle.oracle_twice_max(g)

    @pytest.mark.parametrize("detour, hit", [(False, False), (True, True)])
    def test_pair_containing_an_endpoint_of_the_heavy_edge(self, detour, hit):
        # The pair {x,q} shares x with the heavy edge xy. It is hit iff q
        # reaches y below 2 without passing x, here through the edge mn.
        edges = [("q", "m", 1), ("m", "x", 1), ("x", "n", 1), ("n", "y", 1), ("x", "y", 2)]
        g = ug.build_graph(["x", "q", "m", "n", "y"], edges + [("m", "n", 1)] * detour)
        pairs, values = named_twice_max_analysis(g)
        assert (("x", "q") not in pairs) == hit
        assert values.get(("x", "q")) == (2 if hit else None)
        assert pairs == oracle.oracle_twice_max(g)

    def test_heavy_edges_between_components_of_the_lighter_graph(self):
        # Below 2 there are three components A = a1-a0-a2, B = b1-b0-b2
        # and C = {c}; level 2 joins A to B and A to C, never B to C.
        g = ug.build_graph(
            ["a0", "a1", "a2", "b0", "b1", "b2", "c"],
            [
                ("a1", "a0", 1), ("a0", "a2", 1), ("b1", "b0", 1),
                ("b0", "b2", 1), ("a1", "b1", 2), ("a0", "c", 2),
            ],
        )
        pairs, values = named_twice_max_analysis(g)
        assert values[("a2", "b2")] == values[("a2", "c")] == 2
        assert ("a1", "a2") in pairs  # one component: the bridge cannot help
        assert ("b2", "c") in pairs  # no level-2 edge joins B and C
        assert pairs == oracle.oracle_twice_max(g)

    def test_block_forest_of_a_path_deeper_than_the_recursion_limit(self):
        # Every edge of a path is a block of its own, entered from the
        # vertex before it.
        n = 5000
        adj = [[i - 1, i + 1] for i in range(n)]
        adj[0], adj[-1] = [1], [n - 2]
        parent, order, disc = _block_forest(adj)
        assert order == disc == list(range(n))
        assert len(parent) == 2 * n - 1 and parent[0] == -1
        for v in range(1, n):
            assert parent[parent[v]] == v - 1

    def test_disconnected_rejected(self):
        g = ug.build_graph(["a", "b", "c"], [("a", "b", 1)])
        with pytest.raises(ug.DisconnectedError):
            ug.twice_max_pairs(g)

    def test_agrees_with_oracle_on_random_graphs(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_connected_graph(rng, 2, 7)
            assert ug.twice_max_pairs(g) == oracle.oracle_twice_max(g)


class TestWellChainedPairs:
    def test_zero_path(self):
        g = ug.build_graph(
            ["a", "b", "c"], [("a", "b", 0), ("b", "c", 0)]
        )
        assert ug.well_chained_pairs(g) == frozenset({("a", "c")})

    def test_positive_weights_have_none(self):
        assert ug.well_chained_pairs(unit_c4()) == frozenset()

    def test_zero_edge_adjacent_pair_not_included(self):
        g = ug.build_graph(["a", "b"], [("a", "b", 0)])
        assert ug.well_chained_pairs(g) == frozenset()

    def test_mixed_weights(self):
        g = ug.build_graph(
            ["a", "b", "c", "d"],
            [("a", "b", 0), ("b", "c", 0), ("c", "d", 1), ("a", "d", 1)],
        )
        assert ug.well_chained_pairs(g) == frozenset({("a", "c")})


class TestLeastExtension:
    def test_unit_four_cycle_zeroes_the_diagonals(self):
        m = ug.least_extension(unit_c4())
        assert m.entry("a", "c") == 0
        assert m.entry("b", "d") == 0
        assert m.entry("a", "b") == 1
        assert m.axiom_class is AxiomClass.PSEUDOULTRAMETRIC

    def test_alternating_four_cycle(self):
        m = ug.least_extension(alternating_c4())
        assert m.entry("a", "c") == 2
        assert m.entry("b", "d") == 2
        assert m == ug.greatest_extension(alternating_c4())

    def test_least_below_greatest(self):
        rng = random.Random(43)
        for _ in range(25):
            g = random_multipartite(rng)
            lo = ug.least_extension(g)
            hi = ug.greatest_extension(g)
            assert ug.compare(lo, hi) in (
                ug.PartialOrderResult.EQUAL,
                ug.PartialOrderResult.FIRST_LESS,
            )
            for u, v, w in g.weighted_edges():
                assert lo.entry(u, v) == w

    def test_rejects_non_multipartite(self):
        with pytest.raises(ug.NotCompleteMultipartiteError):
            ug.least_extension(paw())

    def test_rejects_edgeless(self):
        g = ug.build_graph(["a", "b"], [])
        with pytest.raises(ug.NotCompleteMultipartiteError):
            ug.least_extension(g)

    def test_rejects_non_extendable_weighting(self):
        g = ug.build_graph(
            ["a", "b", "c", "d"],
            [("a", "b", 1), ("b", "c", 2), ("c", "d", 1), ("a", "d", 3)],
        )
        with pytest.raises(ug.NotExtendableError):
            ug.least_extension(g)


class TestUniqueness:
    def test_alternating_four_cycle_unique(self):
        assert ug.is_unique_extension(alternating_c4())

    def test_unit_four_cycle_not_unique(self):
        assert not ug.is_unique_extension(unit_c4())

    def test_tree_with_light_middle_edge(self):
        g = ug.build_graph(
            ["a", "b", "c", "d"],
            [("a", "b", 1), ("b", "c", "1/2"), ("c", "d", 1)],
        )
        assert ug.twice_max_pairs(g) == frozenset({("a", "d")})
        assert ug.well_chained_pairs(g) == frozenset()
        assert not ug.is_unique_extension(g)

    def test_zero_chain_is_unique(self):
        g = ug.build_graph(
            ["a", "b", "c"], [("a", "b", 0), ("b", "c", 0)]
        )
        assert ug.is_unique_extension(g)

    def test_single_edge_unique(self):
        g = ug.build_graph(["a", "b"], [("a", "b", 4)])
        assert ug.is_unique_extension(g)

    def test_non_extendable_rejected(self):
        with pytest.raises(ug.NotExtendableError):
            ug.is_unique_extension(triangle123())


class TestAugment:
    def test_bridges_to_hub(self):
        g = ug.build_graph(
            ["a", "b", "x", "y"], [("a", "b", 1), ("x", "y", 1)]
        )
        h = ug.augment(g, 0, {1: 5})
        assert ug.is_connected(h)
        assert h.weight("a", "x") == 5
        assert h.edge_count() == 3

    def test_three_components(self):
        g = ug.build_graph(
            ["a", "x", "p", "q"], [("p", "q", 2)]
        )
        h = ug.augment(g, 2, {0: 1, 1: "1/2"})
        assert ug.is_connected(h)
        assert h.weight("a", "p") == 1
        assert h.weight("x", "p") == Fraction(1, 2)

    def test_already_connected_identity(self):
        g = unit_c4()
        assert ug.augment(g, 0) is g

    def test_preserves_cycles(self):
        g = ug.build_graph(
            ["a", "b", "c", "x", "y"],
            [("a", "b", 1), ("b", "c", 1), ("a", "c", 1), ("x", "y", 1)],
        )
        h = ug.augment(g, 0, {1: 7})
        before = {c.vertices for c in oracle.enumerate_simple_cycles(g)}
        after = {c.vertices for c in oracle.enumerate_simple_cycles(h)}
        assert before == after

    def test_preserves_extendability_both_ways(self):
        bad = ug.build_graph(
            ["a", "b", "c", "x"],
            [("a", "b", 1), ("b", "c", 2), ("a", "c", 3)],
        )
        h = ug.augment(bad, 0, {1: 1})
        assert not ug.is_pseudoultrametrizable(h).pseudoultrametrizable
        good = ug.build_graph(
            ["a", "b", "x", "y"], [("a", "b", 1), ("x", "y", 2)]
        )
        assert ug.is_pseudoultrametrizable(
            ug.augment(good, 1, {0: 3})
        ).pseudoultrametrizable

    def test_hub_index_out_of_range(self):
        g = ug.build_graph(["a", "b"], [("a", "b", 1)])
        with pytest.raises(ug.BadHubIndexError):
            ug.augment(g, 1)
        with pytest.raises(ug.BadHubIndexError):
            ug.augment(g, -1)

    def test_missing_constant(self):
        g = ug.build_graph(["a", "x"], [])
        with pytest.raises(ug.MissingConstantError):
            ug.augment(g, 0)

    def test_constant_for_hub_rejected(self):
        g = ug.build_graph(["a", "x"], [])
        with pytest.raises(ug.MissingConstantError):
            ug.augment(g, 0, {0: 1, 1: 2})

    def test_constant_for_unknown_component_rejected(self):
        g = ug.build_graph(["a", "x"], [])
        with pytest.raises(ug.MissingConstantError):
            ug.augment(g, 0, {1: 1, 5: 2})

    def test_negative_constant_rejected(self):
        g = ug.build_graph(["a", "x"], [])
        with pytest.raises(ug.NegativeWeightError):
            ug.augment(g, 0, {1: -1})
