"""Property-based checks pitting the fast implementations against the
brute-force oracles and against each other."""

import random
from fractions import Fraction
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import ultragraph as ug
from ultragraph import AxiomClass, PartialOrderResult, oracle

from corpus import disjoint_union, random_connected_graph, random_ultrametric

WEIGHTS = [
    Fraction(0),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(1),
    Fraction(1),
    Fraction(2),
    Fraction(2),
    Fraction(3),
]


@st.composite
def connected_graphs(draw, min_n=2, max_n=6):
    n = draw(st.integers(min_n, max_n))
    names = [f"v{i}" for i in range(n)]
    pairs = set()
    for i in range(1, n):
        pairs.add((draw(st.integers(0, i - 1)), i))
    all_pairs = list(combinations(range(n), 2))
    extras = draw(
        st.lists(st.sampled_from(all_pairs), max_size=len(all_pairs))
    )
    pairs.update(extras)
    edges = [
        (names[i], names[j], draw(st.sampled_from(WEIGHTS)))
        for i, j in sorted(pairs)
    ]
    return ug.build_graph(names, edges)


@st.composite
def ultrametrics(draw):
    rng = random.Random(draw(st.integers(0, 10**9)))
    n = draw(st.integers(1, 8))
    return random_ultrametric(rng, [f"v{i}" for i in range(n)])


@settings(max_examples=50, deadline=None)
@given(connected_graphs())
def test_subdominant_matches_oracle(g):
    m = ug.subdominant_matrix(g)
    for u in g.vertices:
        for v in g.vertices:
            if u != v:
                assert m.entry(u, v) == oracle.oracle_subdominant(g, u, v)


@settings(max_examples=50, deadline=None)
@given(connected_graphs())
def test_extendability_matches_oracle(g):
    rep = ug.is_pseudoultrametrizable(g)
    assert rep.pseudoultrametrizable == oracle.oracle_cycle_condition(g)
    if rep.witness is not None:
        rep.witness.validate_in(g)
        assert len(rep.witness.max_weight_edges(g)) == 1


@settings(max_examples=50, deadline=None)
@given(connected_graphs())
def test_twice_max_matches_oracle(g):
    assert ug.twice_max_pairs(g) == oracle.oracle_twice_max(g)


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_both_pseudometrics_sit_below_the_weights(g):
    rho = ug.subdominant_matrix(g)
    d = ug.shortest_path_matrix(g)
    assert ug.compare(rho, d) in (
        PartialOrderResult.EQUAL,
        PartialOrderResult.FIRST_LESS,
    )
    for u, v, w in g.weighted_edges():
        assert rho.entry(u, v) <= w
        assert d.entry(u, v) <= w


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_matrix_classes_hold_up_under_validate(g):
    rho = ug.subdominant_matrix(g)
    assert rho.axiom_class.satisfies(AxiomClass.PSEUDOULTRAMETRIC)
    assert ug.validate(rho, rho.axiom_class)
    d = ug.shortest_path_matrix(g)
    assert d.axiom_class.satisfies(AxiomClass.PSEUDOMETRIC)
    assert ug.validate(d, d.axiom_class)


@settings(max_examples=60, deadline=None)
@given(connected_graphs())
def test_strong_triangle_holds_entrywise(g):
    # direct Fraction comparisons, independent of the classifier
    m = ug.subdominant_matrix(g)
    names = m.vertices
    for x, y, z in combinations(names, 3):
        assert m.entry(x, y) <= max(m.entry(x, z), m.entry(z, y))
        assert m.entry(x, z) <= max(m.entry(x, y), m.entry(y, z))
        assert m.entry(y, z) <= max(m.entry(y, x), m.entry(x, z))


@settings(max_examples=50, deadline=None)
@given(connected_graphs())
def test_shortest_path_dominates_nothing_it_should_not(g):
    # min-sum distance recomputed by brute-force path enumeration
    d = ug.shortest_path_matrix(g)
    for i, u in enumerate(g.vertices):
        for v in g.vertices[i + 1:]:
            best = min(
                p.total_weight(g)
                for p in oracle.enumerate_simple_paths(g, u, v)
            )
            assert d.entry(u, v) == best


@settings(max_examples=40, deadline=None)
@given(ultrametrics())
def test_dendrogram_round_trip(m):
    d = ug.dendrogram(m)
    assert ug.matrix_from_dendrogram(d, m.vertices) == m
    assert sorted(d.leaves()) == sorted(m.vertices)


@st.composite
def corpus_graphs(draw):
    return random_connected_graph(random.Random(draw(st.integers(0, 10**9))), 1, 8)


@settings(max_examples=60, deadline=None)
@given(corpus_graphs())
def test_subdominant_dendrogram_matches_oracle(g):
    rows = [[oracle.oracle_subdominant(g, u, v) for v in g.vertices] for u in g.vertices]
    _, q = ug.quotient(ug.distance_matrix(g.vertices, rows))
    d = ug.subdominant_dendrogram(g)
    assert ug.matrix_from_dendrogram(d, q.vertices) == q
    assert d == ug.dendrogram(q)


@settings(max_examples=30, deadline=None)
@given(corpus_graphs(), corpus_graphs())
def test_subdominant_dendrogram_rejects_disconnected(g1, g2):
    g = disjoint_union(g1, g2)
    with pytest.raises(ug.DisconnectedError) as tree_exc:
        ug.subdominant_dendrogram(g)
    with pytest.raises(ug.DisconnectedError) as matrix_exc:
        ug.subdominant_matrix(g)
    assert (tree_exc.value.u, tree_exc.value.v) == (matrix_exc.value.u, matrix_exc.value.v)


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_quotient_produces_the_ultrametric_of_the_classes(g):
    rho = ug.subdominant_matrix(g)
    parts, q = ug.quotient(rho)
    assert q.axiom_class.satisfies(AxiomClass.ULTRAMETRIC) or len(q.vertices) == 1
    # distances between class representatives survive the collapse
    for block_a in parts.blocks:
        for block_b in parts.blocks:
            assert q.entry(block_a[0], block_b[0]) == rho.entry(
                block_a[0], block_b[0]
            )
    # within a class every distance is zero
    for block in parts.blocks:
        for a in block:
            for b in block:
                assert rho.entry(a, b) == 0


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_exponent_infinite_exactly_on_pseudoultrametrics(g):
    d = ug.shortest_path_matrix(g)
    alpha = ug.betweenness_exponent(d)
    assert (alpha == ug.INFINITE_EXPONENT) == d.axiom_class.satisfies(
        AxiomClass.PSEUDOULTRAMETRIC
    )
    if alpha != ug.INFINITE_EXPONENT:
        assert 1.0 <= alpha


@settings(max_examples=50, deadline=None)
@given(connected_graphs())
def test_edge_list_round_trip(g):
    text = ug.emit_edge_list(g)
    back = ug.parse_edge_list(text)
    assert back.vertices == g.vertices
    assert list(back.weighted_edges()) == list(g.weighted_edges())
    assert ug.emit_edge_list(back) == text


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), st.sampled_from(["json", "csv"]))
def test_matrix_round_trip(g, fmt):
    m = ug.subdominant_matrix(g)
    text = ug.emit_matrix(m, fmt)
    back = ug.parse_matrix(text, fmt)
    assert back == m
    assert ug.emit_matrix(back, fmt) == text


@settings(max_examples=30, deadline=None)
@given(connected_graphs(max_n=4), connected_graphs(max_n=4), st.sampled_from(WEIGHTS))
def test_augment_bridges_without_new_cycles(g1, g2, w):
    g = ug.build_graph(
        list(g1.vertices) + [v + "x" for v in g2.vertices],
        list(g1.weighted_edges())
        + [(u + "x", v + "x", wt) for u, v, wt in g2.weighted_edges()],
    )
    h = ug.augment(g, 0, {1: w})
    assert ug.is_connected(h)
    assert h.edge_count() == g.edge_count() + 1
    before = {c.vertices for c in oracle.enumerate_simple_cycles(g)}
    after = {c.vertices for c in oracle.enumerate_simple_cycles(h)}
    assert before == after
    assert (
        ug.is_pseudoultrametrizable(h).pseudoultrametrizable
        == ug.is_pseudoultrametrizable(g).pseudoultrametrizable
    )


@settings(max_examples=40, deadline=None)
@given(connected_graphs(), st.data())
def test_extendability_is_hereditary(g, data):
    # a graph that extends keeps extending on every induced subgraph;
    # a failure witness stays a failure on the subgraph it spans
    rep = ug.is_pseudoultrametrizable(g)
    if rep.pseudoultrametrizable:
        subset = data.draw(
            st.lists(
                st.sampled_from(g.vertices), min_size=1, unique=True
            )
        )
        sub = ug.induced_subgraph(g, subset)
        assert ug.is_pseudoultrametrizable(sub).pseudoultrametrizable
    else:
        sub = ug.induced_subgraph(g, rep.witness.vertices)
        assert not ug.is_pseudoultrametrizable(sub).pseudoultrametrizable


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_unique_extension_criterion_from_first_principles(g):
    # uniqueness must agree with a direct oracle-level recomputation
    rep = ug.is_pseudoultrametrizable(g)
    if not rep.pseudoultrametrizable:
        return
    tm = oracle.oracle_twice_max(g)
    wch = ug.well_chained_pairs(g)
    assert ug.is_unique_extension(g) == tm.issubset(wch)
