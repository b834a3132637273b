"""Property-based checks pitting the fast implementations against the
brute-force oracles and against each other."""

import json
import random
import re
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import make_dataclass
from fractions import Fraction
from itertools import combinations, groupby, product
from operator import add, itemgetter
from unittest import mock

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

import ultragraph as ug
from ultragraph import AxiomClass, PartialOrderResult, Verdict, graph, io, metrics, oracle
from ultragraph.graph import _rescale
from ultragraph.metrics import _as_array, _scan_witness, _strong_triangle_holds

from corpus import (
    atlas_graphs,
    disjoint_union,
    edge_triples,
    from_networkx,
    named_twice_max_analysis,
    random_connected_graph,
    random_multipartite,
    random_ultrametric,
    random_weighting,
)

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


# The exact kernel under the min-sum layer, against the pure Fraction
# loops it replaced. ``wide`` runs it on the Fraction stand-ins it keeps
# when the lcm of the denominators is too wide to rescale by.


def stand_ins(wide):
    return mock.patch.object(graph, "_SCALE_BITS", 0) if wide else nullcontext()


def reference_triangle_witness(rows, bound=add):
    n = len(rows)
    for z in range(n):
        for x in range(n):
            for y in range(n):
                if rows[x][y] > bound(rows[x][z], rows[z][y]):
                    return (x, z, y)
    return None


def reference_recode_ranks(rows):
    n = len(rows)
    flat = [rows[i][j] for i in range(n) for j in range(n)]
    order = sorted(range(n * n), key=flat.__getitem__)
    ranks = [0] * (n * n)
    level = 0
    prev = flat[order[0]]
    for k in order:
        if flat[k] != prev:
            level += 1
            prev = flat[k]
        ranks[k] = level
    return np.asarray(ranks, dtype=np.int32).reshape(n, n)


def reference_validate(rows, names, target):
    n = len(rows)
    for i, j in combinations(range(n), 2):
        if rows[i][j] != rows[j][i]:
            return Verdict(False, "asymmetry", (names[i], names[j]))
    for i in range(n):
        if rows[i][i] != 0:
            return Verdict(False, "nonzero-diagonal", (names[i],))
    if target is AxiomClass.NONE:
        return ug.PASS
    if target in (AxiomClass.PSEUDOULTRAMETRIC, AxiomClass.ULTRAMETRIC):
        w, kind = reference_triangle_witness(rows, max), "strong-triangle"
    else:
        w, kind = reference_triangle_witness(rows), "triangle"
    if w:
        return Verdict(False, kind, tuple(names[k] for k in w))
    if target in (AxiomClass.METRIC, AxiomClass.ULTRAMETRIC):
        for i in range(n):
            for j in range(n):
                if i != j and rows[i][j] == 0:
                    return Verdict(False, "zero-off-diagonal", (names[i], names[j]))
    return ug.PASS


STRONGEST_FIRST = [
    AxiomClass.ULTRAMETRIC,
    AxiomClass.PSEUDOULTRAMETRIC,
    AxiomClass.METRIC,
    AxiomClass.PSEUDOMETRIC,
    AxiomClass.NONE,
]


def reference_class(rows):
    """The strongest class whose reference verdict passes; NONE if none does."""
    names = range(len(rows))
    return next(
        (t for t in STRONGEST_FIRST if reference_validate(rows, names, t)), AxiomClass.NONE
    )


def exact_array(rows):
    """Exact stand-ins for the entries, one array row per row."""
    return _as_array(*_rescale([x for row in rows for x in row])).reshape(len(rows), -1)


def floyd_warshall(g):
    n = len(g.vertices)
    idx = {v: i for i, v in enumerate(g.vertices)}
    d = [[Fraction(0) if i == j else None for j in range(n)] for i in range(n)]
    for u, v, w in g.weighted_edges():
        d[idx[u]][idx[v]] = d[idx[v]][idx[u]] = w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] is None or d[k][j] is None:
                    continue
                if d[i][j] is None or d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


# Small pools make ties and tight triangles common; coprime denominators
# make the lcm grow, past _SCALE_BITS with the 300-bit ones; entries from
# 2**62 up force the object dtype.
ENTRIES = st.one_of(
    st.sampled_from([Fraction(k, q) for k in range(4) for q in (1, 2, 3, 5, 7)]),
    st.fractions(min_value=0, max_value=20, max_denominator=40),
    st.integers(2**62, 2**66).map(Fraction),
    st.builds(Fraction, st.integers(2**62, 2**66), st.sampled_from([3, 11, 13])),
    st.builds(Fraction, st.integers(0, 2**302), st.integers(2**300, 2**301)),
)


@st.composite
def square_matrices(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    rows = [[draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i, j in combinations(range(n), 2):
            rows[j][i] = rows[i][j]
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = Fraction(0)
    return rows


def test_exact_array_switches_dtype_where_a_sum_could_wrap():
    assert exact_array([[Fraction(2**30 - 1)]]).dtype == np.int32
    assert exact_array([[Fraction(2**30)]]).dtype == np.int64
    # the stand-ins 1 and 2**30 - 1, then 1 and 2**30
    assert exact_array([[Fraction(1, 2), Fraction(2**30 - 1, 2)]]).dtype == np.int32
    assert exact_array([[Fraction(1, 2), Fraction(2**29)]]).dtype == np.int64
    assert exact_array([[Fraction(2**62 - 1)]]).dtype == np.int64
    assert exact_array([[Fraction(2**62)]]).dtype == object
    big = exact_array([[Fraction(1, 2), Fraction(2**62, 3)]] * 2)
    assert big.dtype == object and big.tolist()[0] == [3, 2**63]


def test_exact_array_keeps_fractions_past_the_scale_width():
    # 2**k + 1 and 2**k + 3 are coprime, so their lcm has about 2k bits.
    narrow = [Fraction(1, 2**500 + 1), Fraction(1, 2**500 + 3)]
    assert exact_array([narrow] * 2).tolist()[0] == [2**500 + 3, 2**500 + 1]
    wide = [Fraction(1, 2**600 + 1), Fraction(1, 2**600 + 3)]
    assert exact_array([wide] * 2).tolist()[0] == wide
    g = ug.build_graph("abc", [("a", "b", wide[0]), ("b", "c", wide[1])])
    m = ug.shortest_path_matrix(g)
    assert m.entries == tuple(map(tuple, floyd_warshall(g)))
    assert m.axiom_class is AxiomClass.METRIC


@settings(max_examples=300, deadline=None)
@given(square_matrices(), st.booleans())
def test_triangle_witness_matches_fraction_loop(rows, wide):
    with stand_ins(wide):
        got = _scan_witness(exact_array(rows), np.add)
    assert got == reference_triangle_witness(rows)


@settings(max_examples=200, deadline=None)
@given(square_matrices(), st.booleans())
def test_recode_ranks_matches_sort_based_recoding(rows, wide):
    with stand_ins(wide):
        got = ug.distance_matrix([f"v{i}" for i in range(len(rows))], rows).rank_array()
    want = reference_recode_ranks(rows)
    assert got.dtype == want.dtype == np.int32
    assert np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(
    square_matrices(),
    st.sampled_from([AxiomClass.PSEUDOMETRIC, AxiomClass.METRIC]),
    st.booleans(),
)
def test_validate_triangle_witness_matches_reference(rows, target, wide):
    with stand_ins(wide):
        m = ug.distance_matrix([f"v{i}" for i in range(len(rows))], rows)
        got = ug.validate(m, target)
    assert got == reference_validate(m.entries, m.vertices, target)


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_validate_and_axiom_class_match_the_reference(rows):
    names = [f"v{i}" for i in range(len(rows))]
    want = [reference_validate(rows, names, t) for t in AxiomClass]
    for wide in (False, True):
        with stand_ins(wide):
            m = ug.distance_matrix(names, rows)
            assert [ug.validate(m, t) for t in AxiomClass] == want
        assert m.axiom_class is reference_class(rows)


@settings(max_examples=100, deadline=None)
@given(corpus_graphs(), st.booleans())
def test_shortest_path_matrix_matches_floyd_warshall(g, wide):
    with stand_ins(wide):
        m = ug.shortest_path_matrix(g)
        verdict = ug.validate(m, AxiomClass.PSEUDOMETRIC)
    d = floyd_warshall(g)
    assert m.entries == tuple(map(tuple, d))
    assert np.array_equal(m.rank_array(), reference_recode_ranks(d))
    assert verdict == reference_validate(m.entries, m.vertices, AxiomClass.PSEUDOMETRIC)


def shortest_with_dtype(g):
    """``shortest_path_matrix(g)`` and the dtype its Floyd–Warshall ran in."""
    dtypes = []

    def spy(values, scale):
        out = _as_array(values, scale)
        dtypes.append(out.dtype)
        return out

    with mock.patch.object(metrics, "_as_array", spy):
        m = ug.shortest_path_matrix(g)
    return m, dtypes[0]


def heavy_path(n, w):
    names = [f"v{i}" for i in range(n)]
    return ug.build_graph(names, [(names[i], names[i + 1], w) for i in range(n - 1)])


@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("w", [Fraction(0), Fraction(1), Fraction(5, 3)])
def test_no_shortest_path_reaches_far(n, w):
    # Every edge carries the largest weight, so the two ends of the path are
    # (n - 1) * w apart: far - 1 in stand-ins, the longest a shortest path gets.
    g = heavy_path(n, w)
    m = ug.shortest_path_matrix(g)
    assert m.entries == tuple(map(tuple, floyd_warshall(g)))
    assert m.entry("v0", f"v{n - 1}") == (n - 1) * w == max(m._values)


# On a path of three equal edges w, far = 2w + 1 and 2 * far = 4w + 2: the
# first weight of each pair puts 2 * far just below 2**31 or 2**63, the second
# just above, where a sum of two far cells would wrap in the narrower dtype.
@pytest.mark.parametrize("w, dtype", [
    (2**29 - 1, np.int32),
    (2**29, np.int64),
    (2**61 - 1, np.int64),
    (2**61, object),
])
def test_shortest_path_dtype_fits_twice_far(w, dtype):
    g = heavy_path(3, Fraction(w))
    m, used = shortest_with_dtype(g)
    assert used == dtype
    assert m.entries == tuple(map(tuple, floyd_warshall(g)))
    assert m.entry("v0", "v2") == 2 * w


def reference_compare(m1, m2):
    pairs = [(m1.entries[i][j], m2.entries[i][j]) for i, j in combinations(range(len(m1)), 2)]
    le, ge = all(a <= b for a, b in pairs), all(a >= b for a, b in pairs)
    if le and ge:
        return PartialOrderResult.EQUAL
    if le or ge:
        return PartialOrderResult.FIRST_LESS if le else PartialOrderResult.SECOND_LESS
    return PartialOrderResult.INCOMPARABLE


DELTAS = [Fraction(0), Fraction(0), Fraction(1, 3), Fraction(-1, 3), Fraction(1, 2**300 + 1)]


@settings(max_examples=200, deadline=None)
@given(square_matrices(), st.data(), st.booleans())
def test_compare_matches_entrywise_reference(rows, data, wide):
    # The second matrix moves some entries of the first up or down, so all
    # four outcomes occur; the two share no common denominator.
    n = len(rows)
    names = [f"v{i}" for i in range(n)]
    moved = [[max(Fraction(0), x + data.draw(st.sampled_from(DELTAS))) for x in r] for r in rows]
    with stand_ins(wide):
        m1, m2 = ug.distance_matrix(names, rows), ug.distance_matrix(names, moved)
        got = ug.compare(m1, m2), ug.compare(m2, m1)
    assert got == (reference_compare(m1, m2), reference_compare(m2, m1))


@settings(max_examples=60, deadline=None)
@given(
    corpus_graphs(), st.sampled_from([Fraction(1, 3), Fraction(7), Fraction(2**70, 9)])
)
def test_exponent_does_not_depend_on_scale_or_dtype(g, factor):
    # int / int and Fraction ratios round correctly, so rescaling the
    # entries, crossing into the object dtype or keeping the Fractions
    # leaves every ratio's float unchanged.
    m = ug.shortest_path_matrix(g)
    rows = [[x * factor for x in r] for r in m.entries]
    scaled = ug.distance_matrix(m.vertices, rows)
    assert ug.betweenness_exponent(scaled) == ug.betweenness_exponent(m)
    with stand_ins(True):
        assert ug.betweenness_exponent(m) == ug.betweenness_exponent(scaled)


# The twice-max analysis against the flow-based search it replaced: per
# weight level, every edge of the level against every unresolved pair,
# with a node-split unit-capacity flow for each same-component query.


def reference_two_disjoint_paths(h, p, q, x, y):
    cap = {}

    def arc(a, b):
        cap.setdefault(a, {})[b] = 1
        cap.setdefault(b, {}).setdefault(a, 0)

    for v in h.vertices:
        arc(("i", v), ("o", v))
    for a, b in h.edges:
        arc(("o", a), ("i", b))
        arc(("o", b), ("i", a))
    for s in (p, q):
        arc("S", ("i", s))
    for t in (x, y):
        arc(("o", t), "T")
    for _ in range(2):
        prev = {"S": "S"}
        queue = ["S"]
        for node in queue:
            for nxt, c in cap[node].items():
                if c > 0 and nxt not in prev:
                    prev[nxt] = node
                    queue.append(nxt)
        if "T" not in prev:
            return False
        node = "T"
        while node != "S":
            cap[prev[node]][node] -= 1
            cap[node][prev[node]] += 1
            node = prev[node]
    return True


def reference_twice_max_analysis(g):
    verts = g.vertices
    unresolved = [(u, v) for u, v in combinations(verts, 2) if not g.has_edge(u, v)]
    values = {}
    edges = sorted(g.weighted_edges(), key=lambda e: e[2])
    for w, batch in groupby(edges, key=lambda e: e[2]):
        lighter = ug.strict_threshold_subgraph(g, w)
        comp = {}
        for k, block in enumerate(ug.connected_components(lighter).blocks):
            comp.update(dict.fromkeys(block, k))
        for x, y, _ in batch:
            still = []
            for p, q in unresolved:
                if comp[x] != comp[y]:
                    hit = {comp[p], comp[q]} == {comp[x], comp[y]}
                else:
                    hit = comp[p] == comp[q] == comp[x] and reference_two_disjoint_paths(
                        lighter, p, q, x, y
                    )
                if hit:
                    values[(p, q)] = w
                else:
                    still.append((p, q))
            unresolved = still
    return frozenset(unresolved), values


ZERO_HEAVY = [Fraction(0), Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]


@st.composite
def twice_max_graphs(draw, max_n=12, kinds=("corpus", "multipartite", "zero-heavy")):
    rng = random.Random(draw(st.integers(0, 10**9)))
    kind = draw(st.sampled_from(kinds))
    if kind == "multipartite":
        return random_multipartite(rng, 2, 4, max_n // 4)
    g = random_connected_graph(rng, 1, max_n)
    if kind == "zero-heavy":
        g = random_weighting(rng, g, ZERO_HEAVY)
    return g


@settings(max_examples=300, deadline=None)
@given(twice_max_graphs())
def test_twice_max_analysis_matches_flow_reference(g):
    assert named_twice_max_analysis(g) == reference_twice_max_analysis(g)


@settings(max_examples=150, deadline=None)
@given(twice_max_graphs(max_n=8))
def test_twice_max_analysis_matches_oracle(g):
    # A pair outside the family gets the least maximum over its paths
    # whose maximum is unique.
    pairs, values = named_twice_max_analysis(g)
    assert pairs == oracle.oracle_twice_max(g)
    for (u, v), w in values.items():
        tops = []
        for path in oracle.enumerate_simple_paths(g, u, v):
            weights = [g.weight(a, b) for a, b in path.edges()]
            if weights.count(max(weights)) == 1:
                tops.append(max(weights))
        assert w == min(tops)


# least_extension against the per-cell path it replaced: a Fraction row
# per vertex from the weighted edges and the twice-max values, then
# distance_matrix.


def reference_least_extension(g):
    _, values = named_twice_max_analysis(g)  # twice-max pairs stay at 0
    idx = g._index
    rows = [[Fraction(0)] * len(idx) for _ in idx]
    for (u, v), d in ({(u, v): w for u, v, w in g.weighted_edges()} | values).items():
        rows[idx[u]][idx[v]] = rows[idx[v]][idx[u]] = d
    return ug.distance_matrix(g.vertices, rows)


@settings(max_examples=300, deadline=None)
@given(twice_max_graphs(kinds=("multipartite", "zero-heavy")))
def test_least_extension_matches_the_per_cell_path(g):
    # About one zero-heavy draw in six is an extendable complete
    # multipartite graph, most of those with 0 among the weights.
    try:
        got = ug.least_extension(g)
    except (ug.NotCompleteMultipartiteError, ug.NotExtendableError):
        return
    want = reference_least_extension(g)
    assert_dense(got)
    assert got.entries == want.entries
    assert got.axiom_class is want.axiom_class
    assert got.rank_array().dtype == want.rank_array().dtype == np.int32
    assert np.array_equal(got.rank_array(), want.rank_array())
    assert got._values == want._values


# The complement search that multipartite_parts replaced: the parts are
# the components of the complement, by first appearance, and they count
# iff each one is independent in g.


def reference_multipartite_parts(g):
    seen = set()
    comps = []
    for start in g.vertices:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        queue = deque([start])
        while queue:
            u = queue.popleft()
            nbs = set(g.neighbors(u))
            for v in g.vertices:
                if v not in seen and v != u and v not in nbs:
                    seen.add(v)
                    comp.append(v)
                    queue.append(v)
        comp.sort(key=g.vertex_index)
        comps.append(comp)
    for comp in comps:
        for i, u in enumerate(comp):
            for v in comp[i + 1:]:
                if g.has_edge(u, v):
                    return None
    return ug.Partition(tuple(tuple(c) for c in comps))


@st.composite
def multipartite_candidates(draw):
    # Complete multipartite graphs (k = 1 included) declared in shuffled
    # order, the same with one cross-part edge dropped or one same-part
    # edge added, and corpus graphs.
    rng = random.Random(draw(st.integers(0, 10**9)))
    kind = draw(st.sampled_from(["multipartite", "drop", "add", "corpus"]))
    if kind == "corpus":
        return random_connected_graph(rng, 1, 10)
    g = random_multipartite(rng, 1, 5, 3)
    verts = list(g.vertices)
    rng.shuffle(verts)
    edges = list(g.weighted_edges())
    missing = [(u, v) for u, v in combinations(verts, 2) if not g.has_edge(u, v)]
    if kind == "drop" and edges:
        edges.pop(rng.randrange(len(edges)))
    if kind == "add" and missing:
        edges.append((*rng.choice(missing), Fraction(1)))
    rng.shuffle(edges)
    return ug.build_graph(verts, edges)


@settings(max_examples=300, deadline=None)
@given(multipartite_candidates())
def test_multipartite_parts_matches_complement_reference(g):
    parts = ug.multipartite_parts(g)
    assert parts == reference_multipartite_parts(g)
    assert (parts is None) == (ug.find_multipartite_obstruction(g) is not None)


def test_multipartite_parts_matches_complement_reference_on_atlas():
    for G in atlas_graphs(6):
        g = from_networkx(G)
        assert ug.multipartite_parts(g) == reference_multipartite_parts(g)


# The interned builders (each distinct cell parsed, converted and
# formatted once) against the per-cell path they replaced: every cell
# through to_weight, the sort-based rank recoding, the reference checks
# and format_weight.


def spellings(w):
    """Literals of ``w``: its emitted form, p/q, 2p/2q, a padded decimal,
    and a JSON integer when it is one."""
    out = [ug.format_weight(w), f"{w.numerator}/{w.denominator}",
           f"{2 * w.numerator}/{2 * w.denominator}"]
    if "." in out[0]:
        out.append(out[0] + "0")
    if w.denominator == 1:
        out += [w.numerator, f"{w.numerator}.0"]
    if w == 0:
        out.append("-0")
    return out


@st.composite
def spelled_matrices(draw, max_n=6):
    """Square cells over a pool of at most four values, zero among them,
    each cell spelled at random; symmetric with zero diagonal or not."""
    n = draw(st.integers(1, max_n))
    pool = [Fraction(0)] + draw(st.lists(ENTRIES, min_size=1, max_size=3))
    values = [[draw(st.sampled_from(pool)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i, j in combinations(range(n), 2):
            values[j][i] = values[i][j]
        for i in range(n):
            values[i][i] = Fraction(0)
    return [[draw(st.sampled_from(spellings(w))) for w in row] for row in values]


def per_cell(names, cells):
    """(entries, class, ranks, json, csv) the way the per-cell path made them."""
    rows = [[ug.to_weight(x) for x in row] for row in cells]
    ranks = reference_recode_ranks(rows)
    cls = reference_class(rows)
    texts = [[ug.format_weight(x) for x in row] for row in rows]
    doc = {"vertices": names, "matrix": texts, "axiom_class": cls.value}
    csv = [",".join(["", *names])] + [",".join([v, *r]) for v, r in zip(names, texts)]
    return (tuple(map(tuple, rows)), cls, ranks,
            json.dumps(doc, separators=(",", ":")), "\n".join(csv))


def assert_dense(m):
    """The invariant every builder keeps: ``_values`` strictly increasing,
    every rank used, ``_ranks`` int32 and read-only."""
    values, ranks = m._values, m.rank_array()
    assert all(a < b for a, b in zip(values, values[1:]))
    assert np.array_equal(np.unique(ranks), np.arange(len(values)))
    assert ranks.dtype == np.int32 and not ranks.flags.writeable


def as_built(m):
    assert_dense(m)
    return (m.entries, m.axiom_class, m.rank_array(),
            ug.emit_matrix(m, "json"), ug.emit_matrix(m, "csv"))


def assert_same(got, want):
    assert got[:2] == want[:2]
    assert got[2].dtype == want[2].dtype == np.int32
    assert np.array_equal(got[2], want[2])
    assert got[3:] == want[3:]


@settings(max_examples=200, deadline=None)
@given(spelled_matrices())
def test_matrix_builders_match_the_per_cell_path(cells):
    names = [f"v{i}" for i in range(len(cells))]
    json_text = json.dumps({"vertices": names, "matrix": cells})
    csv_text = "\n".join(
        [",".join(["", *names])] + [",".join([v, *map(str, r)]) for v, r in zip(names, cells)]
    )
    for wide in (False, True):
        with stand_ins(wide):
            want = per_cell(names, cells)
            assert_same(as_built(ug.distance_matrix(names, cells)), want)
            assert_same(as_built(ug.parse_matrix(json_text)), want)
            assert_same(as_built(ug.parse_matrix(csv_text, "csv")), want)


@settings(max_examples=100, deadline=None)
@given(corpus_graphs())
def test_graph_builders_match_the_per_cell_path(g):
    for wide in (False, True):
        with stand_ins(wide):
            for m in (ug.subdominant_matrix(g), ug.shortest_path_matrix(g)):
                assert_same(as_built(m), per_cell(list(g.vertices), m.entries))


# The bulk edge-list reader against build_graph on the same data, on
# everything WeightedGraph.__eq__ leaves out: names, neighbour order and
# the index. Names include the keyword "vertex" and an inner "#"; every
# value has several spellings.

NAMES = ["a", "b", "vertex", "x#y", "v10", "é", "Z"]
SPELLINGS = {
    Fraction(0): ["0", "-0", "0/7", "0.000"],
    Fraction(1, 2): ["1/2", "0.5", "2/4", "5e-1"],
    Fraction(1, 3): ["1/3", "2/6"],
    Fraction(1): ["1", "1.0", "3/3", "01"],
    # the same float as 1, so only an exact order tells the two apart
    1 + Fraction(1, 2**60): [
        "1.000000000000000000867361737988403547205962240695953369140625",
        "1152921504606846977/1152921504606846976",
    ],
    Fraction(5, 4): ["5/4", "1.25", "10/8"],
    Fraction(2): ["2", "2.00", "4/2"],
}
NOISE = ["", "   ", "# comment", "  # indented a b 1", "#x y 1"]


@st.composite
def edge_list_inputs(draw):
    """(text, vertices by first appearance, edges in line order)."""
    n = draw(st.integers(1, len(NAMES)))
    names = draw(st.permutations(NAMES))[:n]
    all_pairs = list(combinations(range(n), 2))
    pairs = draw(st.sets(st.sampled_from(all_pairs))) if all_pairs else set()
    lines = []
    for i, j in sorted(pairs):
        u, v = (names[i], names[j]) if draw(st.booleans()) else (names[j], names[i])
        w = draw(st.sampled_from(sorted(SPELLINGS)))
        lines.append((u, v, draw(st.sampled_from(SPELLINGS[w]))))
    touched = {x for u, v, _ in lines for x in (u, v)}
    declared = [v for v in names if v not in touched or draw(st.booleans())]
    lines += [("vertex", v) for v in declared]
    lines += draw(st.lists(st.sampled_from(NOISE), max_size=3))
    lines = draw(st.permutations(lines))
    order = {}
    for line in lines:
        if isinstance(line, tuple):  # ("vertex", name) or (u, v, weight)
            for v in line[1:] if len(line) == 2 else line[:2]:
                order.setdefault(v, len(order))
    text = "\n".join(" ".join(x) if isinstance(x, tuple) else x for x in lines)
    return text, list(order), [x for x in lines if isinstance(x, tuple) and len(x) == 3]


def assert_same_graph(g, h):
    assert g.vertices == h.vertices
    assert g.edges == h.edges
    assert tuple(g.weighted_edges()) == tuple(h.weighted_edges())
    assert all(type(w) is Fraction for _, _, w in g.weighted_edges())
    assert list(g._index.items()) == list(h._index.items())
    assert [g.neighbors(v) for v in g.vertices] == [h.neighbors(v) for v in h.vertices]
    assert g._levels == h._levels
    assert edge_triples(g) == edge_triples(h)


def reference_levels(g):
    """Weight levels by sorting the Fractions themselves."""
    levels = tuple(sorted({w for _, _, w in g.weighted_edges()}))
    idx = g._index
    return levels, tuple((idx[u], idx[v], levels.index(w)) for u, v, w in g.weighted_edges())


@settings(max_examples=300, deadline=None)
@given(edge_list_inputs(), st.booleans())
def test_parse_edge_list_matches_build_graph(data, wide):
    text, vertices, edges = data
    with stand_ins(wide):
        g = ug.parse_edge_list(text)
        assert_same_graph(g, ug.build_graph(vertices, edges))
        assert (g._levels, edge_triples(g)) == reference_levels(g)
        for u in g.vertices:  # neighbours in canonical order
            assert list(g.neighbors(u)) == sorted(g.neighbors(u), key=g._index.__getitem__)
        assert_same_graph(ug.parse_edge_list(ug.emit_edge_list(g)), g)


def reference_edge_list(text):
    """The line loop that read edge lists before the bulk pass: the
    vertices by first appearance and the weight of each index pair."""
    index, weights, literals = {}, {}, {}
    for lineno, tokens in enumerate(map(str.split, text.splitlines()), start=1):
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) == 2 and tokens[0] == "vertex":
            index.setdefault(tokens[1], len(index))
            continue
        if len(tokens) != 3:
            raise ug.ParseError("expected 'u v weight' or 'vertex name'", line=lineno)
        u, v, wtext = tokens
        i = index.setdefault(u, len(index))
        j = index.setdefault(v, len(index))
        if i == j:
            raise ug.SelfLoopError(f"line {lineno}: edge {{{u!r},{v!r}}} is a self-loop")
        key = (i, j) if i < j else (j, i)
        if key in weights:
            raise ug.DuplicateEdgeError(f"line {lineno}: edge {{{u!r},{v!r}}} given twice")
        w = literals.get(wtext)
        if w is None:
            w = literals[wtext] = io._literal_value(wtext, lineno)
        weights[key] = w
    if not index:
        raise ug.ParseError("no vertices declared")
    for w in literals.values():
        if w.numerator < 0:
            ug.to_weight(w)
    return tuple(index), weights


HOSTILE_NAMES = ["a", "b", "c", "d", "vertex", "x#y", "é"]
HOSTILE_LITERALS = [
    "1", "0", "-0", "1/2", "0.5", "2", "3/4", "1e-3", "2E+2", "1_0", "٣",  # all good
    "-1", "-3/4", "x", "1/0", "1/2/3", "1e1001", "1" * 1001, "#",  # all bad
]
BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
SPACES = [" ", "\t", "  ", "\xa0", "\u3000", "\x1f"]


@st.composite
def hostile_edge_lists(draw):
    """Edge-list texts with up to three faults of every kind the reader
    names (wrong token counts, self-loops, duplicates either way round,
    bad, huge and negative literals) among edges, comments and
    declarations, with Unicode line breaks and spaces, leading ones too.
    Comments have one to four tokens, so a reader that tests the token
    count before the comment mark meets each count."""
    name = st.sampled_from(HOSTILE_NAMES)
    good = st.sampled_from(HOSTILE_LITERALS[:11])
    ends = st.lists(name, min_size=2, max_size=2, unique=True)
    sound = st.one_of(
        st.builds(lambda uv, w: (*uv, w), ends, good),
        st.tuples(st.just("vertex"), name),
        st.sampled_from([
            (), ("#",), ("#x", "y"), ("#", "vertex"), ("#vertex", "a", "b"),
            ("#", "a", "b", "1"), ("#x", "y", "1"),
        ]),
    )
    fault = st.one_of(
        st.tuples(name, name, st.sampled_from(HOSTILE_LITERALS)),
        st.builds(lambda uv, w: (*uv, w), ends, st.sampled_from(["-1", "-3/4", "-0.5"])),
        st.tuples(st.just("vertex")),
        st.tuples(name, name),  # a declaration when the first is "vertex"
        st.tuples(st.just("vertex"), name, name),  # an edge from "vertex"
        st.tuples(name, name, good, name),
    )
    lines = draw(st.lists(sound, max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(fault))
    text = []
    for tokens in lines:
        lead = draw(st.sampled_from(["", *SPACES]))
        text += [lead, draw(st.sampled_from(SPACES)).join(tokens), draw(st.sampled_from(BREAKS))]
    return "".join(text[:-1] if draw(st.booleans()) else text)


@settings(max_examples=500, deadline=None)
@given(hostile_edge_lists())
def test_bulk_edge_list_reader_matches_the_line_loop(text):
    try:
        vertices, weights = reference_edge_list(text)
    except ug.UltragraphError as exc:
        with pytest.raises(type(exc)) as info:
            ug.parse_edge_list(text)
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
        assert getattr(info.value, "line", None) == getattr(exc, "line", None)
        return
    g = ug.parse_edge_list(text)
    levels = tuple(sorted(set(weights.values())))
    pairs = sorted(weights)
    assert g.vertices == vertices
    assert g._index == {v: k for k, v in enumerate(vertices)}
    assert g._levels == levels
    assert edge_triples(g) == tuple((i, j, levels.index(weights[i, j])) for i, j in pairs)
    assert list(g.weighted_edges()) == [(vertices[i], vertices[j], weights[i, j]) for i, j in pairs]
    for k, v in enumerate(vertices):
        near = sorted({j for i, j in pairs if i == k} | {i for i, j in pairs if j == k})
        assert g.neighbors(v) == tuple(vertices[x] for x in near)


# A graph is its edge columns: every builder leaves the canonical
# (i, j, level) triples as one read-only intp array, equality and hash read
# them, and one CSR builder gives the adjacency the edge loop gave.


def adjacency_lists(n, edges):
    """Each of ``n`` vertices' neighbours along the index ``edges``, in edge
    order: the loop ``_neighbours`` and ``_lighter`` ran before the CSR builder."""
    adj = [[] for _ in range(n)]
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    return adj


def reference_triples(vertices, weighted_edges):
    """The canonical ``(i, j, level)`` triples of the graph on ``vertices``
    with these name-pair edges: index pairs in order, levels by sorting the weights."""
    index = {v: k for k, v in enumerate(vertices)}
    weights = [ug.parse_weight(w) if isinstance(w, str) else Fraction(w) for _, _, w in weighted_edges]
    levels = sorted(set(weights))
    pairs = [sorted((index[u], index[v])) for u, v, _ in weighted_edges]
    return tuple(sorted((i, j, levels.index(w)) for (i, j), w in zip(pairs, weights)))


def built_graphs(text, vertices, edges, rng):
    """(graph, its vertices, its name-pair edges) from every builder: the
    reader, ``build_graph``, a threshold subgraph, an induced subgraph,
    ``augment``, the complete graph of a matrix and the edgeless graph."""
    g = ug.parse_edge_list(text)
    weights = [ug.parse_weight(w) for _, _, w in edges]
    bound = rng.choice([0, *weights, 10])
    subset = rng.sample(vertices, rng.randint(1, len(vertices)))
    comps = ug.connected_components(g).blocks
    hub = rng.randrange(len(comps))
    consts = {k: rng.choice(WEIGHTS) for k in range(len(comps)) if k != hub}
    made = [
        (g, vertices, edges),
        (ug.build_graph(vertices, edges), vertices, edges),
        (ug.strict_threshold_subgraph(g, bound), vertices,
         [e for e, w in zip(edges, weights) if w < bound]),
        (ug.induced_subgraph(g, subset), [v for v in vertices if v in subset],
         [e for e in edges if e[0] in subset and e[1] in subset]),
        (ug.augment(g, hub, consts), vertices,
         edges + [(comps[k][0], comps[hub][0], w) for k, w in consts.items()]),
        (ug.build_graph(vertices), vertices, []),
    ]
    if len(comps) == 1:
        m = ug.subdominant_matrix(g)
        made.append((ug.matrix_to_complete_graph(m), vertices,
                     [(u, v, m.entry(u, v)) for u, v in combinations(vertices, 2)]))
    return made


@settings(max_examples=300, deadline=None)
@given(edge_list_inputs(), st.randoms())
def test_every_builder_leaves_the_canonical_edge_columns(data, rng):
    made = built_graphs(*data, rng)
    for h, vertices, edges in made:
        columns = h._edge_columns
        assert h.vertices == tuple(vertices)
        assert columns.dtype == np.intp and columns.shape == (3, len(edges))
        assert not columns.flags.writeable
        triples = edge_triples(h)
        assert triples == reference_triples(vertices, edges)
        assert h._neighbours == tuple(map(tuple, adjacency_lists(len(vertices), triples)))
        for k in range(len(h._levels) + 1):  # isolated vertices below every level
            lighter = adjacency_lists(len(vertices), [e for e in triples if e[2] < k])
            assert ug.extension._lighter(h, k) == tuple(map(tuple, lighter))
    # Equality and hash agree with the vertices, levels and triples, across
    # builders and after an emit-parse round trip.
    graphs = [h for h, _, _ in made]
    graphs += [ug.parse_edge_list(ug.emit_edge_list(h)) for h in graphs]
    for a, b in product(graphs, repeat=2):
        same = (a.vertices, a._levels, edge_triples(a)) == (b.vertices, b._levels, edge_triples(b))
        assert (a == b) is same
        if same:
            assert hash(a) == hash(b)


# strict_threshold_subgraph and well_chained_pairs read the levels; the
# references are their per-edge Fraction forms.


@settings(max_examples=200, deadline=None)
@given(twice_max_graphs(), st.sampled_from([0, Fraction(1, 4), Fraction(1, 2), 1, 2, 10]), st.booleans())
def test_strict_threshold_subgraph_matches_per_edge_filter(g, bound, wide):
    with stand_ins(wide):
        want = ug.build_graph(g.vertices, [(u, v, w) for u, v, w in g.weighted_edges() if w < bound])
        assert_same_graph(ug.strict_threshold_subgraph(g, bound), want)


def reference_well_chained_pairs(g):
    zero = ug.build_graph(g.vertices, [(u, v, w) for u, v, w in g.weighted_edges() if w == 0])
    return frozenset(
        (b[i], b[j])
        for b in ug.connected_components(zero).blocks
        for i in range(len(b))
        for j in range(i + 1, len(b))
        if not g.has_edge(b[i], b[j])
    )


@settings(max_examples=300, deadline=None)
@given(twice_max_graphs())
def test_well_chained_pairs_matches_zero_subgraph_components(g):
    assert ug.well_chained_pairs(g) == reference_well_chained_pairs(g)


# quotient and matrix_from_dendrogram build from ranks; the references are
# their per-cell forms, which rebuilt Fraction rows for distance_matrix, and
# the member-list bodies that filled subdominant_matrix and
# matrix_from_dendrogram before clusters became intervals of a leaf order.


def reference_quotient(m):
    blocks = {}
    for v, row in zip(m.vertices, m.entries):
        blocks.setdefault(row.index(0), []).append(v)
    reps = list(blocks)
    rows = [[m.entries[a][b] for b in reps] for a in reps]
    names = [m.vertices[r] for r in reps]
    return ug.Partition(tuple(map(tuple, blocks.values()))), ug.distance_matrix(names, rows)


def reference_matrix_from_dendrogram(d, vertices=None):
    leaf_order = d.leaves()
    verts = tuple(vertices) if vertices is not None else tuple(leaf_order)
    if sorted(verts) != sorted(leaf_order):
        raise ug.VertexMismatchError("vertex list must be a permutation of leaves")
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for node in d._preorder():
        groups = [ch.leaves() for ch in node.children]
        for gi, gj in combinations(groups, 2):
            for a in gi:
                for b in gj:
                    rows[idx[a]][idx[b]] = node.height
                    rows[idx[b]][idx[a]] = node.height
    return ug.distance_matrix(verts, [[2 * ug.to_weight(h) for h in row] for row in rows])


def member_list_merges(n, edges):
    """Per weight level, each union's two member lists, survivor first, as
    the merge core kept them: every union copies both lists."""
    parent = list(range(n))
    members = [[i] for i in range(n)]

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for k, batch in groupby(sorted(edges, key=itemgetter(2)), key=itemgetter(2)):
        merges = []
        for i, j, _ in batch:
            ra, rb = find(i), find(j)
            if ra == rb:
                continue
            if len(members[ra]) < len(members[rb]):
                ra, rb = rb, ra
            merges.append((members[ra], members[rb]))
            parent[rb] = ra
            members[ra], members[rb] = members[ra] + members[rb], []
        yield k, merges


def member_list_subdominant_matrix(g):
    metrics._require_connected(g)
    n = len(g.vertices)
    ranks = np.zeros((n, n), dtype=np.int32)
    weights = [Fraction(0)]  # weight of each rank
    for k, merges in member_list_merges(n, edge_triples(g)):
        if merges and g._levels[k]:
            weights.append(g._levels[k])
        for a, b in merges:
            ranks[np.asarray(a)[:, None], b] = len(weights) - 1
            ranks[np.asarray(b)[:, None], a] = len(weights) - 1
    return metrics._from_values(g.vertices, weights, ranks)


def member_list_matrix_from_dendrogram(d, vertices=None):
    leaf_order = d.leaves()
    verts = tuple(vertices) if vertices is not None else tuple(leaf_order)
    if sorted(verts) != sorted(leaf_order):
        raise ug.VertexMismatchError("vertex list must be a permutation of leaves")
    metrics._check_vertices(verts)
    idx = {v: i for i, v in enumerate(verts)}
    nodes = list(d._preorder())
    codes = np.full((len(verts),) * 2, len(nodes), dtype=np.int32)
    below = {}  # leaf indices under each finished node
    for code in reversed(range(len(nodes))):  # children before parents
        kids = [below.pop(id(ch)) for ch in nodes[code].children]
        run = [] if kids else [idx[nodes[code].label]]
        for kid in kids:
            codes[np.ix_(kid, run)] = codes[np.ix_(run, kid)] = code
            run += kid
        below[id(nodes[code])] = run
    heights = [node.height for node in nodes] + [Fraction(0)]
    used = list(dict.fromkeys(codes.ravel().tolist()))
    values, ranks = graph._ranked([2 * ug.to_weight(heights[c]) for c in used])
    recode = np.zeros(len(heights), dtype=np.int32)
    recode[used] = ranks
    return metrics._from_values(verts, values, recode[codes])


def same_matrix(got, want):
    assert_dense(got)
    assert got.vertices == want.vertices
    assert got.entries == want.entries
    assert got.axiom_class is want.axiom_class
    assert got.rank_array().dtype == want.rank_array().dtype == np.int32
    assert np.array_equal(got.rank_array(), want.rank_array())
    assert got._values == want._values


def outcome(f, *args):
    """``f(*args)``, or the type and message of what it raised."""
    try:
        return f(*args)
    except (ug.UltragraphError, TypeError) as exc:
        return type(exc), str(exc)


@st.composite
def pseudoultrametrics(draw):
    """A random ultrametric on k classes, each class blown up to one to
    three vertices at distance zero, in shuffled vertex order."""
    rng = random.Random(draw(st.integers(0, 10**9)))
    u = random_ultrametric(rng, [f"c{i}" for i in range(rng.randint(1, 5))])
    members = [c for c in range(len(u)) for _ in range(rng.randint(1, 3))]
    rng.shuffle(members)
    rows = [[u.entries[a][b] for b in members] for a in members]
    return ug.distance_matrix([f"v{i}" for i in range(len(members))], rows)


@settings(max_examples=200, deadline=None)
@given(pseudoultrametrics(), st.booleans())
def test_quotient_matches_the_per_cell_path(m, wide):
    with stand_ins(wide):
        m = ug.distance_matrix(m.vertices, m.entries)
        parts, got = ug.quotient(m)
        want_parts, want = reference_quotient(m)
    assert parts == want_parts
    same_matrix(got, want)


LEAF_LABELS = [f"v{i}" for i in range(8)]
GOOD_HEIGHTS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), 2, Fraction(5, 7), "3", "1/2"]
BAD_HEIGHTS = [0.5, 1.0, -1, Fraction(-1, 2)]


@st.composite
def dendrograms(draw):
    """(tree, vertex order or None): random multiway merges with random,
    not necessarily monotone heights, some one-child nodes, and with
    ``bad`` several float or negative heights."""
    rng = random.Random(draw(st.integers(0, 10**9)))
    bad = draw(st.booleans())
    n = rng.randint(1, 8)
    nodes = [ug.Dendrogram(Fraction(0), (), v) for v in LEAF_LABELS[:n]]

    def height():
        return rng.choice(BAD_HEIGHTS if bad and rng.random() < 0.3 else GOOD_HEIGHTS)

    while len(nodes) > 1:
        picked = set(rng.sample(range(len(nodes)), rng.randint(2, min(3, len(nodes)))))
        kids = tuple(x for i, x in enumerate(nodes) if i in picked)
        nodes = [x for i, x in enumerate(nodes) if i not in picked]
        nodes.append(ug.Dendrogram(height(), kids))
        if rng.random() < 0.25:
            nodes[-1] = ug.Dendrogram(height(), (nodes[-1],))
    order = rng.sample(LEAF_LABELS[:n], n) if draw(st.booleans()) else None
    return nodes[0], order


@settings(max_examples=300, deadline=None)
@given(dendrograms(), st.booleans())
def test_matrix_from_dendrogram_matches_the_per_cell_path(tree, wide):
    d, order = tree
    with stand_ins(wide):
        got = outcome(ug.matrix_from_dendrogram, d, order)
        wants = [outcome(f, d, order)
                 for f in (reference_matrix_from_dendrogram, member_list_matrix_from_dendrogram,
                           preorder_matrix_from_dendrogram)]
    for want in wants:
        if isinstance(want, tuple):
            assert got == want
        else:
            same_matrix(got, want)


# A merge tree is its flat lists: ``_merge_tree`` builds no node object, and
# ``emit_newick`` and ``matrix_from_dendrogram`` read the lists. The
# references are the bodies they replaced: a frozen node and a ``w / 2``
# per merge, an emitter that found each node's least leaf, re-sorted its
# children and subtracted one Fraction per branch, and a matrix fill that
# walked the node objects.


def reference_merge_tree(vertices, levels):
    first = list(range(len(vertices)))  # first vertex of each zero class
    tops = {}  # root -> (least leaf, tree)

    def top(r):
        if r in tops:
            return tops.pop(r)
        label = vertices[first[r]]
        return label, ug.Dendrogram(Fraction(0), (), label)

    root = 0
    for w, _, merges, _ in levels:
        if not w:
            for root, rb, _, _ in merges:
                first[root] = min(first[root], first[rb])
            continue
        growing = {}
        for root, rb, _, _ in merges:
            kids = growing.pop(root, None) or [top(root)]
            kids += growing.pop(rb, None) or [top(rb)]
            growing[root] = kids
        for r, kids in growing.items():
            kids.sort(key=itemgetter(0))
            tops[r] = (kids[0][0], ug.Dendrogram(w / 2, tuple(t for _, t in kids)))
    return top(root)[1]


def reference_emit_newick(d, approx_digits=None):
    if approx_digits is not None:
        io._check_digits(approx_digits)

    def fmt(length):
        if isinstance(length, float):  # from a float height
            ug.to_weight(length)  # TypeError
        exact = io._terminating_decimal(length.numerator, length.denominator)
        if exact is not None:
            return exact
        if approx_digits is None:
            raise ug.InexactDecimalError(
                f"branch length {length} has no terminating decimal; "
                "pass approx_digits to allow rounding"
            )
        scaled = round(length * 10**approx_digits)
        approx = ug.format_weight(Fraction(scaled, 10**approx_digits))
        return f"{approx}[{length.numerator}/{length.denominator}]"

    least = {}  # least leaf of every node, children before parents
    for node in reversed(list(d._preorder())):
        below = (least[id(ch)] for ch in node.children)
        least[id(node)] = min(below, default=node.label)
    out = []
    stack = [";", d]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif not isinstance(item, ug.Dendrogram):
            out.append(":" + fmt(item))
        elif item.is_leaf():
            out.append(io._newick_label(str(item.label)))
        else:
            kids = sorted(item.children, key=lambda ch: least[id(ch)])
            stack.append(")")
            for k in reversed(range(len(kids))):
                stack += [item.height - kids[k].height, kids[k], "," if k else "("]
    return "".join(out)


def preorder_matrix_from_dendrogram(d, vertices=None):
    leaf_order = d.leaves()
    verts = tuple(vertices) if vertices is not None else tuple(leaf_order)
    if sorted(verts) != sorted(leaf_order):
        raise ug.VertexMismatchError("vertex list must be a permutation of leaves")
    metrics._check_vertices(verts)
    idx = {v: i for i, v in enumerate(verts)}
    nodes = list(d._preorder())
    tops = {}  # finished node -> (root, size)
    merges = []
    for code in reversed(range(len(nodes))):  # children before parents
        kids = [tops.pop(id(ch)) for ch in nodes[code].children]
        (ra, sa), *rest = kids or [(idx[nodes[code].label], 1)]
        for rb, sb in rest:
            merges.append((ra, rb, sa, sb, code))
            sa += sb
        tops[id(nodes[code])] = (ra, sa)
    codes = metrics._fill_intervals(len(verts), merges, len(nodes))
    heights = [node.height for node in nodes] + [Fraction(0)]
    used = list(dict.fromkeys(codes.ravel().tolist()))
    values, ranks = graph._ranked([2 * ug.to_weight(heights[c]) for c in used])
    recode = np.zeros(len(heights), dtype=np.int32)
    recode[used] = ranks
    return metrics._from_values(verts, values, recode[codes])


def hand_built(d, height=lambda h: h, label=lambda x: x):
    """A copy of ``d`` made node by node with the public constructor, each
    height and label passed through ``height`` and ``label``."""
    made = {}
    for node in reversed(list(d._preorder())):  # children before parents
        kids = tuple(made[id(ch)] for ch in node.children)
        made[id(node)] = ug.Dendrogram(height(node.height), kids, label(node.label))
    return made[id(d)]


# Whitespace of several kinds, quotes and every Newick metacharacter.
HOSTILE_LABELS = ["a", "b b", "it's", "x(1)", "[c]", "d:e", "f;g", "h,i", "\u2003",
                  "\x85j", "k\u3000", "''", "é", "v10", "v2", "\x1c", "l\tm", "n)("]
APPROX_DIGITS = st.sampled_from([None, 0, 3, 12])


def hostile_names(g, names):
    """``g`` with its vertices renamed to ``names``, in order."""
    new = dict(zip(g.vertices, names))
    return ug.build_graph([new[v] for v in g.vertices],
                          [(new[u], new[v], w) for u, v, w in g.weighted_edges()])


@settings(max_examples=300, deadline=None)
@given(twice_max_graphs(kinds=("corpus", "zero-heavy")), st.permutations(HOSTILE_LABELS),
       APPROX_DIGITS, st.booleans(), st.randoms())
def test_the_merge_tree_lists_match_the_node_bodies(g, names, digits, wide, rng):
    g = hostile_names(g, names)
    with stand_ins(wide):
        levels = list(metrics._merge_levels(len(g.vertices), g._edge_columns, g._levels))
        want = reference_merge_tree(g.vertices, levels)
        got = ug.subdominant_dendrogram(g)
        assert outcome(ug.emit_newick, got, digits) == outcome(reference_emit_newick, want, digits)
        # Each reader on a fresh tree, whose nodes are not built yet.
        order = rng.sample(want.leaves(), len(want.leaves()))
        for verts in (None, order):
            same_matrix(ug.matrix_from_dendrogram(ug.subdominant_dendrogram(g), verts),
                        reference_matrix_from_dendrogram(want, verts))
        assert ug.subdominant_dendrogram(g).leaves() == want.leaves()
        assert ug.subdominant_dendrogram(g).min_leaf() == want.min_leaf()
        copy = hand_built(want)
        for fresh in (ug.subdominant_dendrogram(g), ug.dendrogram(ug.quotient(ug.subdominant_matrix(g))[1])):
            assert fresh == want and want == fresh and fresh == copy
        assert hash(ug.subdominant_dendrogram(g)) == hash(want) == hash(copy)
        assert repr(ug.subdominant_dendrogram(g)) == repr(want) == repr(copy)
        assert outcome(ug.emit_newick, copy, digits) == outcome(reference_emit_newick, want, digits)


@settings(max_examples=300, deadline=None)
@given(dendrograms(), st.permutations(HOSTILE_LABELS), APPROX_DIGITS, st.booleans())
def test_newick_of_a_hand_built_tree_matches_the_node_walk(tree, names, digits, wide):
    # Drawn heights include strings, which the node walk could not subtract,
    # and floats and negative values, which no height may be.
    d = hand_built(tree[0], label=dict(zip(LEAF_LABELS, names)).get)
    heights = [node.height for node in d._preorder()]
    with stand_ins(wide):
        got = outcome(ug.emit_newick, d, digits)
        bad = [e for e in (outcome(ug.to_weight, h) for h in heights) if isinstance(e, tuple)]
        if bad:  # each height is converted before any length is written
            assert got in bad
        else:
            assert got == outcome(reference_emit_newick, hand_built(d, height=ug.to_weight), digits)


@settings(max_examples=60, deadline=None)
@given(corpus_graphs())
def test_every_builder_keeps_the_ranks_dense(g):
    m = ug.subdominant_matrix(g)
    built = [m, ug.shortest_path_matrix(g), ug.quotient(m)[1]]
    built.append(ug.distance_matrix(g.vertices, m.entries))
    built += [ug.parse_matrix(ug.emit_matrix(m, fmt), fmt) for fmt in ("json", "csv")]
    built.append(ug.matrix_from_dendrogram(ug.subdominant_dendrogram(g)))
    if ug.is_pseudoultrametrizable(g).pseudoultrametrizable:
        built.append(ug.greatest_extension(g))
    for x in built:
        assert_dense(x)


def chain(n, ks=None):
    """A path on ``n`` vertices with distinct weights k/4: drawn with a fixed
    seed, or the given ``ks`` in path order."""
    ks = ks or random.Random(0).sample(range(1, 8 * n), n - 1)
    names = [f"v{i}" for i in range(n)]
    return ug.build_graph(names, [(names[i], names[i + 1], Fraction(k, 4)) for i, k in enumerate(ks)])


@contextmanager
def counted(name):
    """Count the calls of the Fraction method ``name``."""
    calls = []
    method = getattr(Fraction, name)

    def counting(*args):
        calls.append(None)
        return method(*args)

    with mock.patch.object(Fraction, name, counting):
        yield calls


@contextmanager
def conversions(name):
    """Record each cell the ``io`` converter ``name`` is given."""
    cells = []
    convert = getattr(io, name)

    def recording(cell):
        cells.append(cell)
        return convert(cell)

    with mock.patch.object(io, name, recording):
        yield cells


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_parse_matrix_neither_hashes_nor_sorts_fractions(fmt):
    # 200 distinct values over 40,000 cells, every one a str
    m = ug.subdominant_matrix(chain(200))
    text = ug.emit_matrix(m, fmt)
    convert = {"json": "_json_weight", "csv": "parse_weight"}[fmt]
    with counted("__hash__") as hashes, counted("__lt__") as less, conversions(convert) as cells:
        back = ug.parse_matrix(text, fmt)
    assert back == m
    assert len(hashes) == len(less) == 0  # the sign is read off the numerator
    assert sorted(cells) == sorted(map(ug.format_weight, m._values))  # each once


def test_distance_matrix_hashes_no_fraction_cell():
    m = ug.subdominant_matrix(chain(200))
    fresh = [[Fraction(x) for x in row] for row in m.entries]
    for rows in (m.entries, fresh):  # one object per value, and one per cell
        with counted("__hash__") as hashes:
            built = ug.distance_matrix(m.vertices, rows)
        assert built == m
        assert len(hashes) == 0


# Cells that are equal across types are still converted apart: a float is
# refused, True converts like 1, and the first bad cell in row-major order
# is the one reported.
@pytest.mark.parametrize("mix", [
    [1, True, Fraction(1), "1"],
    [True, 1, "1/1", Fraction(1)],
    [Fraction(1), 1, 1.0, True],
    [1, "1", True, 1.0],
    [1.0, 1, Fraction(1), True],
    ["1", Fraction(1), 1, [1]],
    ["1", "1.0", 1, "-1"],
])
def test_mixed_cells_keep_their_values_and_errors(mix):
    names = ["a", "b", "c", "d", "e"]
    rows = [[0 if i == j else mix[(i + j) % len(mix)] for j in range(5)] for i in range(5)]
    got = outcome(ug.distance_matrix, names, rows)
    try:
        want = per_cell(names, rows)
    except (ug.UltragraphError, TypeError) as exc:
        assert got == (type(exc), str(exc))
    else:
        assert_same(as_built(got), want)


# Literals in the forms format_weight writes are read without Fraction's
# grammar; Fraction stays the authority on every other string.

LITERAL_TEXT = st.one_of(
    st.text(st.sampled_from("0123456789٣_./eE+- \t"), max_size=10),
    st.from_regex(r"[0-9]{1,5}(/[0-9]{1,5}|\.[0-9]{1,5})?", fullmatch=True),
    st.sampled_from(["1/0", "0/0", "00/00", "1.", ".5", "1_0", "٣/٣", " 1/2 ", "-0.50", "+7"]),
)


@settings(max_examples=1000, deadline=None)
@given(LITERAL_TEXT)
def test_literal_value_reads_what_fraction_reads(text):
    exp = graph._EXPONENT.search(text)
    assume(not exp or abs(int(exp[1])) <= graph._LITERAL_LIMIT)  # past it, refused unread
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ug.ParseError, match=re.escape(f"bad weight literal {text!r}")):
            io._literal_value(text)
    else:
        got = io._literal_value(text)
        assert type(got) is Fraction and got == want


# The JSON emitter writes each row's joined text; json.dumps of the whole
# document is the reference, byte for byte.

NAME_TEXT = st.text(st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\u2028", "é", "😀", "a", ","]),
                    max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(NAME_TEXT, min_size=1, max_size=5, unique=True), st.data())
def test_json_emit_is_json_dumps_of_the_document(names, data):
    n = len(names)
    cells = [[data.draw(ENTRIES) for _ in range(n)] for _ in range(n)]
    if data.draw(st.booleans()):  # a classified matrix beyond none
        for i in range(n):
            cells[i][i] = Fraction(0)
            for j in range(i):
                cells[i][j] = cells[j][i]
    m = ug.distance_matrix(names, cells)
    doc = {"vertices": names, "matrix": [[ug.format_weight(x) for x in row] for row in cells],
           "axiom_class": m.axiom_class.value}
    assert ug.emit_matrix(m, "json") == json.dumps(doc, separators=(",", ":"))
    assert ug.parse_matrix(ug.emit_matrix(m, "json")) == m


# The strong triangle is decided in O(n²) by a certificate over each
# vertex's nearest earlier vertex; the cubic scan runs only to find
# validate's witness.


@st.composite
def strong_triangle_cases(draw, min_n=0):
    """Symmetric zero-diagonal integer rows on up to 12 vertices: a planted
    ultrametric (random merges at nondecreasing heights from 0, so early
    merges make zero classes), the same with one pair moved up or down or
    with the last vertex's row redrawn so that several earlier vertices tie
    as its nearest, or heavy ties over {0, 1, 2}."""
    n = draw(st.integers(min_n, 12))
    rows = [[0] * n for _ in range(n)]
    kind = draw(st.sampled_from(["planted", "perturbed", "nearest-tie", "ties"]))
    if kind == "ties":
        for i, j in combinations(range(n), 2):
            rows[i][j] = rows[j][i] = draw(st.integers(0, 2))
        return rows
    clusters, height = [[v] for v in range(n)], 0
    while len(clusters) > 1:
        a, b = draw(st.permutations(range(len(clusters))))[:2]
        height += draw(st.integers(0, 2))
        for u in clusters[a]:
            for v in clusters[b]:
                rows[u][v] = rows[v][u] = height
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    if kind == "perturbed" and n >= 2:
        i, j = draw(st.permutations(range(n)))[:2]
        rows[i][j] = rows[j][i] = max(0, rows[i][j] + draw(st.sampled_from([-1, 1])))
    if kind == "nearest-tie" and n >= 3:
        h, tied = draw(st.integers(0, 3)), draw(st.sets(st.integers(0, n - 2), min_size=2))
        for j in range(n - 1):
            rows[j][-1] = rows[-1][j] = h if j in tied else h + draw(st.integers(0, 2))
    return rows


@settings(max_examples=500, deadline=None)
@given(strong_triangle_cases())
def test_strong_triangle_certificate_matches_the_reference(rows):
    ranks = np.array(rows, dtype=np.int32).reshape(len(rows), len(rows))
    assert _strong_triangle_holds(ranks) == (reference_triangle_witness(rows, max) is None)


@settings(max_examples=500, deadline=None)
@given(strong_triangle_cases(min_n=1), st.sampled_from(["none", "asymmetry", "diagonal"]), st.data())
def test_validate_strong_triangle_matches_the_reference(rows, fault, data):
    n = len(rows)
    if fault == "asymmetry" and n >= 2:
        i, j = data.draw(st.permutations(range(n)))[:2]
        rows[i][j] += 1
    if fault == "diagonal":
        rows[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] += 1
    names = [f"v{i}" for i in range(n)]
    m = ug.distance_matrix(names, rows)
    for target in (AxiomClass.PSEUDOULTRAMETRIC, AxiomClass.ULTRAMETRIC):
        assert ug.validate(m, target) == reference_validate(rows, names, target)
    assert m.axiom_class is reference_class(rows)


def all_pairs_dendrogram(m):
    """dendrogram(m) as it merged all n(n-1)/2 pairs, not the n-1 edges to
    each vertex's nearest earlier vertex."""
    n = len(m.vertices)
    i, j = np.triu_indices(n, 1)
    pairs = np.stack([i, j, m.rank_array()[i, j]])
    return metrics._merge_tree(m.vertices, metrics._merge_levels(n, pairs, m._values))


@settings(max_examples=500, deadline=None)
@given(strong_triangle_cases(min_n=1),
       st.permutations(["b", "a", "v10", "v2", "v1", "B", "é", "A", "v0", "aa", "Z", "c"]))
def test_dendrogram_over_the_nearest_earlier_tree_matches_all_pairs(rows, labels):
    m = ug.distance_matrix(labels[:len(rows)], rows)
    assume(m.axiom_class.satisfies(AxiomClass.PSEUDOULTRAMETRIC))
    q = ug.quotient(m)[1]  # ties at one height make multiway nodes
    got, want = ug.dendrogram(q), all_pairs_dendrogram(q)
    assert got == want and repr(got) == repr(want)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.bool_, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6)),
       st.sampled_from(["drawn", "all-false", "last"]))
def test_first_is_the_first_argwhere_hit(bad, kind):
    if kind != "drawn":
        bad[...] = False
    if kind == "last" and bad.size:
        bad.flat[-1] = True
    for view in (bad, bad.T):  # a transpose is read in its own row-major order
        hits = np.argwhere(view)
        assert metrics._first(view) == (tuple(map(int, hits[0])) if len(hits) else None)


@contextmanager
def strong_scans():
    """Record each ``_scan_witness`` call that looks for a strong-triangle witness."""
    calls = []
    scan = metrics._scan_witness

    def recording(d, bound_of):
        result = scan(d, bound_of)
        if bound_of is np.maximum:
            calls.append(result)
        return result

    with mock.patch.object(metrics, "_scan_witness", recording):
        yield calls


def test_builders_decide_the_strong_triangle_without_the_scan():
    g = chain(200)
    with strong_scans() as scans:
        m = ug.subdominant_matrix(g)
        back = ug.parse_matrix(ug.emit_matrix(m, "json"))
        least = ug.least_extension(random_multipartite(random.Random(3), 3, 4, 4))
        tree = ug.matrix_from_dendrogram(ug.subdominant_dendrogram(g), m.vertices)
        assert ug.validate(m, AxiomClass.ULTRAMETRIC)
    assert scans == []
    assert m.axiom_class is back.axiom_class is tree.axiom_class is AxiomClass.ULTRAMETRIC
    assert least.axiom_class.satisfies(AxiomClass.PSEUDOULTRAMETRIC)
    assert back == tree == m


def test_validate_scans_for_the_witness_once_the_certificate_fails():
    m = ug.subdominant_matrix(chain(40))
    rows = [list(row) for row in m.entries]
    rows[3][30] = rows[30][3] = rows[3][30] + 1  # above the path's bottleneck
    with strong_scans() as scans:
        bad = ug.distance_matrix(m.vertices, rows)
        assert scans == []  # classifying needs no witness
        verdict = ug.validate(bad, AxiomClass.PSEUDOULTRAMETRIC)
    assert bad.axiom_class is not AxiomClass.PSEUDOULTRAMETRIC
    w = reference_triangle_witness(rows, max)
    assert scans == [w] and w is not None
    assert verdict == Verdict(False, "strong-triangle", tuple(m.vertices[k] for k in w))


def test_newick_of_a_long_path_builds_no_node_and_formats_each_pair_once():
    # Weights increasing along the path: a caterpillar 9,999 nodes deep. Its
    # 19,998 branches join 19,997 distinct pairs of heights, as the lowest
    # node's two leaves hang from it at one height.
    n = 10**4
    g = chain(n, ks=range(1, n))
    levels = metrics._merge_levels(n, g._edge_columns, g._levels)
    want = reference_emit_newick(reference_merge_tree(g.vertices, levels))
    small = chain(200)
    with mock.patch.object(metrics, "_view", wraps=metrics._view) as views, \
            mock.patch.object(metrics.Dendrogram, "__init__", side_effect=AssertionError("a node")), \
            mock.patch.object(io, "_terminating_decimal", wraps=io._terminating_decimal) as formats:
        assert ug.emit_newick(ug.subdominant_dendrogram(g)) == want
        assert views.call_count == 1  # the root, returned as a view
        assert formats.call_count == 2 * n - 3
        m = ug.matrix_from_dendrogram(ug.subdominant_dendrogram(small), small.vertices)
        assert views.call_count == 2
    assert m == ug.subdominant_matrix(small)


def test_a_caterpillar_round_trips_to_the_subdominant_matrix():
    # Weights increasing along a path of 1,000 vertices: each merge adds
    # one leaf, so the merge tree is a caterpillar 999 nodes deep.
    g = chain(1000, ks=range(1, 1000))
    m = ug.subdominant_matrix(g)
    back = ug.matrix_from_dendrogram(ug.subdominant_dendrogram(g), m.vertices)
    assert back == m
    assert back.axiom_class is AxiomClass.ULTRAMETRIC


def union_find_merge_levels(n, edges, values):
    """``metrics._merge_levels`` as a union-find with path halving and union
    by size, the body the quick-find core replaced; each level's roots are
    every vertex's ``find`` once its merges are done."""
    parent, size = list(range(n)), [1] * n

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for k, batch in groupby(sorted(edges, key=itemgetter(2)), key=itemgetter(2)):
        batch = list(batch)
        roots = [(find(i), find(j)) for i, j, _ in batch]
        closers = [e for e, (ra, rb) in zip(batch, roots) if ra == rb]
        merges = []
        for ra, rb in roots:
            ra, rb = find(ra), find(rb)
            if ra == rb:
                continue
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            merges.append((ra, rb, size[ra], size[rb]))
            parent[rb] = ra
            size[ra] += size[rb]
        yield values[k], closers, merges, [find(v) for v in range(n)]


def assert_same_merges(n, columns, values):
    """The merge core over the index edge ``columns`` against the union-find
    body over the same edges as triples, in the same order. The core hands
    out one root list that each level changes, so its roots are copied."""
    got = [(w, closers, merges, list(roots))
           for w, closers, merges, roots in metrics._merge_levels(n, columns, values)]
    assert got == list(union_find_merge_levels(n, zip(*columns.tolist()), values))


@st.composite
def merge_core_graphs(draw):
    rng = random.Random(draw(st.integers(0, 10**9)))
    kind = draw(st.sampled_from(["corpus", "multipartite", "disconnected"]))
    if kind == "multipartite":  # dense, with many edges to a level
        return random_multipartite(rng, 2, 6, 5)
    g = random_connected_graph(rng, 1, 12)
    if kind == "disconnected":
        g = disjoint_union(g, random_connected_graph(rng, 1, 8))
    return g


@settings(max_examples=300, deadline=None)
@given(merge_core_graphs(), st.randoms())
def test_merge_core_matches_union_find(g, rng):
    n, columns = len(g.vertices), g._edge_columns
    assert_same_merges(n, columns, g._levels)
    # Callers also pass edges in other orders: permuted, and as the tree
    # ``dendrogram`` merges, each vertex joined to its nearest earlier one.
    assert_same_merges(n, columns[:, rng.sample(range(columns.shape[1]), columns.shape[1])], g._levels)
    if ug.is_connected(g):
        m = ug.subdominant_matrix(g)
        k = np.arange(1, n)
        parent = metrics._nearest_earlier(m.rank_array())[1][1:]
        assert_same_merges(n, np.stack([k, parent, m.rank_array()[k, parent]]), m._values)


@pytest.mark.parametrize("ks", [range(1, 1000), range(999, 0, -1), None])
def test_merge_core_matches_union_find_on_a_deep_path(ks):
    # Increasing weights grow one cluster a vertex at a time from one end,
    # decreasing ones from the other; the seeded order mixes cluster sizes.
    g = chain(1000, ks=ks)
    assert_same_merges(1000, g._edge_columns, g._levels)


# A matrix is its ranks: the builders fill single-linkage clusters as
# intervals of one leaf order, against the member-list bodies they
# replaced, and ``entries`` is built only when read.


@settings(max_examples=300, deadline=None)
@given(twice_max_graphs(max_n=24, kinds=("corpus", "zero-heavy")), st.booleans(), st.randoms())
def test_interval_fills_match_the_member_list_bodies(g, wide, rng):
    with stand_ins(wide):
        g = ug.build_graph(g.vertices, list(g.weighted_edges()))
        m = ug.subdominant_matrix(g)
        same_matrix(m, member_list_subdominant_matrix(g))
        d = ug.subdominant_dendrogram(g)
        order = rng.sample(d.leaves(), len(d.leaves()))
        for verts in (None, order):
            same_matrix(ug.matrix_from_dendrogram(d, verts),
                        member_list_matrix_from_dendrogram(d, verts))
    assert ug.well_chained_pairs(g) == reference_well_chained_pairs(g)


@pytest.mark.parametrize("wide", [False, True])
def test_the_caterpillar_matches_the_member_list_bodies(wide):
    # Each merge adds one leaf, so the member lists were copied 999 times.
    with stand_ins(wide):
        g = chain(1000, ks=range(1, 1000))
        m = ug.subdominant_matrix(g)
        same_matrix(m, member_list_subdominant_matrix(g))
        d = ug.subdominant_dendrogram(g)
        for verts in (None, m.vertices):
            same_matrix(ug.matrix_from_dendrogram(d, verts),
                        member_list_matrix_from_dendrogram(d, verts))


# What a matrix compared, hashed and printed as when it was a dataclass
# of its vertices, entries and class.
FieldForm = make_dataclass("DistanceMatrix", ["vertices", "entries", "axiom_class"], frozen=True)


def field_form(m):
    return FieldForm(m.vertices, m.entries, m.axiom_class)


@settings(max_examples=150, deadline=None)
@given(twice_max_graphs(max_n=8))
def test_matrices_are_equal_exactly_when_their_entries_are(g):
    sub = ug.subdominant_matrix(g)
    parts, q = ug.quotient(sub)
    d = ug.subdominant_dendrogram(g)
    rows = [list(row) for row in sub.entries]
    built = [
        sub, ug.shortest_path_matrix(g), q,
        ug.distance_matrix(g.vertices, rows),
        ug.parse_matrix(ug.emit_matrix(sub, "csv"), "csv"),
        ug.matrix_from_dendrogram(d), ug.matrix_from_dendrogram(d, q.vertices),
        # the same ranks over other values; the same cells in another order,
        # under the same names and under the names moved with them
        ug.distance_matrix(g.vertices, [[2 * x for x in row] for row in rows]),
        ug.distance_matrix(g.vertices, [row[::-1] for row in rows[::-1]]),
        ug.distance_matrix(g.vertices[::-1], [row[::-1] for row in rows[::-1]]),
    ]
    if ug.is_pseudoultrametrizable(g).pseudoultrametrizable:
        built.append(ug.greatest_extension(g))
    for a, b in product(built, repeat=2):
        assert (a == b) == (field_form(a) == field_form(b))
        if a == b:
            assert hash(a) == hash(b)
    for a in built:
        assert repr(a) == repr(field_form(a))


def test_no_library_path_builds_entries():
    g = random_multipartite(random.Random(3), 3, 4, 4)
    sub = ug.subdominant_matrix(g)
    q = ug.quotient(sub)[1]
    made = [sub, q, ug.shortest_path_matrix(g), ug.least_extension(g),
            ug.distance_matrix(g.vertices, [[0] * len(g.vertices)] * len(g.vertices)),
            ug.matrix_from_dendrogram(ug.subdominant_dendrogram(g)),
            ug.matrix_from_dendrogram(ug.dendrogram(q), q.vertices)]
    made += [ug.parse_matrix(ug.emit_matrix(m, fmt), fmt) for m in made for fmt in ("json", "csv")]
    for m in made:
        assert ug.compare(m, m) is PartialOrderResult.EQUAL
        for target in AxiomClass:
            ug.validate(m, target)
        ug.matrix_to_complete_graph(m)
        m.entry(m.vertices[0], m.vertices[-1])
        if m.axiom_class is AxiomClass.ULTRAMETRIC:
            ug.dendrogram(m)
    long = ug.distance_matrix("ab", [[0, 10**6000], [10**5000, 0]])
    with pytest.raises(ug.DigitLimitError, match="about 6000 digits"):
        ug.emit_matrix(long)
    made.append(long)
    assert [m.vertices for m in made if "entries" in m.__dict__] == []


# The twice-max analysis walks the merge levels and builds a block forest
# only at levels with a closer, against the body that built one per level.


def reference_block_forest(adj):
    """Block-vertex forest of index adjacency lists, by iterative
    Hopcroft–Tarjan: each vertex's component root, each node's parent (the
    vertices, then one node per block), the vertices in discovery order,
    and node keys that grow from parent to child."""
    n = len(adj)
    disc, low, root, parent = [-1] * n, [0] * n, list(range(n)), [-1] * n
    order = []
    for r in range(n):
        if disc[r] >= 0:
            continue
        disc[r] = low[r] = len(order)
        order.append(r)
        stack, work = [r], [(r, iter(adj[r]))]
        while work:
            u, nbs = work[-1]
            v = next(nbs, -1)
            if v < 0:
                work.pop()
                if not work:
                    continue
                pu = work[-1][0]
                low[pu] = min(low[pu], low[u])
                if low[u] >= disc[pu]:  # pu and u's subtree form a block
                    parent.append(pu)
                    while disc[stack[-1]] >= disc[u]:
                        parent[stack.pop()] = len(parent) - 1
            elif disc[v] < 0:
                disc[v] = low[v] = len(order)
                order.append(v)
                root[v] = r
                stack.append(v)
                work.append((v, iter(adj[v])))
            else:
                low[u] = min(low[u], disc[v])
    key = [2 * d for d in disc] + [2 * disc[u] + 1 for u in parent[n:]]
    return root, parent, order, key


def forest_per_level_analysis(g):
    """(the twice-max index pairs in row-major order, the level of each
    other nonadjacent pair), one block-vertex forest per weight level."""
    metrics._require_connected(g)

    n = len(g.vertices)
    levels = [[] for _ in g._levels]
    for i, j, k in edge_triples(g):
        levels[k].append((i, j))
    joined = {(i, j) for i, j, _ in edge_triples(g)}
    unresolved = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in joined
    ]
    values = {}
    adj = [[] for _ in range(n)]  # the lighter graph
    for w, batch in enumerate(levels):
        if not unresolved:
            break
        comp, parent, order, key = reference_block_forest(adj)
        hot = [False] * len(parent)
        top = list(range(len(parent)))

        def find(a):
            while top[a] != a:
                top[a] = top[top[a]]
                a = top[a]
            return a

        cross = set()
        for x, y in batch:
            if comp[x] != comp[y]:
                cross |= {(comp[x], comp[y]), (comp[y], comp[x])}
                continue
            a, b = find(x), find(y)
            while a != b:
                if key[a] < key[b]:
                    a, b = b, a
                hot[a], top[a] = True, parent[a]
                a = find(a)
            hot[a] = True
        piece = list(range(n))
        for v in order:
            if parent[v] >= 0 and not hot[parent[v]]:
                piece[v] = piece[parent[parent[v]]]

        still = []
        for p, q in unresolved:
            if piece[p] != piece[q] and (comp[p] == comp[q] or (comp[p], comp[q]) in cross):
                values[p, q] = w
            else:
                still.append((p, q))
        unresolved = still
        for x, y in batch:
            adj[x].append(y)
            adj[y].append(x)

    return unresolved, values


def merge_walk_analysis(g):
    """``_twice_max_analysis`` in the reference's form."""
    p, q, level = ug.extension._twice_max_analysis(g)
    pairs = list(zip(p.tolist(), q.tolist(), level.tolist()))
    return [(a, b) for a, b, k in pairs if k < 0], {(a, b): k for a, b, k in pairs if k >= 0}


def planted_multipartite(rng, n_max):
    """Complete multipartite graph on at most ``n_max`` vertices, weighted by
    a random ultrametric sent through a nondecreasing map with 0 at 0, so
    the weighting extends and ties and zero weights are common."""
    sizes = []
    while len(sizes) < 2 or (sum(sizes) < n_max and rng.random() < 0.7):
        sizes.append(rng.randint(1, max(1, min(8, n_max // 3))))
    while sum(sizes) > n_max:
        sizes.pop()
    names = [f"v{i}" for i in range(sum(sizes))]
    part = dict(zip(rng.sample(names, len(names)), [k for k, s in enumerate(sizes) for _ in range(s)]))
    um = random_ultrametric(rng, names)
    cut, step = Fraction(rng.randint(0, 3), 4), Fraction(1, rng.choice([1, 2, 4]))

    def squash(w):
        return max(Fraction(0), (w - cut) // step * step)

    edges = [(u, v, squash(um.entry(u, v))) for u, v in combinations(names, 2) if part[u] != part[v]]
    return ug.build_graph(names, edges)


def random_sparse(rng, n_max, connected=True):
    """Random graph on 1 to ``n_max`` vertices with weights from a small
    pool that may hold 0, so closers come at several levels."""
    n = rng.randint(1, n_max)
    names = [f"v{i}" for i in range(n)]
    pairs = {(rng.randrange(i), i) for i in range(1, n)} if connected else set()
    density = rng.choice([0.05, 0.15, 0.4])
    pairs |= {(i, j) for i, j in combinations(range(n), 2) if rng.random() < density}
    pool = rng.sample([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)], rng.randint(1, 5))
    return ug.build_graph(names, [(names[i], names[j], rng.choice(pool)) for i, j in sorted(pairs)])


@st.composite
def analysis_graphs(draw, max_n=30):
    rng = random.Random(draw(st.integers(0, 10**9)))
    kind = draw(st.sampled_from(("sparse", "multipartite", "disconnected", "planted")))
    if kind == "multipartite":
        return planted_multipartite(rng, max_n)
    if kind == "disconnected":
        return random_sparse(rng, max_n, connected=False)
    g = random_sparse(rng, max_n)
    if kind == "planted":  # the same edges under an extendable weighting
        um = random_ultrametric(rng, list(g.vertices))
        g = ug.build_graph(g.vertices, [(u, v, um.entry(u, v)) for u, v, _ in g.weighted_edges()])
    return g


@settings(max_examples=400, deadline=None)
@given(analysis_graphs())
def test_twice_max_analysis_matches_the_forest_per_level_body(g):
    # The unresolved list in order, the pair -> level map, and the
    # DisconnectedError with its message.
    assert outcome(merge_walk_analysis, g) == outcome(forest_per_level_analysis, g)


@st.composite
def shuffled_adjacency(draw):
    """Index adjacency lists, each in random order: blocks (an edge, a
    cycle or a small clique) glued at one vertex or starting a new
    component, a few chords, and isolated vertices."""
    rng = random.Random(draw(st.integers(0, 10**9)))
    n, edges = 1, set()
    for _ in range(rng.randint(0, 6)):
        size, glue = rng.randint(2, 5), rng.random() < 0.8  # glued at an earlier vertex?
        block = [rng.randrange(n)] * glue + list(range(n, n + size - glue))
        n += size - glue
        if rng.random() < 0.5:  # a clique
            edges |= set(combinations(block, 2))
        else:  # a cycle, or one edge
            edges |= {tuple(sorted(e)) for e in zip(block, block[1:] + block[:1])}
    n += rng.randint(0, 3)  # isolated vertices
    edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 2)) if n > 1}
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    for nbs in adj:
        rng.shuffle(nbs)
    return adj


PATH_5000 = [[1], *([i - 1, i + 1] for i in range(1, 4999)), [4998]]


@settings(max_examples=300, deadline=None)
@given(shuffled_adjacency())
@example(PATH_5000)
def test_every_edge_lies_in_the_block_of_its_later_found_end(adj):
    n = len(adj)
    parent, order, disc = ug.extension._block_forest(adj)
    assert sorted(order) == list(range(n)) and [disc[v] for v in order] == list(range(n))
    members = {b: {parent[b]} for b in range(n, len(parent))}
    for v in range(n):
        if parent[v] >= 0:
            members[parent[v]].add(v)
    for x in range(n):
        for y in adj[x]:
            b = parent[x if disc[x] > disc[y] else y]
            assert b >= n and {x, y} <= members[b]  # its parent vertex or one of its children
    h = nx.Graph((x, y) for x in range(n) for y in adj[x])  # the blocks are its biconnected components
    assert sorted(map(sorted, members.values())) == sorted(map(sorted, nx.biconnected_components(h)))


@st.composite
def closer_dense_graphs(draw):
    """A connected graph on 2 to 14 vertices: a random spanning tree at
    weight 0, and 1 to 3 higher levels, each holding several chords of the
    tree, which close cycles, so tree paths of one level's closers often
    share a block. A few tree edges are lifted to a chord level."""
    rng = random.Random(draw(st.integers(0, 10**9)))
    n = rng.randint(2, draw(st.sampled_from((8, 14))))
    levels = rng.randint(1, 3)
    tree = {(rng.randrange(i), i) for i in range(1, n)}
    weights = {e: (rng.randint(1, levels) if rng.random() < 0.15 else 0) for e in tree}
    chords = [e for e in combinations(range(n), 2) if e not in tree]
    for e in rng.sample(chords, min(len(chords), rng.randint(levels, 4 * levels))):
        weights[e] = rng.randint(1, levels)
    names = [f"v{i}" for i in range(n)]
    return ug.build_graph(names, [(names[i], names[j], w) for (i, j), w in sorted(weights.items())])


@settings(max_examples=300, deadline=None)
@given(closer_dense_graphs())
def test_closer_levels_match_the_forest_per_level_body(g):
    assert outcome(merge_walk_analysis, g) == outcome(forest_per_level_analysis, g)
    if len(g.vertices) <= 8:
        assert ug.twice_max_pairs(g) == oracle.oracle_twice_max(g)


@settings(max_examples=200, deadline=None)
@given(analysis_graphs())
def test_the_subdominant_tree_takes_connectivity_from_its_merges(g):
    comps = ug.connected_components(g).blocks
    apart = len(comps) > 1 and (ug.DisconnectedError, str(ug.DisconnectedError(comps[0][0], comps[1][0])))
    with mock.patch.object(metrics, "connected_components", wraps=graph.connected_components) as bfs:
        got = outcome(ug.subdominant_dendrogram, g)
    assert got == apart if apart else isinstance(got, ug.Dendrogram)
    # A search only to name two components of a disconnected graph.
    assert bfs.call_count == (1 if apart else 0)


@settings(max_examples=200, deadline=None)
@given(analysis_graphs())
def test_the_twice_max_walk_searches_components_only_to_name_them(g):
    # The walk reads connectivity off the merge core's last roots.
    comps = ug.connected_components(g).blocks
    apart = len(comps) > 1 and (ug.DisconnectedError, str(ug.DisconnectedError(comps[0][0], comps[1][0])))
    with mock.patch.object(metrics, "connected_components", wraps=graph.connected_components) as bfs:
        got = outcome(ug.twice_max_pairs, g)
        assert got == apart if apart else isinstance(got, frozenset)
        assert bfs.call_count == (1 if apart else 0)
        bfs.reset_mock()
        got = outcome(ug.is_unique_extension, g)  # a closer may come first
        assert bfs.call_count == (1 if apart and got == apart else 0)
        bfs.reset_mock()
        outcome(ug.least_extension, g)  # complete multipartite, so connected
        assert bfs.call_count == 0


def reference_least_ranks(g):
    """The least extension's rank array as the per-pair loop filled it."""
    _, values = forest_per_level_analysis(g)  # twice-max pairs stay at 0
    table, rank = graph._ranked((Fraction(0), *g._levels))
    ranks = np.zeros((len(g.vertices),) * 2, dtype=np.int32)
    for i, j, k in [*edge_triples(g), *((p, q, k) for (p, q), k in values.items())]:
        ranks[i, j] = ranks[j, i] = rank[k + 1]
    return table, ranks


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_least_extension_fills_what_the_per_pair_loop_filled(seed):
    g = planted_multipartite(random.Random(seed), 60)
    got = ug.least_extension(g)
    table, ranks = reference_least_ranks(g)
    assert_dense(got)
    assert got._values == table
    assert np.array_equal(got.rank_array(), ranks)


def closer_weights(g):
    """The weights at which an edge closes a cycle of strictly lighter edges."""
    found = []
    for w in sorted({w for _, _, w in g.weighted_edges()}):
        comps = ug.connected_components(ug.strict_threshold_subgraph(g, w))
        block = {v: k for k, vs in enumerate(comps.blocks) for v in vs}
        if any(block[u] == block[v] for u, v, x in g.weighted_edges() if x == w):
            found.append(w)
    return found


@settings(max_examples=200, deadline=None)
@given(analysis_graphs().filter(lambda g: len(ug.connected_components(g)) == 1))
def test_block_forests_are_built_only_at_levels_with_a_closer(g):
    with mock.patch.object(ug.extension, "_block_forest", wraps=ug.extension._block_forest) as built:
        pairs, values = named_twice_max_analysis(g)
        if not ug.is_pseudoultrametrizable(g).pseudoultrametrizable:
            # A closer level is reached while some pair is still unresolved.
            assert built.call_count == sum(
                1 for w in closer_weights(g) if pairs or any(v >= w for v in values.values())
            )
            return
        assert not closer_weights(g) and built.call_count == 0
        assert ug.twice_max_pairs(g) == pairs
        assert ug.is_unique_extension(g) == (pairs <= ug.well_chained_pairs(g))
        if len(ug.multipartite_parts(g) or ()) >= 2:
            ug.least_extension(g)
        assert built.call_count == 0


def composed_unique(g):
    """``is_unique_extension`` as an extendability pass, then the twice-max
    pairs against the well-chained ones."""
    rep = ug.is_pseudoultrametrizable(g)
    if not rep.pseudoultrametrizable:
        raise ug.NotExtendableError(rep.witness)
    return ug.twice_max_pairs(g) <= ug.well_chained_pairs(g)


@settings(max_examples=200, deadline=None)
@given(analysis_graphs(), st.integers(0, 10**9))
def test_least_and_unique_extension_decide_extendability_in_their_own_walk(g, seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:  # the same edges under small weights, which often close a cycle
        g = ug.build_graph(g.vertices, [(u, v, rng.randint(0, 3)) for u, v, _ in g.weighted_edges()])
    rep, unique = ug.is_pseudoultrametrizable(g), outcome(composed_unique, g)
    patch = mock.patch.object
    with patch(ug.extension, "_merge_levels", wraps=metrics._merge_levels) as passes, \
            patch(ug.extension, "_block_forest", wraps=ug.extension._block_forest) as built:
        # The same verdict, and the same witness or DisconnectedError in the same order.
        assert outcome(ug.is_unique_extension, g) == unique
        # One walk over all edges, then a pass over the zero-weight edges for a verdict.
        assert passes.call_count == (2 if isinstance(unique, bool) else 1)
        if len(ug.multipartite_parts(g) or ()) >= 2:
            least = outcome(ug.least_extension, g)
            assert passes.call_count == (3 if isinstance(unique, bool) else 2)
            if rep.pseudoultrametrizable:
                assert not isinstance(least, tuple)
            else:
                assert least == (ug.NotExtendableError, str(ug.NotExtendableError(rep.witness)))
        assert built.call_count == 0


# Witness cycles against the search they replaced: the first closer in
# level order, then canonical order, and a breadth-first search by vertex
# name over the subgraph of strictly lighter edges.


def reference_bfs_path(g, start, goal):
    """Shortest-by-edges path in canonical exploration order, or None."""
    if start == goal:
        return [start]
    prev = {start: start}
    queue = [start]
    for u in queue:
        for nb in g.neighbors(u):
            if nb in prev:
                continue
            prev[nb] = u
            if nb == goal:
                path = [nb]
                while path[-1] != start:
                    path.append(prev[path[-1]])
                path.reverse()
                return path
            queue.append(nb)
    return None


def reference_witness(g):
    for u, v, w in sorted(g.weighted_edges(), key=itemgetter(2)):  # stable: canonical within a level
        path = reference_bfs_path(ug.strict_threshold_subgraph(g, w), u, v)
        if path is not None:
            return ug.Cycle(tuple(path))
    return None


# Repeats make ties at a closer's level and several closers per level.
WITNESS_WEIGHTS = [
    Fraction(0), Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(1), Fraction(2),
]


@st.composite
def witness_graphs(draw):
    """Vertices named out of index order, and weighted edges: a random
    graph, two of them side by side, or a complete multipartite graph."""
    kind = draw(st.sampled_from(["random", "disconnected", "multipartite"]))
    if kind == "multipartite":
        part = draw(st.lists(st.integers(0, 3), min_size=2, max_size=10).filter(lambda p: len(set(p)) > 1))
        n = len(part)
        pairs = [(i, j) for i, j in combinations(range(n), 2) if part[i] != part[j]]
    else:
        n = draw(st.integers(3, 9))
        pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True))
        if kind == "disconnected":
            pairs += [(n + i, n + j) for i, j in pairs]
            n *= 2
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    return names, [(names[i], names[j], draw(st.sampled_from(WITNESS_WEIGHTS))) for i, j in pairs]


@settings(max_examples=400, deadline=None)
@given(witness_graphs(), st.booleans())
def test_witnesses_match_the_name_search_over_the_lighter_subgraph(data, wide):
    with stand_ins(wide):
        g = ug.build_graph(*data)
        want = reference_witness(g)
        assert ug.is_pseudoultrametrizable(g) == ug.ExtendabilityReport(want is None, want)
        if want is None:
            return
        raisers = [ug.is_unique_extension]
        if len(ug.multipartite_parts(g) or ()) >= 2:
            raisers.append(ug.least_extension)
        for f in raisers:
            with pytest.raises(ug.NotExtendableError) as info:
                f(g)
            assert info.value.witness == want
