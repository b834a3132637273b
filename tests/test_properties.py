"""Property-based checks pitting the fast implementations against the
brute-force oracles and against each other."""

import random
from collections import deque
from contextlib import nullcontext
from fractions import Fraction
from itertools import combinations, groupby
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import ultragraph as ug
from ultragraph import AxiomClass, PartialOrderResult, Verdict, metrics, oracle
from ultragraph.extension import _twice_max_analysis
from ultragraph.metrics import _exact_array, _recode_ranks, _scan_witness

from corpus import (
    atlas_graphs,
    disjoint_union,
    from_networkx,
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
    return mock.patch.object(metrics, "_SCALE_BITS", 0) if wide else nullcontext()


def reference_triangle_witness(rows):
    n = len(rows)
    for z in range(n):
        for x in range(n):
            for y in range(n):
                if rows[x][y] > rows[x][z] + rows[z][y]:
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


def reference_validate(m, target):
    rows, names = m.entries, m.vertices
    n = len(rows)
    for i, j in combinations(range(n), 2):
        if rows[i][j] != rows[j][i]:
            return Verdict(False, "asymmetry", (names[i], names[j]))
    for i in range(n):
        if rows[i][i] != 0:
            return Verdict(False, "nonzero-diagonal", (names[i],))
    w = reference_triangle_witness(rows)
    if w:
        return Verdict(False, "triangle", tuple(names[k] for k in w))
    if target is AxiomClass.METRIC:
        for i in range(n):
            for j in range(n):
                if i != j and rows[i][j] == 0:
                    return Verdict(False, "zero-off-diagonal", (names[i], names[j]))
    return ug.PASS


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
    assert _exact_array([[Fraction(2**62 - 1)]]).dtype == np.int64
    assert _exact_array([[Fraction(2**62)]]).dtype == object
    big = _exact_array([[Fraction(1, 2), Fraction(2**62, 3)]] * 2)
    assert big.dtype == object and big.tolist()[0] == [3, 2**63]


def test_exact_array_keeps_fractions_past_the_scale_width():
    # 2**k + 1 and 2**k + 3 are coprime, so their lcm has about 2k bits.
    narrow = [Fraction(1, 2**500 + 1), Fraction(1, 2**500 + 3)]
    assert _exact_array([narrow] * 2).tolist()[0] == [2**500 + 3, 2**500 + 1]
    wide = [Fraction(1, 2**600 + 1), Fraction(1, 2**600 + 3)]
    assert _exact_array([wide] * 2).tolist()[0] == wide
    g = ug.build_graph("abc", [("a", "b", wide[0]), ("b", "c", wide[1])])
    m = ug.shortest_path_matrix(g)
    assert m.entries == tuple(map(tuple, floyd_warshall(g)))
    assert m.axiom_class is AxiomClass.METRIC


@settings(max_examples=300, deadline=None)
@given(square_matrices(), st.booleans())
def test_triangle_witness_matches_fraction_loop(rows, wide):
    with stand_ins(wide):
        got = _scan_witness(_exact_array(rows), np.add)
    assert got == reference_triangle_witness(rows)


@settings(max_examples=200, deadline=None)
@given(square_matrices(), st.booleans())
def test_recode_ranks_matches_sort_based_recoding(rows, wide):
    with stand_ins(wide):
        got = _recode_ranks(_exact_array(rows))
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
    assert got == reference_validate(m, target)


@settings(max_examples=100, deadline=None)
@given(corpus_graphs(), st.booleans())
def test_shortest_path_matrix_matches_floyd_warshall(g, wide):
    with stand_ins(wide):
        m = ug.shortest_path_matrix(g)
        verdict = ug.validate(m, AxiomClass.PSEUDOMETRIC)
    d = floyd_warshall(g)
    assert m.entries == tuple(map(tuple, d))
    assert np.array_equal(m.rank_array(), reference_recode_ranks(d))
    assert verdict == reference_validate(m, AxiomClass.PSEUDOMETRIC)


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
def twice_max_graphs(draw, max_n=12):
    rng = random.Random(draw(st.integers(0, 10**9)))
    kind = draw(st.sampled_from(["corpus", "multipartite", "zero-heavy"]))
    if kind == "multipartite":
        return random_multipartite(rng, 2, 4, max_n // 4)
    g = random_connected_graph(rng, 1, max_n)
    if kind == "zero-heavy":
        g = random_weighting(rng, g, ZERO_HEAVY)
    return g


@settings(max_examples=300, deadline=None)
@given(twice_max_graphs())
def test_twice_max_analysis_matches_flow_reference(g):
    assert _twice_max_analysis(g) == reference_twice_max_analysis(g)


@settings(max_examples=150, deadline=None)
@given(twice_max_graphs(max_n=8))
def test_twice_max_analysis_matches_oracle(g):
    # A pair outside the family gets the least maximum over its paths
    # whose maximum is unique.
    pairs, values = _twice_max_analysis(g)
    assert pairs == oracle.oracle_twice_max(g)
    for (u, v), w in values.items():
        tops = []
        for path in oracle.enumerate_simple_paths(g, u, v):
            weights = [g.weight(a, b) for a, b in path.edges()]
            if weights.count(max(weights)) == 1:
                tops.append(max(weights))
        assert w == min(tops)


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
