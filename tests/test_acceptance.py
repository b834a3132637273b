"""Acceptance gate: ten criteria, one test each, budgets enforced.

Corpora are generated once per module from fixed seeds. Scales: 500
random connected graphs on 2-8 vertices (tie-heavy weights), 300 on at
most 7 vertices, 200 complete multipartite graphs with ultrametric-
restricted weights, and the full catalog of non-isomorphic graphs on at
most 6 vertices (networkx's graph atlas, the documented canonical
generator).
"""

import io as iomod
import math
import random
import time
from fractions import Fraction

import pytest

import ultragraph as ug
from ultragraph import AxiomClass, PartialOrderResult, oracle
from ultragraph.cli import main as cli_main

from corpus import (
    atlas_graphs,
    from_networkx,
    random_connected_graph,
    random_multipartite,
    random_ultrametric,
    random_weighting,
)


@pytest.fixture(scope="module")
def corpus_2_8():
    rng = random.Random(20260814)
    return [random_connected_graph(rng, 2, 8) for _ in range(500)]


@pytest.fixture(scope="module")
def corpus_le7():
    rng = random.Random(711)
    return [random_connected_graph(rng, 2, 7) for _ in range(300)]


@pytest.fixture(scope="module")
def corpus_multipartite():
    rng = random.Random(52)
    return [random_multipartite(rng) for _ in range(200)]


@pytest.fixture(scope="module")
def atlas():
    return [from_networkx(G) for G in atlas_graphs(6)]


def test_criterion_01_subdominant_matches_oracle(corpus_2_8):
    started = time.perf_counter()
    ties = 0
    for g in corpus_2_8:
        weights = [w for *_, w in g.weighted_edges()]
        if len(set(weights)) < len(weights):
            ties += 1
        m = ug.subdominant_matrix(g)
        for i, u in enumerate(g.vertices):
            for v in g.vertices[i + 1:]:
                assert m.entry(u, v) == oracle.oracle_subdominant(g, u, v)
    # the generator must actually produce tie-heavy weightings
    assert ties >= len(corpus_2_8) / 2
    assert time.perf_counter() - started < 30.0


def test_criterion_02_extendability_matches_oracle(corpus_2_8):
    started = time.perf_counter()
    for g in corpus_2_8:
        report = ug.is_pseudoultrametrizable(g)
        assert report.pseudoultrametrizable == oracle.oracle_cycle_condition(g)
        m = ug.subdominant_matrix(g)
        extends_edgewise = all(
            m.entry(u, v) == w for u, v, w in g.weighted_edges()
        )
        assert report.pseudoultrametrizable == extends_edgewise
        if not report.pseudoultrametrizable:
            report.witness.validate_in(g)
            assert len(report.witness.max_weight_edges(g)) == 1
    assert time.perf_counter() - started < 60.0


def test_criterion_03_twice_max_matches_oracle(corpus_le7):
    started = time.perf_counter()
    for g in corpus_le7:
        assert ug.twice_max_pairs(g) == oracle.oracle_twice_max(g)
    assert time.perf_counter() - started < 60.0


def test_criterion_04_axiom_suites_hold(corpus_2_8, corpus_le7, corpus_multipartite):
    for g in corpus_2_8 + corpus_le7:
        rho = ug.subdominant_matrix(g)
        assert ug.validate(rho, AxiomClass.PSEUDOULTRAMETRIC)
        d = ug.shortest_path_matrix(g)
        assert ug.validate(d, AxiomClass.PSEUDOMETRIC)
        assert ug.compare(rho, d) in (
            PartialOrderResult.EQUAL,
            PartialOrderResult.FIRST_LESS,
        )
    for g in corpus_multipartite:
        least = ug.least_extension(g)
        assert ug.validate(least, AxiomClass.PSEUDOULTRAMETRIC)


def test_criterion_05_sandwich_on_multipartite(corpus_multipartite):
    started = time.perf_counter()
    for g in corpus_multipartite:
        least = ug.least_extension(g)
        greatest = ug.greatest_extension(g)
        order = ug.compare(least, greatest)
        assert order in (
            PartialOrderResult.EQUAL,
            PartialOrderResult.FIRST_LESS,
        )
        for u, v, w in g.weighted_edges():
            assert least.entry(u, v) == w
            assert greatest.entry(u, v) == w
        assert ug.is_unique_extension(g) == (
            order is PartialOrderResult.EQUAL
        )
    assert time.perf_counter() - started < 60.0


def test_criterion_06_small_scale_characterizations(atlas):
    rng = random.Random(66)

    # (a) the two complete-multipartite routes agree on every graph
    for g in atlas:
        parts = ug.multipartite_parts(g)
        witness = ug.find_multipartite_obstruction(g)
        assert (parts is not None) == (witness is None)
        if witness is not None:
            u, v, p = witness
            assert g.has_edge(u, v)
            assert not g.has_edge(u, p) and not g.has_edge(v, p)

    def unique_max_weighting(g):
        # weight one cycle edge above everything else
        cycle = oracle.enumerate_simple_cycles(g)[0]
        heavy = next(iter(cycle.edges()))
        heavy = g.edge_key(*heavy)
        return ug.build_graph(
            g.vertices,
            [
                (u, v, 2 if (u, v) == heavy else 1)
                for u, v, _ in g.weighted_edges()
            ],
        )

    # (b) forests extend under every weighting; anything else refuses
    # some constructed weighting
    for g in atlas:
        if ug.is_forest(g):
            for _ in range(200):
                gw = random_weighting(rng, g)
                assert ug.is_pseudoultrametrizable(gw).pseudoultrametrizable
        else:
            bad = unique_max_weighting(g)
            report = ug.is_pseudoultrametrizable(bad)
            assert not report.pseudoultrametrizable
            report.witness.validate_in(bad)

    # (c) stars are exactly the graphs where every sampled weighting
    # extends and admits a least extension
    def always_extends_and_least_succeeds(g, samples):
        for gw in samples:
            if not ug.is_pseudoultrametrizable(gw).pseudoultrametrizable:
                return False
            try:
                ug.least_extension(gw)
            except (ug.NotCompleteMultipartiteError, ug.NotExtendableError):
                return False
        return True

    for g in atlas:
        if ug.is_star(g):
            samples = [random_weighting(rng, g) for _ in range(20)]
            assert always_extends_and_least_succeeds(g, samples)
        elif ug.is_forest(g):
            # includes edgeless graphs: extendability always holds, so
            # the least extension must be what fails
            samples = [random_weighting(rng, g)]
            assert not always_extends_and_least_succeeds(g, samples)
        else:
            samples = [unique_max_weighting(g)]
            assert not always_extends_and_least_succeeds(g, samples)


def test_criterion_07_chain_truncation():
    started = time.perf_counter()
    terminal_distances = []
    for n in range(1, 101):
        g = oracle.parallel_chains(n, [Fraction(1, k) for k in range(1, n + 1)])
        assert all(w > 0 for *_, w in g.weighted_edges())
        assert ug.is_pseudoultrametrizable(g).pseudoultrametrizable
        m = ug.subdominant_matrix(g)
        assert m.axiom_class is AxiomClass.ULTRAMETRIC
        terminal_distances.append(m.entry("u", "v"))
    assert terminal_distances[-1] == Fraction(1, 100)
    assert all(
        a > b for a, b in zip(terminal_distances, terminal_distances[1:])
    )
    assert time.perf_counter() - started < 1.0


def test_criterion_08_disconnected_behavior():
    g = ug.build_graph(
        ["a", "b", "c", "x", "y"],
        [("a", "b", 1), ("b", "c", 2), ("a", "c", 2), ("x", "y", 3)],
    )
    with pytest.raises(ug.DisconnectedError):
        ug.subdominant_matrix(g)
    with pytest.raises(ug.DisconnectedError):
        ug.greatest_extension(g)

    h1 = ug.augment(g, 0, {1: 1})
    h2 = ug.augment(g, 0, {1: 2})
    m1 = ug.greatest_extension(h1)
    m2 = ug.greatest_extension(h2)
    assert m1.entry("a", "x") == 1
    assert m2.entry("a", "x") == 2
    assert m1.entry("a", "x") != m2.entry("a", "x")

    rng = random.Random(88)
    for _ in range(10):
        g1 = random_connected_graph(rng, 2, 4)
        g2 = random_connected_graph(rng, 2, 4)
        joined = ug.build_graph(
            list(g1.vertices) + [v + "x" for v in g2.vertices],
            list(g1.weighted_edges())
            + [(u + "x", v + "x", w) for u, v, w in g2.weighted_edges()],
        )
        bridged = ug.augment(joined, 0, {1: rng.choice([0, 1, 2])})
        before = {c.vertices for c in oracle.enumerate_simple_cycles(joined)}
        after = {c.vertices for c in oracle.enumerate_simple_cycles(bridged)}
        assert before == after


def test_criterion_09_betweenness_exponent(corpus_2_8):
    tight = ug.distance_matrix(
        ["a", "b", "c"],
        [[0, 2, 1], [2, 0, 1], [1, 1, 0]],
    )
    assert abs(ug.betweenness_exponent(tight) - 1.0) <= 1e-9

    iso = ug.distance_matrix(
        ["a", "b", "c"],
        [
            [0, Fraction(3, 2), 1],
            [Fraction(3, 2), 0, 1],
            [1, 1, 0],
        ],
    )
    expected = math.log(2) / math.log(1.5)
    assert abs(ug.betweenness_exponent(iso) - expected) <= 1e-9

    rng = random.Random(99)
    for _ in range(100):
        names = [f"v{i}" for i in range(rng.randint(1, 8))]
        m = random_ultrametric(rng, names)
        assert ug.betweenness_exponent(m) == ug.INFINITE_EXPONENT

    for g in corpus_2_8:
        d = ug.shortest_path_matrix(g)
        infinite = ug.betweenness_exponent(d) == ug.INFINITE_EXPONENT
        assert infinite == bool(
            ug.validate(d, AxiomClass.PSEUDOULTRAMETRIC)
        )


def test_criterion_10_io_determinism(corpus_2_8, monkeypatch, capsys):
    for g in corpus_2_8:
        text = ug.emit_edge_list(g)
        reparsed = ug.parse_edge_list(text)
        assert ug.emit_edge_list(reparsed) == text
        first = ug.subdominant_matrix(g)
        second = ug.subdominant_matrix(reparsed)
        for fmt in ("json", "csv"):
            emitted = ug.emit_matrix(first, fmt)
            assert ug.emit_matrix(second, fmt) == emitted
            assert ug.emit_matrix(ug.parse_matrix(emitted, fmt), fmt) == emitted

    def run_cli(argv, stdin_text):
        stdin = iomod.TextIOWrapper(iomod.BytesIO(stdin_text.encode("utf-8")), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code = cli_main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    code, out, err = run_cli(["check"], "a b 1\nb c 2\na c 3\n")
    assert code == 1
    assert err == "witness-cycle: a,b,c\n"

    code, out, err = run_cli(["subdominant", "--format", "json"], "a b 5\n")
    assert code == 0
    assert out == (
        '{"vertices":["a","b"],'
        '"matrix":[["0","5"],["5","0"]],'
        '"axiom_class":"ultrametric"}\n'
    )

    code, out, err = run_cli(["unique"], "a b 1\nb c 2\nc d 1\na d 2\n")
    assert code == 0
    assert out == "unique\n"
