"""Random fixture generators shared by the unit, property and acceptance
suites, and the pair-table bodies that ``twice_max_pairs`` and
``well_chained_pairs`` replaced, kept as references, with a by-name view
of the twice-max analysis.

Weight pools are deliberately small for a coin-flip's worth of the
graphs (probability 0.6), which forces repeated values whenever a graph
has more edges than the pool has levels; ties are where the interesting
case splits live (multiple maximal edges, equal merge levels).
"""

from __future__ import annotations

import random
from fractions import Fraction

import networkx as nx
import numpy as np

import ultragraph as ug
from ultragraph.extension import _pieces
from ultragraph.graph import _csr
from ultragraph.metrics import _level_slices, _merge_levels, _require_connected

WEIGHT_POOL = [
    Fraction(0),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(1),
    Fraction(3, 2),
    Fraction(2),
    Fraction(3),
    Fraction(7, 2),
]


def _weight_levels(rng: random.Random, count: int) -> list[Fraction]:
    levels = set()
    while len(levels) < count:
        levels.add(
            Fraction(rng.randint(0, 12), rng.randint(1, 6))
        )
    return sorted(levels)


def random_connected_graph(
    rng: random.Random, n_min: int = 2, n_max: int = 8
) -> ug.WeightedGraph:
    """Connected graph with random rational weights and frequent ties."""
    n = rng.randint(n_min, n_max)
    names = [f"v{i}" for i in range(n)]
    pairs: set[tuple[int, int]] = set()
    order = list(range(n))
    rng.shuffle(order)
    for pos in range(1, n):
        a, b = order[pos], order[rng.randrange(pos)]
        pairs.add((min(a, b), max(a, b)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.25:
                pairs.add((i, j))
    m = len(pairs)
    if rng.random() < 0.6 and m >= 2:
        pool = _weight_levels(rng, rng.randint(1, max(1, m // 2)))
    else:
        pool = _weight_levels(rng, min(m + 2, 10))
    edges = [
        (names[i], names[j], rng.choice(pool)) for i, j in sorted(pairs)
    ]
    return ug.build_graph(names, edges)


def random_ultrametric(
    rng: random.Random, names: list[str]
) -> ug.DistanceMatrix:
    """Random ultrametric built by recursive splitting; entries are exact."""
    idx = {v: i for i, v in enumerate(names)}
    n = len(names)
    rows = [[Fraction(0)] * n for _ in range(n)]

    def fill(group: list[str], height: Fraction) -> None:
        if len(group) == 1:
            return
        k = rng.randint(2, min(3, len(group)))
        shuffled = group[:]
        rng.shuffle(shuffled)
        cuts = sorted(rng.sample(range(1, len(group)), k - 1))
        blocks = [
            shuffled[a:b] for a, b in zip([0] + cuts, cuts + [len(group)])
        ]
        for bi in range(len(blocks)):
            for bj in range(bi + 1, len(blocks)):
                for u in blocks[bi]:
                    for v in blocks[bj]:
                        rows[idx[u]][idx[v]] = height
                        rows[idx[v]][idx[u]] = height
        for block in blocks:
            fill(block, height * Fraction(rng.randint(1, 3), 4))

    top = Fraction(rng.randint(1, 8), rng.choice([1, 2, 4]))
    fill(list(names), top)
    m = ug.distance_matrix(names, rows)
    assert m.axiom_class is ug.AxiomClass.ULTRAMETRIC
    return m


def random_multipartite(
    rng: random.Random, k_min: int = 2, k_max: int = 4, part_max: int = 3
) -> ug.WeightedGraph:
    """Complete multipartite graph with an extendable weighting.

    Weights come from restricting a random ultrametric to the edges, so
    every cycle automatically carries its maximum at least twice.
    """
    k = rng.randint(k_min, k_max)
    sizes = [rng.randint(1, part_max) for _ in range(k)]
    names = [f"v{i}" for i in range(sum(sizes))]
    assignment = names[:]
    rng.shuffle(assignment)
    parts: list[list[str]] = []
    at = 0
    for s in sizes:
        parts.append(assignment[at:at + s])
        at += s
    um = random_ultrametric(rng, names)
    edges = []
    for pi in range(k):
        for pj in range(pi + 1, k):
            for u in parts[pi]:
                for v in parts[pj]:
                    edges.append((u, v, um.entry(u, v)))
    return ug.build_graph(names, edges)


def random_weighting(
    rng: random.Random, g: ug.WeightedGraph, pool: list[Fraction] | None = None
) -> ug.WeightedGraph:
    """Same graph, fresh random weights."""
    pool = pool or WEIGHT_POOL
    return ug.build_graph(
        g.vertices, [(u, v, rng.choice(pool)) for u, v, _ in g.weighted_edges()]
    )


def disjoint_union(
    g1: ug.WeightedGraph, g2: ug.WeightedGraph
) -> ug.WeightedGraph:
    """Disconnected graph: g1 plus a renamed copy of g2 (suffix "x")."""
    names = list(g1.vertices) + [v + "x" for v in g2.vertices]
    edges = list(g1.weighted_edges())
    edges += [(u + "x", v + "x", w) for u, v, w in g2.weighted_edges()]
    return ug.build_graph(names, edges)


def atlas_graphs(max_nodes: int = 6) -> list[nx.Graph]:
    """All non-isomorphic graphs with 1..max_nodes vertices.

    The atlas list is ordered by vertex count, so a prefix scan suffices;
    entry 0 (the empty graph) is skipped.
    """
    out = []
    for G in nx.graph_atlas_g()[1:]:
        if G.number_of_nodes() > max_nodes:
            break
        out.append(G)
    return out


def from_networkx(
    G: nx.Graph, weights: dict[tuple[int, int], Fraction] | None = None
) -> ug.WeightedGraph:
    """Weighted toolkit graph from an unweighted networkx graph."""
    nodes = sorted(G.nodes())
    names = [f"v{i}" for i in nodes]
    edges = []
    for a, b in sorted(tuple(sorted(e)) for e in G.edges()):
        w = weights[(a, b)] if weights else Fraction(1)
        edges.append((f"v{a}", f"v{b}", w))
    return ug.build_graph(names, edges)


def edge_triples(g: ug.WeightedGraph) -> tuple[tuple[int, int, int], ...]:
    """The edges of ``g`` as ``(i, j, level)`` triples, read off its columns."""
    return tuple(zip(*g._edge_columns.tolist()))


def nonadjacent(g: ug.WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """The nonadjacent index pairs ``(p, q)``, ``p < q``, in row-major order."""
    i, j, _ = g._edge_columns
    joined = np.tri(len(g.vertices), dtype=bool)
    joined[i, j] = True
    return np.nonzero(~joined)


def twice_max_analysis(g: ug.WeightedGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the nonadjacent index pairs by unique-maximum-path existence.

    Returns the pairs ``(p, q)``, ``p < q``, in row-major order as two index
    arrays, and for each the weight level of the least unique-max path's
    dominant edge, or -1 where every connecting path has two maximal edges.
    Walks the merge levels, indexing every pair no level has resolved yet
    through an n x n table of the level's joined root pairs, until every
    pair is resolved; a closer level cuts the pairs of one component by
    ``_pieces``. Raises DisconnectedError when a pair stays apart.
    """
    n = len(g.vertices)
    p, q = nonadjacent(g)
    level = np.full(len(p), -1)
    live = np.arange(len(p))  # the pairs no level has hit yet
    label = np.arange(n)  # each vertex's root in the lighter graph
    cross = np.zeros((n, n), dtype=bool)  # the level's root pairs
    columns, starts = _level_slices(g._edge_columns)  # level k's edges start at starts[k]
    for k, closers, _, roots in _merge_levels(n, columns, range(len(g._levels)), starts):
        if not len(live):  # so connected: a pair of two components stays live
            break
        lp, lq = label[p[live]], label[q[live]]
        ra, rb = label[columns[:2, starts[k]:starts[k + 1]]]  # the level's starting roots
        cross[ra, rb] = cross[rb, ra] = True
        hit = cross[lp, lq]
        cross[ra, rb] = cross[rb, ra] = False
        if closers:  # the lighter edges and the closers: ends with one starting root
            upto = columns[:, :starts[k + 1]]
            upto = upto.compress(label[upto[0]] == label[upto[1]], axis=1)
            piece = _pieces(_csr(n, upto), closers)
            same = lp == lq
            hit[same] = (piece[p[live]] != piece[q[live]])[same]
        level[live[hit]] = k
        live = live[~hit]
        label = np.fromiter(roots, np.intp, n)  # a copy: the core's next level changes its roots
    if len(live) and (label != label[0]).any():
        _require_connected(g)  # raises, naming two components
    return p, q, level


def zero_classes(g: ug.WeightedGraph) -> np.ndarray:
    """Each vertex's class in the subgraph of zero-weight edges, as the class's root."""
    columns = g._edge_columns  # level 0, when its weight is 0
    zero = columns.compress((columns[2] == 0) & (g._levels[:1] == (0,)), axis=1)
    for _, _, _, roots in _merge_levels(len(g.vertices), zero, g._levels):  # one level, if any
        return np.array(roots)
    return np.arange(len(g.vertices))


def named_twice_max_analysis(
    g: ug.WeightedGraph,
) -> tuple[frozenset, dict[tuple[str, str], Fraction]]:
    """``twice_max_analysis`` by vertex name and weight: (the twice-max
    pairs, the least unique-maximum weight of each other nonadjacent pair)."""
    p, q, level = twice_max_analysis(g)
    v = g.vertices
    pairs = list(zip(p.tolist(), q.tolist(), level.tolist()))
    return (
        frozenset((v[a], v[b]) for a, b, k in pairs if k < 0),
        {(v[a], v[b]): g._levels[k] for a, b, k in pairs if k >= 0},
    )
