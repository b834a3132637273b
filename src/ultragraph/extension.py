"""Extending edge weightings to pseudoultrametrics on the whole vertex set.

A weighting extends to a pseudoultrametric iff every cycle carries its
maximal weight on at least two edges. The decision procedure here never
enumerates cycles: an edge e = {u,v} sits alone at the top of some cycle
iff its endpoints are already connected by strictly lighter edges, which
is a connectivity question in a threshold subgraph.

For the least extension on complete multipartite graphs we need, per
nonadjacent pair, whether some connecting path has a unique maximal
edge. With H the strictly lighter subgraph, pair {p,q} has such a path
through edge e = {x,y} iff H + e has a simple p-q path through e. If e
joins two components of H, it is a bridge of H + e, and p and q must lie
one in each. Otherwise e closes a cycle with a unique maximum (it is a
closer), and an edge of a block lies on a simple p-q path iff the block
lies on the forest path from p to q. So the merge levels decide every
pair. At a level with no closer, a pair is hit iff one edge of the level
joins its two components directly. Only a level with a closer, which no
extendable weighting has, builds a block forest: that of H plus the
level's closers, where a pair in one component is hit iff its forest
path meets a block holding a closer. The walk takes each level's
starting roots from the merge core's root list, and connectivity from
its last one. The least extension and the uniqueness test need
extendability, so their walk raises at its first closer instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BadHubIndexError,
    MissingConstantError,
    NotCompleteMultipartiteError,
    NotExtendableError,
    NotPseudoultrametricError,
)
from .graph import (
    Cycle,
    Vertex,
    WeightedGraph,
    _csr,
    _ranked,
    _reach,
    build_graph,
    connected_components,
    to_weight,
)
from .metrics import (
    AxiomClass,
    DistanceMatrix,
    _from_values,
    _level_slices,
    _merge_levels,
    _require_connected,
    subdominant_matrix,
)
from .structure import find_multipartite_obstruction, multipartite_parts

Pair = tuple[Vertex, Vertex]
PairSet = frozenset[Pair]


@dataclass(frozen=True)
class ExtendabilityReport:
    """Outcome of the extendability decision.

    ``witness`` is present iff the answer is negative: a cycle whose
    maximal weight is attained on exactly one edge.
    """

    pseudoultrametrizable: bool
    witness: Cycle | None = None


def is_pseudoultrametrizable(g: WeightedGraph) -> ExtendabilityReport:
    """Decide whether the weighting extends to a pseudoultrametric.

    One merge pass over the edges in increasing weight order: an edge
    whose endpoints are already joined by strictly lighter edges closes a
    cycle with a unique maximum, and the lighter connection supplies the
    witness. Equal-weight edges are checked before any of them merge, so
    ties never count against each other. Disconnected graphs are fine:
    components are independent for this question.
    """
    for _, closers, _, _ in _merge_levels(len(g.vertices), g._edge_columns, g._levels):
        if closers:
            return ExtendabilityReport(False, _closed_cycle(g, closers[0]))
    return ExtendabilityReport(True, None)


def _lighter(g: WeightedGraph, k: int) -> tuple[tuple[int, ...], ...]:
    """The index adjacency of ``g``'s edges below weight level ``k``: each
    vertex's lower neighbours, then its higher ones, increasing."""
    columns = g._edge_columns
    return _csr(len(g.vertices), columns.compress(columns[2] < k, axis=1))


def _closed_cycle(g: WeightedGraph, closer: tuple[int, int, int]) -> Cycle:
    """The cycle the index edge ``closer`` = (x, y, k) closes with the
    fewest-edge path from x to y below level k, the first one a breadth-first
    search from x meets."""
    x, y, k = closer
    parent = [-1] * len(g.vertices)
    _reach(_lighter(g, k), x, parent)
    detour = [y]
    while detour[-1] != x:
        detour.append(parent[detour[-1]])
    return Cycle(tuple(map(g.vertices.__getitem__, reversed(detour))))


def greatest_extension(g: WeightedGraph) -> DistanceMatrix:
    """Largest pseudoultrametric extending the weighting.

    This is exactly the subdominant matrix once extendability holds: the
    greatest pseudoultrametric below the weight then agrees with it on
    every edge. No greatest extension exists on disconnected graphs, and
    none at all without extendability; disconnection is reported first.
    """
    m = subdominant_matrix(g)
    report = is_pseudoultrametrizable(g)
    if not report.pseudoultrametrizable:
        raise NotExtendableError(report.witness)
    return m


def _block_forest(adj: Sequence[Sequence[int]]):
    """Block-vertex forest of index adjacency lists, by iterative Hopcroft–Tarjan.

    Nodes ``0..n-1`` are the vertices, then one node per block, whose
    parent is the vertex the search entered it from. Returns each node's
    parent (-1 at roots), the vertices in discovery order, and each
    vertex's discovery time.
    """
    n = len(adj)
    disc, low, parent = [-1] * n, [0] * n, [-1] * n
    order: list[int] = []
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
                stack.append(v)
                work.append((v, iter(adj[v])))
            else:
                low[u] = min(low[u], disc[v])
    return parent, order, disc


def _pieces(adj: Sequence[Sequence[int]], closers: list[tuple[int, int, int]]) -> np.ndarray:
    """Each vertex's piece of ``adj``, the lighter graph H plus one level's
    closers, once each block holding a closer is cut: two vertices of one
    component lie in different pieces iff their forest path meets such a block.

    A closer's ends are joined in H, so it merges exactly the blocks on its
    path in H's forest: a pair's path meets a block holding a closer iff its
    path in H's forest meets a block on some closer's path. The search meets
    each edge {x, y} as a tree or back edge, in the block ``parent[v]`` of
    its later-found end v.
    """
    parent, order, disc = _block_forest(adj)
    hot = [False] * len(parent)
    for x, y, _ in closers:
        hot[parent[x if disc[x] > disc[y] else y]] = True
    piece = list(range(len(adj)))
    for v in order:
        if parent[v] >= 0 and not hot[parent[v]]:
            piece[v] = piece[parent[parent[v]]]
    return np.array(piece)


def _nonadjacent(g: WeightedGraph) -> tuple[np.ndarray, np.ndarray]:
    """The nonadjacent index pairs ``(p, q)``, ``p < q``, in row-major order."""
    i, j, _ = g._edge_columns
    joined = np.tri(len(g.vertices), dtype=bool)
    joined[i, j] = True
    return np.nonzero(~joined)


def _twice_max_analysis(
    g: WeightedGraph, require_extendable: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split the nonadjacent index pairs by unique-maximum-path existence.

    Returns the pairs ``(p, q)``, ``p < q``, in row-major order as two index
    arrays, and for each the weight level of the least unique-max path's
    dominant edge, or -1 where every connecting path has two maximal edges.
    Walks the merge levels (see the module docstring) until every pair is
    resolved; with ``require_extendable`` it walks them all and raises
    NotExtendableError at the first closer, as is_pseudoultrametrizable finds it.
    """
    n = len(g.vertices)
    p, q = _nonadjacent(g)
    level = np.full(len(p), -1)
    live = np.arange(len(p))  # the pairs no level has hit yet
    label = np.arange(n)  # each vertex's root in the lighter graph
    cross = np.zeros((n, n), dtype=bool)  # the level's root pairs
    columns, starts = _level_slices(g._edge_columns)  # level k's edges start at starts[k]
    for k, closers, _, roots in _merge_levels(n, columns, range(len(g._levels))):
        if closers and require_extendable:
            raise NotExtendableError(_closed_cycle(g, closers[0]))
        if not len(live):  # so connected: a pair of two components stays live
            if require_extendable:
                continue
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
            same = lp == lq  # not np.where: its first call adds about 0.3 MB of RSS
            hit[same] = (piece[p[live]] != piece[q[live]])[same]
        level[live[hit]] = k
        live = live[~hit]
        label = np.fromiter(roots, np.intp, n)  # a copy: the core's next level changes its roots
    if len(live) and (label != label[0]).any():
        _require_connected(g)  # raises, naming two components
    return p, q, level


def twice_max_pairs(g: WeightedGraph) -> PairSet:
    """Nonadjacent pairs whose every connecting path has >= 2 maximal edges."""
    p, q, level = _twice_max_analysis(g)
    v, twice = g.vertices, level < 0
    return frozenset((v[a], v[b]) for a, b in zip(p[twice].tolist(), q[twice].tolist()))


def _zero_classes(g: WeightedGraph) -> np.ndarray:
    """Each vertex's class in the subgraph of zero-weight edges, as the class's root."""
    columns = g._edge_columns  # level 0, when its weight is 0
    zero = columns.compress((columns[2] == 0) & (g._levels[:1] == (0,)), axis=1)
    for _, _, _, roots in _merge_levels(len(g.vertices), zero, g._levels):  # one level, if any
        return np.array(roots)
    return np.arange(len(g.vertices))


def well_chained_pairs(g: WeightedGraph) -> PairSet:
    """Nonadjacent pairs at subdominant distance zero.

    On a finite graph these are exactly the pairs joined inside the
    subgraph of zero-weight edges: a path of maximum weight below every
    positive bound must avoid all positive edges.
    """
    _require_connected(g)
    home = _zero_classes(g)
    p, q = _nonadjacent(g)
    same = home[p] == home[q]
    v = g.vertices
    return frozenset((v[a], v[b]) for a, b in zip(p[same].tolist(), q[same].tolist()))


def least_extension(g: WeightedGraph) -> DistanceMatrix:
    """Smallest pseudoultrametric extending the weighting.

    Computed on complete multipartite graphs with at least two parts, where
    every extendable weighting has one (the paper's theorem); other graphs
    have one only for some weightings and are refused. Nonadjacent pairs
    get 0 when no connecting path has a unique maximal edge, else the
    weight of such a path's dominant edge; that value is path-independent
    on this graph class, which the final axiom check re-asserts.
    """
    parts = multipartite_parts(g)
    if parts is None:
        raise NotCompleteMultipartiteError(find_multipartite_obstruction(g))
    if len(parts) < 2:
        raise NotCompleteMultipartiteError(
            None, "graph is edgeless (one part); need at least two parts"
        )
    p, q, level = _twice_max_analysis(g, require_extendable=True)
    table, rank = _ranked((Fraction(0), *g._levels))  # level k has rank[k + 1]
    rank = np.array(rank, dtype=np.int32)  # so twice-max pairs (-1) stay at 0
    i, j, k = g._edge_columns
    ranks = np.zeros((len(g.vertices),) * 2, dtype=np.int32)
    ranks[i, j] = ranks[j, i] = rank[k + 1]
    ranks[p, q] = ranks[q, p] = rank[level + 1]
    m = _from_values(g.vertices, table, ranks)
    if not m.axiom_class.satisfies(AxiomClass.PSEUDOULTRAMETRIC):
        raise NotPseudoultrametricError(
            "least-extension values are inconsistent; input is outside "
            "the supported graph class"
        )
    return m


def is_unique_extension(g: WeightedGraph) -> bool:
    """True iff exactly one pseudoultrametric extends the weighting.

    Uniqueness holds iff every pair without a unique-maximum path is
    already at subdominant distance zero: any other pair can trade its
    value between the greatest extension and a smaller one.
    """
    p, q, level = _twice_max_analysis(g, require_extendable=True)
    home, twice = _zero_classes(g), level < 0  # every twice-max pair well chained?
    return bool((home[p[twice]] == home[q[twice]]).all())


def augment(
    g: WeightedGraph,
    hub_component_index: int,
    constants: Mapping[int, object] = (),
) -> WeightedGraph:
    """Connect the components by bridging each to a hub component.

    One new edge per non-hub component, from its first vertex to the hub
    component's first vertex, weighted by the caller's constant for that
    component (any nonnegative values work). Every simple cycle of the
    result already lived in g, because each new edge is a bridge; in
    particular extendability is preserved. Already-connected input is
    returned unchanged when no constants are given.
    """
    comps = connected_components(g)
    k = len(comps)
    if not 0 <= hub_component_index < k:
        raise BadHubIndexError(
            f"hub index {hub_component_index} out of range for {k} component(s)"
        )
    consts = dict(constants) if constants else {}
    needed = [i for i in range(k) if i != hub_component_index]
    for i in needed:
        if i not in consts:
            raise MissingConstantError(f"no constant for component {i}")
    for i in consts:
        if i == hub_component_index:
            raise MissingConstantError(
                f"component {i} is the hub; it takes no constant"
            )
        if not 0 <= i < k:
            raise MissingConstantError(f"no component with index {i}")
    if k == 1:
        return g

    hub = comps.blocks[hub_component_index][0]
    new_edges = list(g.weighted_edges())
    for i in needed:
        new_edges.append((comps.blocks[i][0], hub, to_weight(consts[i])))
    return build_graph(g.vertices, new_edges)
