"""Extending edge weightings to pseudoultrametrics on the whole vertex set.

A weighting extends to a pseudoultrametric iff every cycle carries its
maximal weight on at least two edges. The decision procedure here never
enumerates cycles: an edge e = {u,v} sits alone at the top of some cycle
iff its endpoints are already connected by strictly lighter edges, which
is a connectivity question in a threshold subgraph.

One merge pass builds both extensions. The greatest is the subdominant
matrix. On a complete multipartite graph the least is the greatest with
every pair of twins set to 0, twins being two vertices with the same
weight to every vertex. A nonadjacent pair p, q lies in one part; if some
r weighs them differently, the strong triangle on p, q, r forces
d(p,q) = max(w(p,r), w(q,r)) in every extension d, which is the
subdominant value. Twins have equal subdominant distances to every
vertex, so setting them to 0 keeps a pseudoultrametric, which then lies
below every extension.

The twice-max pairs need, per nonadjacent pair, whether some connecting
path has a unique maximal edge. With H the strictly lighter subgraph,
pair {p,q} has such a path through edge e = {x,y} iff H + e has a simple
p-q path through e. If e joins two components of H, it is a bridge of
H + e, and p and q must lie one in each. Otherwise e closes a cycle with
a unique maximum (it is a closer), p and q lie in its component of H,
and an edge of a block lies on a simple p-q path iff the block lies on
the forest path from p to q. So on any graph, a pair that level k first
connects is resolved at level k iff one of the level's edges joins its
two starting clusters directly. The pairs left are, for each two
starting clusters that level k puts in one cluster with no edge of its
own between them, all pairs across the two; every cluster is an
interval of the merge's leaf order, so each is a rectangle, two slices
of that order. A pair left over stays pending until a level with a
closer, which no extendable weighting has: there the block forest of H
plus the level's closers resolves it iff its forest path meets a block
holding a closer, that is, iff it lies in two pieces once those blocks
are cut. No edge is taken out of a rectangle: an edge between its two
clusters lies at a heavier level, where it is a closer, and a closer's
two ends always lie in different pieces. The walk reads each level's
starting roots off the merge core's root list, and connectivity off its
merge count.

The uniqueness test lists no pair. On an extendable graph no pair is
ever resolved after the level that first connects it, so the twice-max
pairs are the rectangles, and those of a positive level are not well
chained: the extension is unique iff, at each positive level, every two
starting roots the level fuses are joined by one of its edges, which
one count per level decides. The well-chained pairs are the pairs that
the one level of zero-weight edges leaves unjoined, less those a heavier
edge joins.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations, count
from numbers import Integral
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
    Weight,
    WeightedGraph,
    _csr,
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
    _places,
    _require_connected,
    _subdominant_codes,
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
    every edge, and one merge pass builds it and checks extendability.
    No greatest extension exists on disconnected graphs, and none at all
    without extendability; disconnection is reported first.
    """
    _require_connected(g)
    table, codes, closer = _subdominant_codes(g)
    if closer:
        raise NotExtendableError(_closed_cycle(g, closer))
    return _from_values(g.vertices, table, codes)


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


def _fusions(n: int, columns: np.ndarray, levels: Sequence[Weight]):
    """One merge walk over the index edges ``columns`` of weights ``levels``.

    Yields ``(lighter, closers, merges, unjoined)`` per level present,
    increasing: the columns of the strictly lighter edges, the level's
    closers and merges as ``_merge_levels`` yields them, and
    ``(a, sa, b, sb)`` for each two starting clusters, roots a < b of sizes
    sa and sb at the level's start, that the level puts in one cluster with
    no edge of its own between them. Each level's starting roots are read
    off the core's root list before the core takes the level.
    """
    columns, starts = _level_slices(columns)
    ii, jj, _ = columns.tolist()
    walk = _merge_levels(n, columns, levels, starts)
    roots, size = range(n), [1] * n  # roots: the core's list, read before its next level
    for lo, hi in zip(starts, starts[1:]):
        ends = zip(map(roots.__getitem__, ii[lo:hi]), map(roots.__getitem__, jj[lo:hi]))
        joined = {(a, b) if a < b else (b, a) for a, b in ends}
        _, closers, merges, roots = next(walk)
        groups = defaultdict(set)  # the starting roots of each cluster the level made
        for ra, rb, _, _ in merges:
            groups[roots[ra]].update((ra, rb))
        unjoined = [(a, size[a], b, size[b]) for group in groups.values()
                    for a, b in combinations(sorted(group), 2) if (a, b) not in joined]
        yield columns[:, :lo], closers, merges, unjoined
        for ra, _, sa, sb in merges:
            size[ra] = sa + sb


def _listed(pairs: np.ndarray, rectangles: list, at: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The index pairs ``pairs``, one per column, followed by every pair
    (p, q), p < q, of the ``rectangles`` ``(a, sa, b, sb)``: each vertex of
    a's cluster, the sa vertices of the leaf order ``order`` from a's place
    ``at[a]``, with each vertex of b's."""
    a, sa, b, sb = np.array(rectangles, dtype=np.intp).reshape(-1, 4).T
    area = sa * sb
    r = np.repeat(np.arange(len(area)), area)  # each pair's rectangle
    t = np.arange(len(r)) - (area.cumsum() - area)[r]  # and its place in it, row by row
    x, y = order[at[a[r]] + t // sb[r]], order[at[b[r]] + t % sb[r]]
    return np.hstack([pairs, np.sort([x, y], axis=0)])


def twice_max_pairs(g: WeightedGraph) -> PairSet:
    """Nonadjacent pairs whose every connecting path has >= 2 maximal edges.

    The pairs that the level first connecting them leaves unresolved are
    rectangles of the merge's leaf order (module docstring). They are
    listed in one numpy pass at each level with a closer while some are
    pending, keeping those that lie in one piece there, and once at the
    end: a forest is built only at such a level, and an extendable graph
    builds none. O(m log m + output) on an extendable graph. Raises
    DisconnectedError on a disconnected graph.
    """
    n = len(g.vertices)
    levels = list(_fusions(n, g._edge_columns, g._levels))
    merges = [m for _, _, fused, _ in levels for m in fused]
    if len(merges) < n - 1:
        _require_connected(g)  # raises, naming two components
    at = np.array(_places(n, merges), dtype=np.intp)
    order = at.argsort()
    pairs = np.zeros((2, 0), dtype=np.intp)  # the pairs listed and still pending
    pending = []  # the rectangles not listed yet
    for lighter, closers, _, unjoined in levels:
        if closers and (pending or pairs.size):
            pairs, pending = _listed(pairs, pending, at, order), []
            piece = _pieces(_csr(n, np.hstack([lighter, np.array(closers).T])), closers)
            pairs = pairs.compress(piece[pairs[0]] == piece[pairs[1]], axis=1)
        pending += unjoined
    v = g.vertices
    return frozenset((v[a], v[b]) for a, b in _listed(pairs, pending, at, order).T.tolist())


def well_chained_pairs(g: WeightedGraph) -> PairSet:
    """Nonadjacent pairs at subdominant distance zero.

    On a finite graph these are exactly the pairs joined inside the
    subgraph of zero-weight edges: a path of maximum weight below every
    positive bound must avoid all positive edges. So they are the unjoined
    pairs of the one level of zero-weight edges, which starts from single
    vertices, less those a heavier edge joins (only a weighting that does
    not extend has one): O(m + output), and none at all without a
    zero-weight edge.
    """
    _require_connected(g)
    if g._levels[:1] != (0,):  # every zero class is a single vertex
        return frozenset()
    i, j, k = g._edge_columns
    zero = g._edge_columns.compress(k == 0, axis=1)  # level 0, whose weight is 0
    unjoined = next(_fusions(len(g.vertices), zero, g._levels))[3]
    v = g.vertices
    pairs = {(a, b) for a, _, b, _ in unjoined}.difference(zip(i.tolist(), j.tolist()))
    return frozenset((v[a], v[b]) for a, b in pairs)


def least_extension(g: WeightedGraph) -> DistanceMatrix:
    """Smallest pseudoultrametric extending the weighting.

    Computed on complete multipartite graphs with at least two parts, where
    every extendable weighting has one (the paper's theorem); other graphs
    have one only for some weightings and are refused. It is the greatest
    extension with every pair of twins, vertices with the same weight to
    every vertex, set to 0 (module docstring); the final axiom check
    re-asserts that it is a pseudoultrametric. Such a graph is connected,
    so no component search runs; a closer raises NotExtendableError.
    """
    parts = multipartite_parts(g)
    if parts is None:
        raise NotCompleteMultipartiteError(find_multipartite_obstruction(g))
    if len(parts) < 2:
        raise NotCompleteMultipartiteError(
            None, "graph is edgeless (one part); need at least two parts"
        )
    table, codes, closer = _subdominant_codes(g)
    if closer:
        raise NotExtendableError(_closed_cycle(g, closer))
    i, j, k = g._edge_columns
    row = np.zeros_like(codes)  # level + 1 to each vertex, 0 off the edges
    row[i, j] = row[j, i] = k + 1
    first = defaultdict(count().__next__)  # each distinct row's number, by first appearance
    twin = np.array([first[r.tobytes()] for r in row])
    codes[twin[:, None] == twin] = 0
    m = _from_values(g.vertices, table, codes)
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
    value between the greatest extension and a smaller one. One merge walk
    decides it with no pair listed (module docstring): at each positive
    level, the pairs its edges join directly, the sum of s_A * s_B over the
    distinct starting root pairs they join, must be all the pairs it
    connects, the sum of s_a * s_b over its merges. Raises
    NotExtendableError at the first closer, then DisconnectedError.
    """
    n, levels = len(g.vertices), g._levels
    columns, starts = _level_slices(g._edge_columns)
    ii, jj, kk = columns.tolist()
    walk = _merge_levels(n, columns, levels, starts)
    roots, size = range(n), [1] * n  # roots: the core's list, read before its next level
    unique = True
    for lo, hi in zip(starts, starts[1:]):
        if check := unique and levels[kk[lo]]:  # a zero level's pairs are well chained
            ends = zip(map(roots.__getitem__, ii[lo:hi]), map(roots.__getitem__, jj[lo:hi]))
            joined = {(a, b) if a < b else (b, a) for a, b in ends}
        _, closers, merges, roots = next(walk)
        if closers:
            raise NotExtendableError(_closed_cycle(g, closers[0]))
        if check:
            unique = sum(size[a] * size[b] for a, b in joined) == sum(sa * sb for _, _, sa, sb in merges)
        for ra, _, sa, sb in merges:
            size[ra] = sa + sb
    if size[roots[0]] < n:  # vertex 0's cluster is not everything
        _require_connected(g)  # raises, naming two components
    return unique


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
    # Integers, numpy's too, index the components; a bool is Integral but no index.
    if isinstance(hub_component_index, bool) or not isinstance(hub_component_index, Integral):
        raise BadHubIndexError(f"hub index {hub_component_index!r} is not an int")
    if not 0 <= hub_component_index < k:
        raise BadHubIndexError(f"hub index {hub_component_index!r} out of range for {k} component(s)")
    consts = dict(constants) if constants else {}
    if bad := [i for i in consts if isinstance(i, bool) or not isinstance(i, Integral)]:
        raise MissingConstantError(f"no component with index {bad[0]!r}")
    needed = [i for i in range(k) if i != hub_component_index]
    for i in needed:
        if i not in consts:
            raise MissingConstantError(f"no constant for component {i}")
    for i in consts:
        if i == hub_component_index:
            raise MissingConstantError(f"component {i} is the hub; it takes no constant")
        if not 0 <= i < k:
            raise MissingConstantError(f"no component with index {i}")
    if k == 1:
        return g

    hub = comps.blocks[hub_component_index][0]
    new_edges = list(g.weighted_edges())
    for i in needed:
        new_edges.append((comps.blocks[i][0], hub, to_weight(consts[i])))
    return build_graph(g.vertices, new_edges)
