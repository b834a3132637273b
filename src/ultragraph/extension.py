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
one in each. Otherwise e merges the blocks on the x-y path of H's
block-cut forest into one block, and an edge of a block lies on a simple
p-q path iff the block lies on the forest path from p to q. So one
forest per weight level decides every pair: mark the blocks on each
same-component edge's x-y path; a pair in one component is hit iff its
forest path meets a marked block.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

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
    _ranked,
    build_graph,
    connected_components,
    strict_threshold_subgraph,
    to_weight,
)
from .metrics import (
    AxiomClass,
    DistanceMatrix,
    _from_values,
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


def _bfs_path(g: WeightedGraph, start: Vertex, goal: Vertex) -> list[Vertex] | None:
    """Shortest-by-edges path in canonical exploration order, or None."""
    if start == goal:
        return [start]
    prev: dict[Vertex, Vertex] = {start: start}
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


def is_pseudoultrametrizable(g: WeightedGraph) -> ExtendabilityReport:
    """Decide whether the weighting extends to a pseudoultrametric.

    One merge pass over the edges in increasing weight order: an edge
    whose endpoints are already joined by strictly lighter edges closes a
    cycle with a unique maximum, and the lighter connection supplies the
    witness. Equal-weight edges are checked before any of them merge, so
    ties never count against each other. Disconnected graphs are fine:
    components are independent for this question.
    """
    for w, closers, _ in _merge_levels(len(g.vertices), g._level_edges, g._levels):
        if closers:
            u, v = g.vertices[closers[0][0]], g.vertices[closers[0][1]]
            detour = _bfs_path(strict_threshold_subgraph(g, w), u, v)
            assert detour is not None
            return ExtendabilityReport(False, Cycle(tuple(detour)))
    return ExtendabilityReport(True, None)


def greatest_extension(g: WeightedGraph) -> DistanceMatrix:
    """Largest pseudoultrametric extending the weighting.

    This is exactly the subdominant matrix once extendability holds: the
    greatest pseudoultrametric below the weight then agrees with it on
    every edge. No greatest extension exists on disconnected graphs, and
    none at all without extendability.
    """
    _require_connected(g)
    report = is_pseudoultrametrizable(g)
    if not report.pseudoultrametrizable:
        raise NotExtendableError(report.witness)
    return subdominant_matrix(g)


def _block_forest(adj: list[list[int]]):
    """Block-vertex forest of index adjacency lists, by iterative Hopcroft–Tarjan.

    Nodes ``0..n-1`` are the vertices, then one node per block, whose
    parent is the vertex the search entered it from. Returns each
    vertex's component root, each node's parent (-1 at roots), the
    vertices in discovery order, and node keys that grow from parent to child.
    """
    n = len(adj)
    disc, low, root, parent = [-1] * n, [0] * n, list(range(n)), [-1] * n
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
                root[v] = r
                stack.append(v)
                work.append((v, iter(adj[v])))
            else:
                low[u] = min(low[u], disc[v])
    key = [2 * d for d in disc] + [2 * disc[u] + 1 for u in parent[n:]]
    return root, parent, order, key


def _twice_max_analysis(
    g: WeightedGraph,
) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int]]:
    """Split the nonadjacent index pairs by unique-maximum-path existence.

    Returns (pairs with no unique-max path, the weight level of the least
    unique-max path's dominant edge for each of the others), deciding
    each weight level on one block-vertex forest (see the module docstring).
    """
    _require_connected(g)

    n = len(g.vertices)
    levels: list[list[tuple[int, int]]] = [[] for _ in g._levels]
    for i, j, k in g._level_edges:
        levels[k].append((i, j))
    joined = {(i, j) for i, j, _ in g._level_edges}
    unresolved = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in joined
    ]
    values: dict[tuple[int, int], int] = {}
    adj: list[list[int]] = [[] for _ in range(n)]  # the lighter graph
    for w, batch in enumerate(levels):
        if not unresolved:
            break
        comp, parent, order, key = _block_forest(adj)
        # Mark the forest path of every same-component edge, jumping over
        # the nodes earlier paths marked.
        hot = [False] * len(parent)
        top = list(range(len(parent)))

        def find(a: int) -> int:
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
        piece = list(range(n))  # pieces left once the marked blocks are cut
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


def twice_max_pairs(g: WeightedGraph) -> PairSet:
    """Nonadjacent pairs whose every connecting path has >= 2 maximal edges."""
    pairs, _ = _twice_max_analysis(g)
    return frozenset((g.vertices[p], g.vertices[q]) for p, q in pairs)


def well_chained_pairs(g: WeightedGraph) -> PairSet:
    """Nonadjacent pairs at subdominant distance zero.

    On a finite graph these are exactly the pairs joined inside the
    subgraph of zero-weight edges: a path of maximum weight below every
    positive bound must avoid all positive edges.
    """
    _require_connected(g)
    zero = [e for e in g._level_edges if e[2] == 0] if g._levels[:1] == (0,) else []
    joined = {(i, j) for i, j, _ in g._level_edges}
    home = np.arange(len(g.vertices))  # the last root of each vertex's zero class
    for _, _, merges in _merge_levels(len(g.vertices), zero, g._levels):  # one level
        for ra, rb, _, _ in reversed(merges):  # a later merge settled ra
            home[rb] = home[ra]
    pairs = set(map(tuple, np.argwhere(np.triu(home[:, None] == home, 1)).tolist()))
    return frozenset((g.vertices[p], g.vertices[q]) for p, q in pairs - joined)


def least_extension(g: WeightedGraph) -> DistanceMatrix:
    """Smallest pseudoultrametric extending the weighting.

    Exists precisely on complete multipartite graphs with at least two
    parts (given extendability). Nonadjacent pairs get 0 when no
    connecting path has a unique maximal edge, else the weight of such a
    path's dominant edge; that value is path-independent on this graph
    class, which the final axiom check re-asserts.
    """
    parts = multipartite_parts(g)
    if parts is None:
        raise NotCompleteMultipartiteError(find_multipartite_obstruction(g))
    if len(parts) < 2:
        raise NotCompleteMultipartiteError(
            None, "graph is edgeless (one part); need at least two parts"
        )
    report = is_pseudoultrametrizable(g)
    if not report.pseudoultrametrizable:
        raise NotExtendableError(report.witness)

    _, values = _twice_max_analysis(g)  # twice-max pairs stay at 0
    table, rank = _ranked((Fraction(0), *g._levels))  # level k has rank[k + 1]
    ranks = np.zeros((len(g.vertices),) * 2, dtype=np.int32)
    for i, j, k in [*g._level_edges, *((p, q, k) for (p, q), k in values.items())]:
        ranks[i, j] = ranks[j, i] = rank[k + 1]
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
    report = is_pseudoultrametrizable(g)
    if not report.pseudoultrametrizable:
        raise NotExtendableError(report.witness)
    return twice_max_pairs(g) <= well_chained_pairs(g)


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
