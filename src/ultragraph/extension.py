"""Extending edge weightings to pseudoultrametrics on the whole vertex set.

A weighting extends to a pseudoultrametric iff every cycle carries its
maximal weight on at least two edges. The decision procedure here never
enumerates cycles: an edge e = {u,v} sits alone at the top of some cycle
iff its endpoints are already connected by strictly lighter edges, which
is a connectivity question in a threshold subgraph.

For the least extension on complete multipartite graphs we need, per
nonadjacent pair, whether some connecting path has a unique maximal
edge. Pair {p,q} has such a path through edge e = {x,y} iff the strictly
lighter subgraph contains two vertex-disjoint paths from {p,q} to
{x,y} (their concatenation through e is then simple, and e dominates).
Mere membership of p and q in the components of x and y is not enough
when those components coincide, so the test runs a tiny unit-capacity
flow; distinct components remain as a fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

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
    build_graph,
    connected_components,
    strict_threshold_subgraph,
    to_weight,
)
from .metrics import (
    AxiomClass,
    DistanceMatrix,
    _graph_levels,
    _require_connected,
    distance_matrix,
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
    for w, closers, _ in _graph_levels(g):
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


def _two_vertex_disjoint_paths(
    h: WeightedGraph, p: Vertex, q: Vertex, x: Vertex, y: Vertex
) -> bool:
    """Two vertex-disjoint paths from {p,q} onto {x,y} in h?

    Unit-vertex-capacity max flow with node splitting; either pairing of
    sources to sinks is acceptable, which the flow formulation gives for
    free. At most two augmenting passes.
    """
    cap: dict[object, dict[object, int]] = {}

    def arc(a: object, b: object) -> None:
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

    flow = 0
    for _ in range(2):
        prev: dict[object, object] = {"S": "S"}
        queue: list[object] = ["S"]
        reached = False
        for node in queue:
            for nxt, c in cap[node].items():
                if c > 0 and nxt not in prev:
                    prev[nxt] = node
                    if nxt == "T":
                        reached = True
                        break
                    queue.append(nxt)
            if reached:
                break
        if not reached:
            break
        node = "T"
        while node != "S":
            back = prev[node]
            cap[back][node] -= 1
            cap[node][back] += 1
            node = back
        flow += 1
    return flow >= 2


def _twice_max_analysis(
    g: WeightedGraph,
) -> tuple[PairSet, dict[Pair, Weight]]:
    """Split the nonadjacent pairs by unique-maximum-path existence.

    Returns (pairs with no unique-max path, witness weight of the first
    unique-max path found for each of the others). A pair {p,q} admits a
    path whose maximal edge is unique iff for some edge e = {x,y} the
    strictly-lighter subgraph joins {p,q} to {x,y} by two vertex-disjoint
    paths; the witness weight is w(e).
    """
    _require_connected(g)

    verts = g.vertices
    unresolved: list[Pair] = [
        (verts[i], verts[j])
        for i in range(len(verts))
        for j in range(i + 1, len(verts))
        if not g.has_edge(verts[i], verts[j])
    ]
    values: dict[Pair, Weight] = {}

    edges = sorted(g.weighted_edges(), key=lambda e: e[2])
    pos = 0
    while pos < len(edges) and unresolved:
        w = edges[pos][2]
        batch = []
        while pos < len(edges) and edges[pos][2] == w:
            batch.append(edges[pos])
            pos += 1
        lighter = strict_threshold_subgraph(g, w)
        comp_of: dict[Vertex, int] = {}
        for label, block in enumerate(connected_components(lighter).blocks):
            for v in block:
                comp_of[v] = label
        for x, y, _ in batch:
            cx, cy = comp_of[x], comp_of[y]
            still: list[Pair] = []
            for pair in unresolved:
                pp, qq = pair
                cp, cq = comp_of[pp], comp_of[qq]
                if cx != cy:
                    hit = {cp, cq} == {cx, cy} and cp != cq
                else:
                    hit = (
                        cp == cq == cx
                        and _two_vertex_disjoint_paths(lighter, pp, qq, x, y)
                    )
                if hit:
                    values[pair] = w
                else:
                    still.append(pair)
            unresolved = still

    return frozenset(unresolved), values


def twice_max_pairs(g: WeightedGraph) -> PairSet:
    """Nonadjacent pairs whose every connecting path has >= 2 maximal edges."""
    pairs, _ = _twice_max_analysis(g)
    return pairs


def well_chained_pairs(g: WeightedGraph) -> PairSet:
    """Nonadjacent pairs at subdominant distance zero.

    On a finite graph these are exactly the pairs joined inside the
    subgraph of zero-weight edges: a path of maximum weight below every
    positive bound must avoid all positive edges.
    """
    _require_connected(g)
    zero = build_graph(
        g.vertices, [(u, v, w) for u, v, w in g.weighted_edges() if w == 0]
    )
    result: set[Pair] = set()
    for block in connected_components(zero).blocks:
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                if not g.has_edge(block[i], block[j]):
                    result.add((block[i], block[j]))
    return frozenset(result)


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

    twice_max, values = _twice_max_analysis(g)
    verts = g.vertices
    n = len(verts)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            u, v = verts[i], verts[j]
            if g.has_edge(u, v):
                d = g.weight(u, v)
            elif (u, v) in twice_max:
                d = Fraction(0)
            else:
                d = values[(u, v)]
            rows[i][j] = d
            rows[j][i] = d

    m = distance_matrix(verts, rows)
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
