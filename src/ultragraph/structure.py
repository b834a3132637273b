"""Recognizers for the graph classes the characterization results quantify
over: forests, trees, complete multipartite graphs, and stars.

Complete-multipartite recognition groups the vertices by neighbourhood
(the canonical tuples ``build_graph`` stores): the parts of such a graph
are exactly its classes of equal neighbourhoods. The three-vertex
obstruction scan in ``find_multipartite_obstruction`` is an independent
second route to the same question and the two are tested against each
other exhaustively on small graphs.
"""

from __future__ import annotations

from .graph import Partition, Vertex, WeightedGraph, connected_components, is_connected


def is_forest(g: WeightedGraph) -> bool:
    """True iff the graph has no cycles: |E| = |V| - #components."""
    return g.edge_count() == len(g.vertices) - len(connected_components(g))


def is_tree(g: WeightedGraph) -> bool:
    return is_forest(g) and is_connected(g)


def multipartite_parts(g: WeightedGraph) -> Partition | None:
    """Parts of a complete multipartite graph, or None.

    A graph is complete multipartite exactly when non-adjacency is an
    equivalence; the parts are then the classes of vertices with equal
    neighbourhoods. No vertex is its own neighbour, so a class and its
    shared neighbourhood are disjoint, and together they hold all n
    vertices iff every member is adjacent to everything outside its
    class and to nothing inside it. Parts are ordered by first vertex,
    members canonically. k = 1 (edgeless graph) is reported too; callers
    needing k >= 2 must check.
    """
    classes: dict[tuple[Vertex, ...], list[Vertex]] = {}
    for v in g.vertices:
        classes.setdefault(g.neighbors(v), []).append(v)
    n = len(g.vertices)
    if any(len(nbrs) + len(c) != n for nbrs, c in classes.items()):
        return None
    return Partition(tuple(tuple(c) for c in classes.values()))


def find_multipartite_obstruction(
    g: WeightedGraph,
) -> tuple[Vertex, Vertex, Vertex] | None:
    """First edge-plus-detached-vertex triple (u, v, p), or None.

    The pattern: {u,v} is an edge and p is adjacent to neither endpoint.
    A graph contains no such induced triple iff it is complete
    multipartite. Scan order is canonical (edges, then vertices), so the
    witness is deterministic.
    """
    for u, v in g.edges:
        for p in g.vertices:
            if p == u or p == v:
                continue
            if not g.has_edge(u, p) and not g.has_edge(v, p):
                return (u, v, p)
    return None


def is_star(g: WeightedGraph) -> bool:
    """True iff g is complete bipartite with a singleton part.

    The singleton's vertex is then the hub, adjacent to every other
    vertex; such graphs are exactly the trees of diameter at most two
    with at least one edge.
    """
    parts = multipartite_parts(g)
    if parts is None or len(parts) != 2:
        return False
    return any(len(block) == 1 for block in parts.blocks)
