"""Recognizers for the graph classes the characterization results quantify
over: forests, trees, complete multipartite graphs, and stars.

Complete-multipartite recognition groups the vertices by neighbourhood
(the index tuples a graph builds on first read): the parts of such a graph
are exactly its classes of equal neighbourhoods. The three-vertex
obstruction search in ``find_multipartite_obstruction``, by degrees and
common-neighbour counts, is an independent second route to the same
question and the two are tested against each other exhaustively on small
graphs.
"""

from __future__ import annotations

import numpy as np

from .graph import Partition, Vertex, WeightedGraph, connected_components, is_connected


def is_forest(g: WeightedGraph) -> bool:
    """True iff the graph has no cycles: |E| = |V| - #components. The
    count is read first, so a graph with |E| >= |V| runs no search."""
    m, n = g.edge_count(), len(g.vertices)
    return m < n and m == n - len(connected_components(g))


def is_tree(g: WeightedGraph) -> bool:
    """True iff connected with |E| = |V| - 1; the count is read first, so
    at most one search runs."""
    return g.edge_count() == len(g.vertices) - 1 and is_connected(g)


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
    classes: dict[tuple[int, ...], list[Vertex]] = {}
    for v, nbrs in zip(g.vertices, g._neighbours):
        classes.setdefault(nbrs, []).append(v)
    n = len(g.vertices)
    if any(len(nbrs) + len(c) != n for nbrs, c in classes.items()):
        return None
    return Partition(tuple(tuple(c) for c in classes.values()))


_CHUNK_BYTES = 1 << 24  # the neighbourhood rows one chunk of edges may hold


def find_multipartite_obstruction(
    g: WeightedGraph,
) -> tuple[Vertex, Vertex, Vertex] | None:
    """First edge-plus-detached-vertex triple (u, v, p), or None.

    The pattern: {u,v} is an edge and p is adjacent to neither endpoint.
    A graph contains no such induced triple iff it is complete
    multipartite. Scan order is canonical (edges, then vertices), so the
    witness is deterministic.

    The neighbourhoods of u and v hold v and u, so {u,v} has a detached
    vertex iff deg u + deg v - c(u,v) < n, c counting common neighbours.
    The first edge with deg u + deg v < n bounds the search; only the
    edges before it need c, counted in chunks from bit-packed
    neighbourhood rows (``np.bitwise_count`` needs numpy 2). The witness
    is the first vertex outside both neighbourhoods.
    """
    adj, (i, j, _) = g._neighbours, g._edge_columns
    n = len(adj)
    deg = np.fromiter(map(len, adj), np.intp, n)
    reach = deg[i] + deg[j]
    short = np.flatnonzero(reach < n)
    stop = short[0] if len(short) else len(i)
    step = max(1, _CHUNK_BYTES // (2 * n))
    for lo in range(0, stop, step):
        hi = min(lo + step, stop)
        verts, at = np.unique(np.concatenate([i[lo:hi], j[lo:hi]]), return_inverse=True)
        rows = np.zeros((len(verts), n), dtype=bool)
        for r, v in enumerate(verts.tolist()):
            rows[r, adj[v]] = True
        rows = np.packbits(rows, axis=1)
        c = np.bitwise_count(rows[at[:hi - lo]] & rows[at[hi - lo:]]).sum(axis=1, dtype=np.intp)
        hit = np.flatnonzero(reach[lo:hi] - c < n)
        if len(hit):
            stop = lo + hit[0]
            break
    if stop == len(i):
        return None
    u, v = i[stop], j[stop]
    detached = np.ones(n, dtype=bool)
    detached[[*adj[u], *adj[v]]] = False
    names = g.vertices
    return names[u], names[v], names[detached.argmax()]


def is_star(g: WeightedGraph) -> bool:
    """True iff g is complete bipartite with a singleton part.

    The singleton's vertex is then the hub, adjacent to every other
    vertex; such graphs are exactly the trees of diameter at most two
    with at least one edge.
    """
    return _is_star(multipartite_parts(g))


def _is_star(parts: Partition | None) -> bool:
    """``is_star`` of a graph whose ``multipartite_parts`` are ``parts``."""
    return parts is not None and len(parts) == 2 and any(len(b) == 1 for b in parts.blocks)
