"""Immutable finite simple graphs with exact nonnegative rational weights.

Vertices are opaque text tokens. Their order of first appearance is the
canonical order used everywhere downstream: it fixes matrix rows, edge
canonicalization and all deterministic output. Weights are
:class:`fractions.Fraction` values; equality and ordering of weights are
exact, which the extension criteria depend on.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    DuplicateEdgeError,
    NegativeWeightError,
    SelfLoopError,
    UnknownVertexError,
)

Vertex = str
Weight = Fraction
Edge = tuple[Vertex, Vertex]


def to_weight(value) -> Weight:
    """Coerce ``value`` to an exact nonnegative weight.

    Accepts Fraction, int, or a string in decimal ("0.25") or ratio
    ("1/4") notation. Floats are rejected: their binary value is almost
    never the decimal the caller had in mind, and exact equality of
    weights is semantically load-bearing here.
    """
    if isinstance(value, float):
        raise TypeError(
            "refusing to build an exact weight from float; pass a string, "
            "int or Fraction"
        )
    w = Fraction(value)
    if w < 0:
        raise NegativeWeightError(f"weight {w} is negative")
    return w


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty vertex blocks covering a vertex set."""

    blocks: tuple[tuple[Vertex, ...], ...]

    def __len__(self) -> int:
        return len(self.blocks)

    def block_of(self, v: Vertex) -> tuple[Vertex, ...]:
        return self.blocks[self.block_index(v)]

    def block_index(self, v: Vertex) -> int:
        for i, block in enumerate(self.blocks):
            if v in block:
                return i
        raise UnknownVertexError(f"vertex {v!r} not in partition")


@dataclass(frozen=True)
class WeightedGraph:
    """Finite simple graph with exact edge weights.

    Instances are immutable value objects; every operation on them is a
    pure function, so sharing across threads needs no coordination.
    Construct through :func:`build_graph`.
    """

    vertices: tuple[Vertex, ...]
    _weights: Mapping[Edge, Weight] = field(repr=False)
    _index: Mapping[Vertex, int] = field(repr=False)
    _adjacency: Mapping[Vertex, tuple[Vertex, ...]] = field(repr=False)

    def vertex_index(self, v: Vertex) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {v!r}") from None

    def edge_key(self, u: Vertex, v: Vertex) -> Edge:
        """Canonical form of the unordered pair: earlier vertex first."""
        if self.vertex_index(u) <= self.vertex_index(v):
            return (u, v)
        return (v, u)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self._weights)

    def edge_count(self) -> int:
        return len(self._weights)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        if u == v:
            return False
        return self.edge_key(u, v) in self._weights

    def weight(self, u: Vertex, v: Vertex) -> Weight:
        return self._weights[self.edge_key(u, v)]

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        self.vertex_index(v)
        return self._adjacency.get(v, ())

    def weighted_edges(self) -> Iterator[tuple[Vertex, Vertex, Weight]]:
        for (u, v), w in self._weights.items():
            yield u, v, w


def build_graph(
    vertices: Sequence[Vertex],
    weighted_edges: Iterable[tuple[Vertex, Vertex, object]] = (),
) -> WeightedGraph:
    """Build a weighted graph, validating the simple-graph rules.

    Vertex order is preserved exactly as given and becomes the canonical
    order. Raises SelfLoopError, DuplicateEdgeError, UnknownVertexError or
    NegativeWeightError on bad input.
    """
    verts = tuple(vertices)
    if not verts:
        raise UnknownVertexError("vertex list must be nonempty")
    index: dict[Vertex, int] = {}
    for v in verts:
        if v in index:
            raise DuplicateEdgeError(f"vertex {v!r} listed twice")
        index[v] = len(index)

    weights: dict[Edge, Weight] = {}
    adjacency: dict[Vertex, list[Vertex]] = {v: [] for v in verts}
    for u, v, raw in weighted_edges:
        if u not in index:
            raise UnknownVertexError(f"edge endpoint {u!r} not in vertex list")
        if v not in index:
            raise UnknownVertexError(f"edge endpoint {v!r} not in vertex list")
        if u == v:
            raise SelfLoopError(f"edge {{{u!r},{v!r}}} is a self-loop")
        key = (u, v) if index[u] < index[v] else (v, u)
        if key in weights:
            raise DuplicateEdgeError(f"edge {{{u!r},{v!r}}} given twice")
        weights[key] = to_weight(raw)
        adjacency[u].append(v)
        adjacency[v].append(u)

    # Edges and neighbourhoods are stored in canonical order, once.
    canonical = sorted(weights, key=lambda e: (index[e[0]], index[e[1]]))
    adj = {
        v: tuple(sorted(ns, key=index.__getitem__)) for v, ns in adjacency.items()
    }
    return WeightedGraph(verts, {e: weights[e] for e in canonical}, index, adj)


def connected_components(g: WeightedGraph) -> Partition:
    """Maximal connected vertex sets, ordered by first-vertex appearance.

    Vertices inside each block keep the graph's canonical order.
    """
    seen: set[Vertex] = set()
    blocks: list[tuple[Vertex, ...]] = []
    for start in g.vertices:
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        block = [start]
        while queue:
            u = queue.popleft()
            for nb in g.neighbors(u):
                if nb not in seen:
                    seen.add(nb)
                    block.append(nb)
                    queue.append(nb)
        block.sort(key=g.vertex_index)
        blocks.append(tuple(block))
    return Partition(tuple(blocks))


def is_connected(g: WeightedGraph) -> bool:
    return len(connected_components(g)) == 1


def strict_threshold_subgraph(g: WeightedGraph, bound) -> WeightedGraph:
    """Subgraph on the same vertices keeping edges of weight strictly below ``bound``.

    Monotone in the bound: raising it can only add edges.
    """
    b = to_weight(bound)
    kept = [(u, v, w) for u, v, w in g.weighted_edges() if w < b]
    return build_graph(g.vertices, kept)


def induced_subgraph(g: WeightedGraph, subset: Iterable[Vertex]) -> WeightedGraph:
    """Induced subgraph on ``subset``, vertices in the host graph's order."""
    chosen = set(subset)
    for v in chosen:
        g.vertex_index(v)
    verts = tuple(v for v in g.vertices if v in chosen)
    kept = [
        (u, v, w)
        for u, v, w in g.weighted_edges()
        if u in chosen and v in chosen
    ]
    return build_graph(verts, kept)


@dataclass(frozen=True)
class Path:
    """Repetition-free vertex sequence whose consecutive pairs are edges."""

    vertices: tuple[Vertex, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        for a, b in zip(self.vertices, self.vertices[1:]):
            yield a, b

    def validate_in(self, g: WeightedGraph) -> None:
        if not self.vertices:
            raise ValueError("path must have at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("path repeats a vertex")
        for a, b in self.edges():
            if not g.has_edge(a, b):
                raise ValueError(f"pair {{{a!r},{b!r}}} is not an edge")

    def max_weight(self, g: WeightedGraph) -> Weight:
        return max(g.weight(a, b) for a, b in self.edges())

    def total_weight(self, g: WeightedGraph) -> Weight:
        return sum((g.weight(a, b) for a, b in self.edges()), Fraction(0))


@dataclass(frozen=True)
class Cycle:
    """Cyclic repetition-free vertex sequence of length at least three."""

    vertices: tuple[Vertex, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        n = len(self.vertices)
        for i in range(n):
            yield self.vertices[i], self.vertices[(i + 1) % n]

    def validate_in(self, g: WeightedGraph) -> None:
        if len(self.vertices) < 3:
            raise ValueError("cycle needs at least three vertices")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("cycle repeats a vertex")
        for a, b in self.edges():
            if not g.has_edge(a, b):
                raise ValueError(f"pair {{{a!r},{b!r}}} is not an edge")

    def max_weight_edges(self, g: WeightedGraph) -> list[tuple[Vertex, Vertex]]:
        """Edges attaining the cycle's maximal weight."""
        weighted = [(g.weight(a, b), (a, b)) for a, b in self.edges()]
        top = max(w for w, _ in weighted)
        return [e for w, e in weighted if w == top]
