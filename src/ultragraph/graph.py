"""Immutable finite simple graphs with exact nonnegative rational weights.

Vertices are opaque text tokens. Their order of first appearance is the
canonical order used everywhere downstream: it fixes matrix rows, edge
canonicalization and all deterministic output. Weights are
:class:`fractions.Fraction` values; equality and ordering of weights are
exact, which the extension criteria depend on.
Every verdict but the min-sum distance reads the weights only through
their order, which ``_ranked`` alone decides, for matrices too. A graph
is stored in index form: its sorted distinct weights, ``_levels``, and
its edges in canonical order as the rows ``i``, ``j``, ``level`` of one
read-only intp array, ``_edge_columns``, whose bytes equality and hash
read. ``build_graph``, ``io.parse_edge_list`` and
``strict_threshold_subgraph`` share one assembler that sorts the index
pairs and ranks the weights. The index adjacency comes from one CSR
builder, ``_csr``; it, and the weights and the adjacency by name, are
views built on their first read.
"""

from __future__ import annotations

import functools
import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    NegativeWeightError,
    SelfLoopError,
    UnknownVertexError,
)

Vertex = str
Weight = Fraction
Edge = tuple[Vertex, Vertex]


# Widest lcm ``_rescale`` scales by. Coprime denominators can make the lcm
# as wide as all of them together; up to this width a stand-in is about the
# size of a Fraction, past it the Fractions stand for themselves.
_SCALE_BITS = 1024


# Longest weight literal, and largest exponent magnitude, accepted: both
# bound the digits Fraction must build, well below int's 4,300-digit str limit.
_LITERAL_LIMIT = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")
_TOO_LARGE = (
    f"weight literal longer than {_LITERAL_LIMIT} characters "
    f"or with an exponent beyond {_LITERAL_LIMIT} in size"
)


def _too_large(text: str) -> bool:
    """Whether the literal ``text`` is past ``_LITERAL_LIMIT`` in length or exponent."""
    exp = _EXPONENT.search(text)
    return len(text) > _LITERAL_LIMIT or bool(exp and abs(int(exp[1])) > _LITERAL_LIMIT)


def _rescale(values: Sequence[Weight]) -> tuple[list, int | None]:
    """Exact stand-ins for ``values`` and their scale: the values times the
    lcm of their denominators, which preserves every comparison and every
    sum, and that lcm; the values themselves and None when the lcm is wider
    than ``_SCALE_BITS``."""
    scale = 1
    for q in {x.denominator for x in values}:
        scale = math.lcm(scale, q)
        if scale.bit_length() > _SCALE_BITS:
            return list(values), None
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _ranked(values: Sequence[Weight]) -> tuple[tuple[Weight, ...], list[int]]:
    """The distinct ``values``, increasing, and the rank of each value: the
    one place exact values are ordered, by the stand-ins of ``_rescale``."""
    stand = _rescale(values)[0]
    value = dict(zip(stand, values))  # one value per distinct stand-in
    rank = {s: k for k, s in enumerate(sorted(value))}
    return tuple(map(value.__getitem__, rank)), list(map(rank.__getitem__, stand))


def to_weight(value) -> Weight:
    """Coerce ``value`` to an exact nonnegative weight.

    Accepts Fraction, int, or a string in decimal ("0.25") or ratio
    ("1/4") notation. Floats are rejected: their binary value is almost
    never the decimal the caller had in mind, and exact equality of
    weights is semantically load-bearing here. A string past
    ``_LITERAL_LIMIT`` in length or exponent, or with a zero denominator,
    is a ValueError.
    """
    if isinstance(value, float):
        raise TypeError(
            "refusing to build an exact weight from float; pass a string, "
            "int or Fraction"
        )
    if isinstance(value, str) and _too_large(value):
        raise ValueError(_TOO_LARGE)
    try:
        w = Fraction(value)
    except ZeroDivisionError:  # "1/0"
        raise ValueError(f"weight literal {value!r} has a zero denominator") from None
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

    Instances are immutable, hashable value objects; every operation on
    them is a pure function, so sharing across threads needs no
    coordination. Construct through :func:`build_graph`.
    """

    vertices: tuple[Vertex, ...]
    _index: Mapping[Vertex, int] = field(compare=False, repr=False)
    _levels: tuple[Weight, ...] = field(repr=False)
    _edge_columns: np.ndarray = field(compare=False, repr=False)
    _edge_bytes: bytes = field(repr=False)

    @functools.cached_property
    def _weights(self) -> dict[Edge, Weight]:
        """Each edge's weight by its canonical name pair, in canonical order."""
        v, w = self.vertices, self._levels
        return {(v[i], v[j]): w[k] for i, j, k in zip(*self._edge_columns.tolist())}

    @functools.cached_property
    def _neighbours(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours by index, increasing."""
        return _csr(len(self.vertices), self._edge_columns)

    @functools.cached_property
    def _adjacency(self) -> dict[Vertex, tuple[Vertex, ...]]:
        """Each vertex's neighbours in canonical order."""
        v = self.vertices
        return {u: tuple(map(v.__getitem__, a)) for u, a in zip(v, self._neighbours)}

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
        return self._edge_columns.shape[1]

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

    weights: dict[tuple[int, int], Weight] = {}
    for u, v, raw in weighted_edges:
        if u not in index:
            raise UnknownVertexError(f"edge endpoint {u!r} not in vertex list")
        if v not in index:
            raise UnknownVertexError(f"edge endpoint {v!r} not in vertex list")
        i, j = index[u], index[v]
        if i == j:
            raise SelfLoopError(f"edge {{{u!r},{v!r}}} is a self-loop")
        key = (i, j) if i < j else (j, i)
        if key in weights:
            raise DuplicateEdgeError(f"edge {{{u!r},{v!r}}} given twice")
        # A Fraction with a nonnegative numerator is a weight already.
        weights[key] = raw if type(raw) is Fraction and raw.numerator >= 0 else to_weight(raw)
    i, j = np.array(list(weights), np.intp).reshape(-1, 2).T
    return _assemble(verts, index, i, j, list(weights.values()), np.arange(len(weights)))


def _assemble(
    verts: tuple[Vertex, ...], index: dict, i: np.ndarray, j: np.ndarray, values, codes
) -> WeightedGraph:
    """The graph on ``verts`` whose edges are the checked index pairs
    ``(i[e], j[e])``, ``i[e] < j[e]``, of weight ``values[codes[e]]``: the one
    assembly path of ``build_graph``, ``parse_edge_list`` and
    ``strict_threshold_subgraph``."""
    # The canonical edge order. numpy's default sort would load about
    # 0.2 MB more code on its first call; the stable one loads none.
    order = np.argsort(i * len(verts) + j, kind="stable")
    levels, ranks = _ranked(values)
    columns = np.stack([i[order], j[order], np.array(ranks, np.intp)[codes[order]]])
    columns.flags.writeable = False
    return WeightedGraph(verts, index, levels, columns, columns.tobytes())


def _csr(n: int, columns: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Each of ``n`` vertices' neighbours along the index edges ``columns``:
    one stable sort of the endpoints, lower ends first, so that edges in
    canonical order give each vertex its lower neighbours, then its higher
    ones, increasing."""
    ends, nbs = columns[1::-1].ravel(), columns[:2].ravel()  # the rows j, i and i, j
    nbs = tuple(nbs[ends.argsort(kind="stable")].tolist())  # stable, as in _assemble
    bounds = [0, *np.bincount(ends, minlength=n).cumsum().tolist()]
    return tuple(nbs[a:b] for a, b in zip(bounds, bounds[1:]))


def _reach(adj: Sequence[Sequence[int]], start: int, parent: list[int]) -> list[int]:
    """The vertices reached from ``start`` along the index adjacency ``adj``,
    breadth first with neighbours in order, in visiting order. Each gets its
    predecessor in ``parent`` (``start`` itself); a vertex whose ``parent``
    is not -1 counts as already seen."""
    parent[start] = start
    found = [start]
    for u in found:  # the visiting order is its own queue
        for nb in adj[u]:
            if parent[nb] < 0:
                parent[nb] = u
                found.append(nb)
    return found


def connected_components(g: WeightedGraph) -> Partition:
    """Maximal connected vertex sets, ordered by first-vertex appearance.

    Vertices inside each block keep the graph's canonical order.
    """
    adj = g._neighbours
    parent = [-1] * len(adj)
    blocks = [_reach(adj, v, parent) for v in range(len(adj)) if parent[v] < 0]
    return Partition(tuple(tuple(map(g.vertices.__getitem__, sorted(b))) for b in blocks))


def is_connected(g: WeightedGraph) -> bool:
    return len(connected_components(g)) == 1


def strict_threshold_subgraph(g: WeightedGraph, bound) -> WeightedGraph:
    """Subgraph on the same vertices keeping edges of weight strictly below ``bound``.

    Monotone in the bound: raising it can only add edges.
    """
    cut = bisect_left(g._levels, to_weight(bound))
    i, j, k = g._edge_columns.compress(g._edge_columns[2] < cut, axis=1)
    return _assemble(g.vertices, g._index, i, j, g._levels[:cut], k)


def induced_subgraph(g: WeightedGraph, subset: Iterable[Vertex]) -> WeightedGraph:
    """Induced subgraph on ``subset``, vertices in the host graph's order."""
    chosen = dict.fromkeys(subset)  # in the caller's order, for the error
    [g.vertex_index(v) for v in chosen]
    verts = tuple(v for v in g.vertices if v in chosen)
    kept = [(u, v, w) for u, v, w in g.weighted_edges() if u in chosen and v in chosen]
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
