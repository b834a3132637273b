"""Distance matrices: construction, axiom checking, and derived forms.

Two matrix builders live here. ``subdominant_matrix`` computes the
greatest pseudoultrametric lying edgewise below a weighting, which on a
finite connected graph equals the minimax (bottleneck) path distance;
``shortest_path_matrix`` computes the greatest pseudometric below the
weighting, the usual min-sum path distance. Both are exact.

A matrix is its ranks: its sorted distinct values and each cell's int32
rank among them, so each value is converted, rescaled and formatted once,
and ``entries`` is built only when read. Its class is verified at
construction: ``_CHECKS`` lists each class's checks for ``validate`` and
``_classify``, all but the plain triangle read the ranks alone, and the
strong triangle is certified in O(n²) by a Prim tree, scanned only for a
witness. ``_merge_levels`` is the one single-linkage core; every cluster
is an interval of one leaf order, so a builder fills two slices per merge
(``_fill_intervals``). Dijkstra, the plain triangle, ``compare`` and the
exponent run on the values times the lcm of their denominators, exact
integers, unless that lcm is wider than ``graph._SCALE_BITS``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from fractions import Fraction
from itertools import combinations, groupby
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DisconnectedError,
    NotPseudometricError,
    NotPseudoultrametricError,
    NotUltrametricError,
    VertexMismatchError,
)
from .graph import (
    Partition,
    Vertex,
    Weight,
    WeightedGraph,
    _ranked,
    _rescale,
    build_graph,
    connected_components,
    to_weight,
)


class AxiomClass(Enum):
    """Strongest axiom package a matrix satisfies.

    ``metric`` and ``pseudoultrametric`` are incomparable strengthenings
    of ``pseudometric``; their conjunction is ``ultrametric``.
    """

    NONE = "none"
    PSEUDOMETRIC = "pseudometric"
    METRIC = "metric"
    PSEUDOULTRAMETRIC = "pseudoultrametric"
    ULTRAMETRIC = "ultrametric"

    def satisfies(self, target: "AxiomClass") -> bool:
        return target in _IMPLIED[self]


_IMPLIED = {
    AxiomClass.NONE: {AxiomClass.NONE},
    AxiomClass.PSEUDOMETRIC: {AxiomClass.NONE, AxiomClass.PSEUDOMETRIC},
    AxiomClass.METRIC: {
        AxiomClass.NONE,
        AxiomClass.PSEUDOMETRIC,
        AxiomClass.METRIC,
    },
    AxiomClass.PSEUDOULTRAMETRIC: {
        AxiomClass.NONE,
        AxiomClass.PSEUDOMETRIC,
        AxiomClass.PSEUDOULTRAMETRIC,
    },
    AxiomClass.ULTRAMETRIC: set(AxiomClass),
}


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric square matrix of exact distances with a verified class: its
    distinct entries ``_values``, increasing, and each cell's int32 rank, which
    equality and hash read as bytes. ``entries`` is built on first read."""

    vertices: tuple[Vertex, ...]
    axiom_class: AxiomClass
    _values: tuple[Weight, ...]
    _ranks: np.ndarray = field(compare=False)
    _rank_bytes: bytes
    _index: dict = field(compare=False)

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def entries(self) -> tuple[tuple[Weight, ...], ...]:
        return tuple(map(tuple, np.array(self._values, dtype=object)[self._ranks].tolist()))

    def entry(self, u: Vertex, v: Vertex) -> Weight:
        return self._values[self._ranks[self._index[u], self._index[v]]]

    def rank_array(self) -> np.ndarray:
        """Read-only integer recoding of the entries (order-isomorphic)."""
        return self._ranks

    def __repr__(self) -> str:  # the form of a dataclass holding the entries
        return (f"{type(self).__qualname__}(vertices={self.vertices!r}, "
                f"entries={self.entries!r}, axiom_class={self.axiom_class!r})")


class PartialOrderResult(Enum):
    EQUAL = "equal"
    FIRST_LESS = "first-less"
    SECOND_LESS = "second-less"
    INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class Verdict:
    """Outcome of an axiom check; carries a witness when it fails.

    Witness shapes: (x, y) for an asymmetric or zero off-diagonal pair,
    (x,) for a nonzero diagonal entry, (x, z, y) for a triple where the
    distance x-y exceeds the bound through z.
    """

    passed: bool
    kind: str = ""
    witness: tuple[Vertex, ...] = ()

    def __bool__(self) -> bool:
        return self.passed


PASS = Verdict(True)


def _as_array(values: list, scale: int | None) -> np.ndarray:
    """int64 when the stand-ins are integers and twice the largest fits (a
    sum of two cannot wrap), else an object array of them."""
    narrow = scale is not None and 2 * max(values) < 2**63
    return np.array(values, dtype=np.int64 if narrow else object)


def _first(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first true cell in row-major order, else None."""
    hits = np.argwhere(bad)
    return tuple(map(int, hits[0])) if len(hits) else None


def _scan_witness(d: np.ndarray, bound_of: np.ufunc) -> tuple[int, int, int] | None:
    """First (x, z, y) in z-x-y order with d(x,y) > bound_of(d(x,z), d(z,y))."""
    n = d.shape[0]
    bound = np.empty_like(d)
    bad = np.empty(d.shape, dtype=bool)
    for z in range(n):
        bound_of.outer(d[:, z], d[z, :], out=bound)
        np.greater(d, bound, out=bad)
        if bad.any():
            x, y = _first(bad)
            return (x, z, y)
    return None


def _strong_triangle_holds(ranks: np.ndarray) -> bool:
    """Whether ``ranks`` satisfy the strong triangle, in O(n²); they must be
    symmetric with a zero diagonal, as the asymmetry and nonzero-diagonal
    checks before it in ``_CHECKS`` order ensure.

    Prim from vertex 0 joins each vertex k to its nearest placed vertex
    p(k). The ranks hold iff d(k, j) = max(d(k, p(k)), d(p(k), j)) for every
    j placed before k: the right side fills in the tree's path maximum, an
    ultrametric, and an ultrametric equals its own minimax distance, which
    every minimum spanning tree realises."""
    n = len(ranks)
    if not n:  # argmin needs a row
        return True
    top = np.int64(np.iinfo(np.int64).max)  # above every rank; as a NumPy scalar, never cast down
    rows = ranks.astype(np.int64)  # a placed vertex's column turns to top
    place = np.zeros(n, dtype=np.intp)  # position in Prim order
    link = np.full(n, top - 1)  # rank to the nearest placed vertex; top once placed
    for t in range(n):
        k = int(link.argmin())
        place[k], link[k], rows[:, k] = t, top, top
        np.minimum(link, rows[k], out=link)
    earlier = place < place[:, None]  # at [k, j]: j placed before k
    parent = np.where(earlier, ranks, top).argmin(axis=1)  # the nearest such j
    bound = np.maximum(ranks[parent], ranks[np.arange(n), parent][:, None])
    return not ((ranks != bound) & earlier).any()


def _witness(kind: str, ranks: np.ndarray, values: Sequence[Weight]) -> tuple[int, ...] | None:
    """First witness against one check in scan order, else None, for the
    entries ``values[ranks]`` (as ``_from_values`` takes them)."""
    if kind == "asymmetry":
        return _first(np.triu(ranks != ranks.T))
    if kind == "nonzero-diagonal":  # rank 0 is the value 0 if any entry is
        return _first(np.diagonal(ranks) != 0) if values[0] == 0 else (0,)
    if kind == "strong-triangle":  # scanned only for a witness
        return None if _strong_triangle_holds(ranks) else _scan_witness(ranks, np.maximum)
    if kind == "triangle":
        return _scan_witness(_as_array(*_rescale(values))[ranks], np.add)
    # zero-off-diagonal, checked once the diagonal is zero
    return _first((ranks == 0) & ~np.eye(len(ranks), dtype=bool))


# The checks of every class, then each class's own, in scan order. A
# class comes after every class it implies, so reversed, the first class
# that passes is the strongest.
_BASE_CHECKS = ("asymmetry", "nonzero-diagonal")
_CHECKS = {
    AxiomClass.NONE: (),
    AxiomClass.PSEUDOMETRIC: ("triangle",),
    AxiomClass.METRIC: ("triangle", "zero-off-diagonal"),
    AxiomClass.PSEUDOULTRAMETRIC: ("strong-triangle",),
    AxiomClass.ULTRAMETRIC: ("strong-triangle", "zero-off-diagonal"),
}


def _classify(ranks: np.ndarray, values: Sequence[Weight]) -> AxiomClass:
    """Strongest class whose checks pass, running each check at most once;
    ``NONE`` also when the base checks fail."""
    passed: dict[str, bool] = {}

    def passes(kind: str) -> bool:
        if kind not in passed:  # no witness wanted: the certificate decides the strong triangle
            passed[kind] = (_strong_triangle_holds(ranks) if kind == "strong-triangle"
                            else _witness(kind, ranks, values) is None)
        return passed[kind]

    strongest = (c for c in reversed(_CHECKS) if all(map(passes, _BASE_CHECKS + _CHECKS[c])))
    return next(strongest, AxiomClass.NONE)


def _from_values(vertices: Sequence[Vertex], values: Sequence[Weight], ranks: np.ndarray):
    """Classified matrix with entries ``values[ranks]``: ``values`` must be
    the distinct entries, increasing, and ``ranks`` int32, their dense recoding."""
    values = tuple(values)
    cls = _classify(ranks, values)
    ranks.flags.writeable = False
    index = {v: i for i, v in enumerate(vertices)}
    return DistanceMatrix(tuple(vertices), cls, values, ranks, ranks.tobytes(), index)


def _check_vertices(verts: tuple[Vertex, ...]) -> None:
    if len(set(verts)) != len(verts) or not verts:
        raise VertexMismatchError("vertex names must be nonempty and distinct")


def _from_cells(vertices: Sequence[Vertex], rows, convert):
    """Matrix over ``vertices`` from raw cells: ``convert`` runs once per
    distinct cell, by first appearance, before the names and the shape are
    checked. A string keys itself, any other cell with its type (1.0 is no 1)."""
    cells = [cell for row in rows for cell in row]
    keys = [cell if type(cell) is str else (type(cell), cell) for cell in cells]
    first: dict = {}  # where each key first appears
    try:  # each key hashed once: Fraction.__hash__ is Python code
        at = list(map(first.setdefault, keys, range(len(keys))))
    except TypeError:  # an unhashable cell, refused in row-major order
        [convert(cell) for cell in cells]
        raise
    converted = [convert(cells[i]) for i in first.values()]
    _check_vertices(vertices)
    n = len(vertices)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise VertexMismatchError(f"entries must form a {n}x{n} square")
    values, ranks = _ranked(converted)  # two spellings may give one value
    codes = np.fromiter(map(dict(zip(first.values(), ranks)).__getitem__, at), np.int32, n * n)
    return _from_values(vertices, values, codes.reshape(n, n))


def distance_matrix(vertices: Sequence[Vertex], entries) -> DistanceMatrix:
    """Build a matrix from raw entries, verifying its axiom class.

    Entries may be Fractions, ints or strings; the square shape is
    required, symmetry is not (an asymmetric matrix classifies as
    ``none`` and validate will name the offending pair).
    """
    verts = tuple(vertices)
    _check_vertices(verts)  # before any entry, so that its error comes first
    return _from_cells(verts, [list(row) for row in entries], to_weight)


def validate(m: DistanceMatrix, target: AxiomClass) -> Verdict:
    """Check the entries against ``target`` from scratch.

    Returns PASS or a Verdict carrying the first witness in scan order:
    asymmetric pair, nonzero diagonal, violating triple, zero
    off-diagonal pair.
    """
    for kind in _BASE_CHECKS + _CHECKS[target]:
        w = _witness(kind, m.rank_array(), m._values)
        if w:
            return Verdict(False, kind, tuple(m.vertices[i] for i in w))
    return PASS


def _require_connected(g: WeightedGraph) -> None:
    comps = connected_components(g)
    if len(comps) > 1:
        raise DisconnectedError(comps.blocks[0][0], comps.blocks[1][0])


def _merge_levels(n: int, edges: Iterable[tuple[int, int, int]], values: Sequence[Weight]):
    """Kruskal pass over index edges ``(i, j, k)`` of weight ``values[k]``,
    one weight level at a time; ``values`` must be increasing.

    Yields ``(w, closers, merges)`` per level present, increasing.
    ``closers`` are the level's edges whose endpoints strictly lighter
    edges already joined; ``merges`` lists each union in edge order as
    ``(ra, rb, sa, sb)``, the roots and sizes of the two clusters it fused,
    survivor first. Each root leads its cluster in ``_fill_intervals``' order.
    """
    parent, size = list(range(n)), [1] * n

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for k, batch in groupby(sorted(edges, key=itemgetter(2)), key=itemgetter(2)):
        batch = list(batch)
        roots = [(find(i), find(j)) for i, j, _ in batch]
        closers = [e for e, (ra, rb) in zip(batch, roots) if ra == rb]
        merges = []
        for ra, rb in roots:
            ra, rb = find(ra), find(rb)  # short walks: they were roots as the level started
            if ra == rb:
                continue
            if size[ra] < size[rb]:
                ra, rb = rb, ra
            merges.append((ra, rb, size[ra], size[rb]))
            parent[rb] = ra
            size[ra] += size[rb]
        yield values[k], closers, merges


def _fill_intervals(n: int, merges: list, fill: int) -> np.ndarray:
    """int32 codes in vertex order: ``code`` between the clusters each merge
    ``(ra, rb, sa, sb, code)`` fuses into one tree of all ``n`` vertices, ``fill``
    on the diagonal. Each cluster is an interval of one leaf order, from its root."""
    at = [0] * n  # each vertex's place in the leaf order
    codes = np.full((n, n), fill, dtype=np.int32)
    for ra, rb, sa, sb, code in reversed(merges):  # a later merge placed ra
        lo = at[ra]
        at[rb] = mid = lo + sa
        codes[lo:mid, mid:mid + sb] = codes[mid:mid + sb, lo:mid] = code
    return codes[np.ix_(at, at)]


def subdominant_matrix(g: WeightedGraph) -> DistanceMatrix:
    """Greatest pseudoultrametric lying edgewise below the weighting.

    Equals the minimax path distance: the least possible bottleneck over
    all paths joining each pair. Computed by merging components in order
    of increasing edge weight (single-linkage agglomeration); the weight
    at which two vertices first share a component is exactly their least
    path bottleneck. Raises DisconnectedError naming vertices from two
    components when no extension below the weight exists at all.
    """
    _require_connected(g)
    weights, merges = [Fraction(0)], []  # weight of each rank; merges with their rank
    for w, _, level in _merge_levels(len(g.vertices), g._level_edges, g._levels):
        if level and w:
            weights.append(w)
        merges += [(*m, len(weights) - 1) for m in level]
    return _from_values(g.vertices, weights, _fill_intervals(len(g.vertices), merges, 0))


def shortest_path_matrix(g: WeightedGraph) -> DistanceMatrix:
    """Greatest pseudometric lying edgewise below the weighting.

    Min-sum path distance, computed exactly by Dijkstra from every
    source (weights are nonnegative by construction) on the weights'
    exact stand-ins from ``_rescale``.
    """
    _require_connected(g)
    verts = g.vertices
    n = len(verts)
    # Exact stand-ins for the weight levels (integers on a common
    # denominator unless that is too wide) keep Dijkstra exact.
    lengths, scale = _rescale(g._levels)
    adj: list[list] = [[] for _ in verts]
    for i, j, k in g._level_edges:
        adj[i].append((j, lengths[k]))
        adj[j].append((i, lengths[k]))
    zero = Fraction(0) if scale is None else 0
    flat: list = []
    for s in range(n):
        dist = [math.inf] * n
        dist[s] = zero
        heap = [(zero, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for nb, k in adj[u]:
                if d + k < dist[nb]:
                    dist[nb] = d + k
                    heapq.heappush(heap, (d + k, nb))
        flat += dist
    stand_ins, ranks = np.unique(_as_array(flat, scale), return_inverse=True)
    values = stand_ins.tolist()
    if scale is not None:  # back to Fractions, one per distinct distance
        values = [Fraction(x, scale) for x in values]
    return _from_values(verts, values, ranks.astype(np.int32).reshape(n, n))


def compare(m1: DistanceMatrix, m2: DistanceMatrix) -> PartialOrderResult:
    """Entrywise comparison under the usual partial order on distances."""
    if m1.vertices != m2.vertices:
        raise VertexMismatchError("matrices are over different vertex lists")
    # Rescaling both value tables together puts them on one scale.
    d = _as_array(*_rescale(m1._values + m2._values))
    upper = np.triu_indices(len(m1.vertices), 1)
    a, b = d[m1._ranks[upper]], d[len(m1._values) + m2._ranks[upper]]
    le, ge = bool((a <= b).all()), bool((a >= b).all())
    if le and ge:
        return PartialOrderResult.EQUAL
    if le:
        return PartialOrderResult.FIRST_LESS
    if ge:
        return PartialOrderResult.SECOND_LESS
    return PartialOrderResult.INCOMPARABLE


def quotient(m: DistanceMatrix) -> tuple[Partition, DistanceMatrix]:
    """Collapse zero-distance classes, turning a pseudoultrametric into
    an ultrametric.

    Blocks are ordered by first appearance and named after their first
    member; the distance between blocks is the (constant) distance
    between any members.
    """
    if not m.axiom_class.satisfies(AxiomClass.PSEUDOULTRAMETRIC):
        raise NotPseudoultrametricError(
            f"matrix class is {m.axiom_class.value}, need pseudoultrametric"
        )
    # Zero distance is an equivalence here, so the first zero (rank 0) in
    # each row sits at the first member of that vertex's class.
    blocks: dict[int, list[Vertex]] = {}
    for v, first in zip(m.vertices, (m._ranks == 0).argmax(axis=1).tolist()):
        blocks.setdefault(first, []).append(v)
    reps = list(blocks)  # every value lies between two classes: the ranks stay dense
    q = _from_values([m.vertices[r] for r in reps], m._values, m._ranks[np.ix_(reps, reps)])
    return Partition(tuple(map(tuple, blocks.values()))), q


@dataclass(frozen=True, eq=False, repr=False)
class Dendrogram:
    """Merge tree of an ultrametric: distance = 2 x height of the
    lowest common ancestor.

    Leaves carry a label and height 0; internal nodes carry height =
    merge distance / 2 and at least two children. Simultaneous merges at
    one height collapse into a single multiway node, making the tree a
    canonical function of the matrix. Children are ordered by the
    smallest vertex name they contain.
    """

    height: Weight
    children: tuple["Dendrogram", ...]
    label: Vertex | None = None

    def is_leaf(self) -> bool:
        return not self.children

    def _preorder(self) -> Iterator["Dendrogram"]:
        """Every node, parents before children, without recursion."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self) -> list[Vertex]:
        return [node.label for node in self._preorder() if node.is_leaf()]

    def min_leaf(self) -> Vertex:
        return min(self.leaves())

    # Equality, hash and the dataclass repr without recursion, so that
    # trees of any depth work. The preorder of (height, label, child
    # count) triples determines the tree.
    def _key(self) -> tuple:
        return tuple((n.height, n.label, len(n.children)) for n in self._preorder())

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
                continue
            kids = item.children
            out.append(f"{type(item).__qualname__}(height={item.height!r}, children=(")
            stack.append(("," if len(kids) == 1 else "") + f"), label={item.label!r})")
            for k in reversed(range(len(kids))):
                stack += [kids[k], ", "] if k else [kids[k]]
        return "".join(out)


def _merge_tree(vertices: Sequence[Vertex], levels) -> Dendrogram:
    """Multiway merge tree of a connected ``_merge_levels`` sequence.

    Zero-weight merges collapse into one leaf named after the class's
    first vertex in canonical order, as ``quotient`` names its blocks.
    Positive merges at one height extend one node, whose children are
    ordered by their least leaf label.
    """
    first = list(range(len(vertices)))  # first vertex of each zero class
    tops: dict[int, tuple[Vertex, Dendrogram]] = {}  # root -> (least leaf, tree)

    def top(r: int) -> tuple[Vertex, Dendrogram]:
        if r in tops:
            return tops.pop(r)
        label = vertices[first[r]]
        return label, Dendrogram(Fraction(0), (), label)

    root = 0
    for w, _, merges in levels:
        if not w:
            for root, rb, _, _ in merges:
                first[root] = min(first[root], first[rb])
            continue
        growing: dict[int, list[tuple[Vertex, Dendrogram]]] = {}
        for root, rb, _, _ in merges:
            kids = growing.pop(root, None) or [top(root)]
            kids += growing.pop(rb, None) or [top(rb)]
            growing[root] = kids
        for r, kids in growing.items():
            kids.sort(key=itemgetter(0))
            tops[r] = (kids[0][0], Dendrogram(w / 2, tuple(t for _, t in kids)))
    return top(root)[1]


def subdominant_dendrogram(g: WeightedGraph) -> Dendrogram:
    """Merge tree of the subdominant pseudoultrametric, read off the merges.

    Equals ``dendrogram(quotient(subdominant_matrix(g))[1])`` without the
    matrix; leaves are the zero-distance classes. Raises DisconnectedError
    like ``subdominant_matrix``.
    """
    _require_connected(g)
    return _merge_tree(g.vertices, _merge_levels(len(g.vertices), g._level_edges, g._levels))


def dendrogram(m: DistanceMatrix) -> Dendrogram:
    """Single-linkage merge tree of an ultrametric matrix.

    Requires an actual ultrametric; quotient a pseudoultrametric first.
    """
    if m.axiom_class is not AxiomClass.ULTRAMETRIC:
        raise NotUltrametricError(
            f"matrix class is {m.axiom_class.value}, need ultrametric"
        )
    n = len(m.vertices)
    i, j = np.triu_indices(n, 1)
    pairs = zip(i.tolist(), j.tolist(), m._ranks[i, j].tolist())
    return _merge_tree(m.vertices, _merge_levels(n, pairs, m._values))


def matrix_from_dendrogram(
    d: Dendrogram, vertices: Sequence[Vertex] | None = None
) -> DistanceMatrix:
    """Reconstruct the ultrametric a dendrogram encodes.

    Vertex order defaults to the tree's leaf order; passing an explicit
    order (a permutation of the leaves) reproduces a particular matrix
    exactly.
    """
    leaf_order = d.leaves()
    verts = tuple(vertices) if vertices is not None else tuple(leaf_order)
    if sorted(verts) != sorted(leaf_order):
        raise VertexMismatchError("vertex list must be a permutation of leaves")
    _check_vertices(verts)
    idx = {v: i for i, v in enumerate(verts)}
    nodes = list(d._preorder())
    # A node's children fuse left to right into its first leaf's cluster, coded
    # by the node's place in preorder; the diagonal gets the code after them.
    tops: dict[int, tuple[int, int]] = {}  # finished node -> (root, size)
    merges = []
    for code in reversed(range(len(nodes))):  # children before parents
        kids = [tops.pop(id(ch)) for ch in nodes[code].children]
        (ra, sa), *rest = kids or [(idx[nodes[code].label], 1)]
        for rb, sb in rest:
            merges.append((ra, rb, sa, sb, code))
            sa += sb
        tops[id(nodes[code])] = (ra, sa)
    codes = _fill_intervals(len(verts), merges, len(nodes))
    # Each used distance converted once, in row-major order: the first bad one errs.
    dist = [2 * node.height for node in nodes] + [Fraction(0)]
    used = list(dict.fromkeys(codes.ravel().tolist()))
    values, ranks = _ranked([to_weight(dist[c]) for c in used])
    recode = np.zeros(len(dist), dtype=np.int32)
    recode[used] = ranks
    return _from_values(verts, values, recode[codes])


INFINITE_EXPONENT = math.inf


def _check_tolerance(tol: float) -> float:
    """A bisection tolerance: positive and finite, so the bisection ends."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    return tol


def betweenness_exponent(m: DistanceMatrix, tol: float = 1e-9) -> float:
    """Supremum of the powers to which the matrix stays a (pseudo)metric.

    Per triple with sorted distances a >= b >= c: no constraint when
    a = b (the power of a max-bound never breaks); exactly 1 when
    a = b + c (the triangle inequality is tight and any higher power
    breaks it); otherwise the unique root of (b/a)^x + (c/a)^x = 1,
    found by bisection to ``tol``. The result is the minimum over all
    triples, or the Infinite sentinel (math.inf) when nothing
    constrains the power, which happens exactly for pseudoultrametrics.
    ``tol`` must be positive and finite (ValueError otherwise).
    """
    _check_tolerance(tol)
    if not m.axiom_class.satisfies(AxiomClass.PSEUDOMETRIC):
        raise NotPseudometricError(
            f"matrix class is {m.axiom_class.value}, need at least pseudometric"
        )
    # The exact stand-ins keep the ties exact, and both int / int and a
    # Fraction ratio round correctly, giving the floats of the entries' ratios.
    rows = _as_array(*_rescale(m._values))[m.rank_array()].tolist()
    best = INFINITE_EXPONENT
    n = len(m.vertices)
    for i, j, k in combinations(range(n), 3):
        a, b, c = sorted((rows[i][j], rows[i][k], rows[j][k]), reverse=True)
        if a == b:
            continue
        if a == b + c:
            return 1.0
        r1, r2 = float(b / a), float(c / a)
        if r1 >= 1.0:
            # b < a exactly but b/a rounds to 1.0; the root for this
            # triple sits beyond float pow resolution, so it cannot be
            # the binding minimum at any representable exponent.
            continue

        def excess(alpha: float) -> float:
            return r1**alpha + r2**alpha - 1.0

        hi = 2.0
        while excess(hi) >= 0.0:
            hi *= 2.0
        lo = 1.0
        while hi - lo > tol:
            mid = (lo + hi) / 2.0
            if not lo < mid < hi:  # adjacent floats: below any tolerance
                break
            if excess(mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        best = min(best, (lo + hi) / 2.0)
    return best


def matrix_to_complete_graph(m: DistanceMatrix) -> WeightedGraph:
    """Complete graph whose weight on each pair is the matrix entry."""
    rows, v = m.rank_array().tolist(), m.vertices
    pairs = combinations(range(len(v)), 2)
    return build_graph(v, [(v[i], v[j], m._values[rows[i][j]]) for i, j in pairs])
