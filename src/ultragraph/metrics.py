"""Distance matrices: construction, axiom checking, and derived forms.

Two matrix builders live here. ``subdominant_matrix`` computes the
greatest pseudoultrametric lying edgewise below a weighting, which on a
finite connected graph equals the minimax (bottleneck) path distance;
``shortest_path_matrix`` computes the greatest pseudometric below the
weighting, the usual min-sum path distance. Both are exact.

Every matrix records the strongest axiom class its entries actually
satisfy; the class is verified at construction, never assumed. The
min-sum layer runs on exact integers: the entries (or edge weights)
times the lcm of their denominators, which preserves every comparison
and every sum; only when coprime denominators make that lcm wider than
``_SCALE_BITS`` do the Fractions stand for themselves. Dijkstra, the
plain-triangle check, the rank recoding, ``compare`` and the betweenness
exponent's ties use them. The strong-triangle check runs on the
order-isomorphic rank recoding. Both checks are vectorized per middle
vertex, and the verdicts stay exact.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
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
    """Symmetric square matrix of exact distances with a verified class."""

    vertices: tuple[Vertex, ...]
    entries: tuple[tuple[Weight, ...], ...]
    axiom_class: AxiomClass
    _ranks: np.ndarray = field(compare=False, repr=False)
    _index: dict = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.vertices)

    def entry(self, u: Vertex, v: Vertex) -> Weight:
        return self.entries[self._index[u]][self._index[v]]

    def rank_array(self) -> np.ndarray:
        """Read-only integer recoding of the entries (order-isomorphic)."""
        return self._ranks


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


# Widest lcm the min-sum layer rescales by. Coprime denominators can make
# the lcm as wide as all of them together, and every rescaled entry with
# it; up to this width an integer is about the size of a Fraction entry,
# past it the Fractions stand for themselves.
_SCALE_BITS = 1024


def _rescale(values: Sequence[Weight]) -> tuple[list, int | None]:
    """Exact stand-ins for ``values`` and their scale.

    The stand-ins are the values times the lcm of their denominators,
    which preserves every comparison and every sum, and the scale is that
    lcm; when it is wider than ``_SCALE_BITS``, the values stand for
    themselves and the scale is None.
    """
    scale = 1
    for q in {x.denominator for x in values}:
        scale = math.lcm(scale, q)
        if scale.bit_length() > _SCALE_BITS:
            return list(values), None
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _as_array(values: list, scale: int | None) -> np.ndarray:
    """int64 when the stand-ins are integers and twice the largest fits (a
    sum of two cannot wrap), else an object array of them."""
    narrow = scale is not None and 2 * max(values) < 2**63
    return np.array(values, dtype=np.int64 if narrow else object)


def _exact_array(rows: Sequence[Sequence[Weight]]) -> np.ndarray:
    """Exact stand-ins for the entries, one array row per row."""
    flat = [x for row in rows for x in row]
    return _as_array(*_rescale(flat)).reshape(len(rows), -1)


def _recode_ranks(d: np.ndarray) -> np.ndarray:
    """Dense integer ranks from 0 with the same comparison structure as ``d``."""
    _, inverse = np.unique(d.ravel(), return_inverse=True)
    return inverse.astype(np.int32).reshape(d.shape)


def _first(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first true cell in row-major order, else None."""
    hits = np.argwhere(bad)
    return tuple(map(int, hits[0])) if len(hits) else None


def _diagonal_witness(rows) -> tuple[int] | None:
    for i, row in enumerate(rows):
        if row[i] != 0:
            return (i,)
    return None


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


def _zero_offdiagonal_witness(ranks: np.ndarray) -> tuple[int, int] | None:
    # Rank 0 is the value 0 once the diagonal is known to be zero.
    return _first((ranks == 0) & ~np.eye(len(ranks), dtype=bool))


def _classify(d: np.ndarray, ranks: np.ndarray) -> AxiomClass:
    # Symmetry is a rank question: the recoding preserves equality.
    if not np.array_equal(ranks, ranks.T) or _diagonal_witness(d):
        return AxiomClass.NONE
    strong = _scan_witness(ranks, np.maximum) is None
    if not strong and _scan_witness(d, np.add) is not None:
        return AxiomClass.NONE
    positive = _zero_offdiagonal_witness(ranks) is None
    if strong:
        return AxiomClass.ULTRAMETRIC if positive else AxiomClass.PSEUDOULTRAMETRIC
    return AxiomClass.METRIC if positive else AxiomClass.PSEUDOMETRIC


def _finish(vertices: tuple[Vertex, ...], rows, d: np.ndarray, ranks=None):
    """Matrix of ``rows``, classified on their exact array ``d``."""
    if ranks is None:
        ranks = _recode_ranks(d)
    cls = _classify(d, ranks)
    entries = tuple(tuple(row) for row in rows)
    ranks.flags.writeable = False
    index = {v: i for i, v in enumerate(vertices)}
    return DistanceMatrix(vertices, entries, cls, ranks, index)


def distance_matrix(vertices: Sequence[Vertex], entries) -> DistanceMatrix:
    """Build a matrix from raw entries, verifying its axiom class.

    Entries may be Fractions, ints or strings; the square shape is
    required, symmetry is not (an asymmetric matrix classifies as
    ``none`` and validate will name the offending pair).
    """
    verts = tuple(vertices)
    n = len(verts)
    if len(set(verts)) != n or n == 0:
        raise VertexMismatchError("vertex names must be nonempty and distinct")
    rows = [[to_weight(x) for x in row] for row in entries]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise VertexMismatchError(f"entries must form a {n}x{n} square")
    return _finish(verts, rows, _exact_array(rows))


def validate(m: DistanceMatrix, target: AxiomClass) -> Verdict:
    """Check the entries against ``target`` from scratch.

    Returns PASS or a Verdict carrying the first witness in scan order:
    asymmetric pair, nonzero diagonal, violating triple, zero
    off-diagonal pair.
    """
    rows = m.entries
    ranks = m.rank_array()

    def fail(kind: str, w: tuple[int, ...]) -> Verdict:
        return Verdict(False, kind, tuple(m.vertices[i] for i in w))

    # The recoding preserves equality, so symmetry is a rank question.
    w = _first(np.triu(ranks != ranks.T))
    if w:
        return fail("asymmetry", w)
    w = _diagonal_witness(rows)
    if w:
        return fail("nonzero-diagonal", w)
    if target is AxiomClass.NONE:
        return PASS
    if target in (AxiomClass.PSEUDOULTRAMETRIC, AxiomClass.ULTRAMETRIC):
        w = _scan_witness(ranks, np.maximum)
        if w:
            return fail("strong-triangle", w)
    else:
        w = _scan_witness(_exact_array(rows), np.add)
        if w:
            return fail("triangle", w)
    if target in (AxiomClass.METRIC, AxiomClass.ULTRAMETRIC):
        w = _zero_offdiagonal_witness(ranks)
        if w:
            return fail("zero-off-diagonal", w)
    return PASS


def _require_connected(g: WeightedGraph) -> None:
    comps = connected_components(g)
    if len(comps) > 1:
        raise DisconnectedError(comps.blocks[0][0], comps.blocks[1][0])


def _merge_levels(n: int, edges: Iterable[tuple[int, int, Weight]]):
    """Kruskal pass over index edges ``(i, j, w)``, one weight level at a time.

    Yields ``(w, closers, merges)`` per distinct weight, increasing.
    ``closers`` are the level's edges whose endpoints strictly lighter
    edges already joined; ``merges`` lists each union in edge order as the
    member lists of the two clusters it fused, survivor first. The lists
    are never mutated once yielded, and a cluster's first member is its root.
    """
    parent = list(range(n))
    members: list[list[int]] = [[i] for i in range(n)]

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for w, batch in groupby(sorted(edges, key=itemgetter(2)), key=itemgetter(2)):
        batch = list(batch)
        closers = [e for e in batch if find(e[0]) == find(e[1])]
        merges = []
        for i, j, _ in batch:
            ra, rb = find(i), find(j)
            if ra == rb:
                continue
            if len(members[ra]) < len(members[rb]):
                ra, rb = rb, ra
            a, b = members[ra], members[rb]
            merges.append((a, b))
            parent[rb] = ra
            members[ra] = a + b
            members[rb] = []
        yield w, closers, merges


def _graph_levels(g: WeightedGraph):
    """``_merge_levels`` over the graph's edges in canonical order."""
    idx = g._index
    return _merge_levels(
        len(g.vertices), [(idx[u], idx[v], w) for u, v, w in g.weighted_edges()]
    )


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
    n = len(g.vertices)
    ranks = np.zeros((n, n), dtype=np.int32)
    weights = [Fraction(0)]  # weight of each rank
    for w, _, merges in _graph_levels(g):
        if merges and w:
            weights.append(w)
        for a, b in merges:
            ranks[np.asarray(a)[:, None], b] = len(weights) - 1
            ranks[np.asarray(b)[:, None], a] = len(weights) - 1
    values = np.asarray(weights, dtype=object)[ranks]
    d = _as_array(*_rescale(weights))[ranks]
    return _finish(g.vertices, values.tolist(), d, ranks)


def shortest_path_matrix(g: WeightedGraph) -> DistanceMatrix:
    """Greatest pseudometric lying edgewise below the weighting.

    Min-sum path distance, computed exactly by Dijkstra from every
    source (weights are nonnegative by construction) on the weights'
    exact stand-ins from ``_rescale``.
    """
    _require_connected(g)
    verts = g.vertices
    n = len(verts)
    idx = g._index
    # Exact stand-ins for the weights (integers on a common denominator
    # unless that is too wide) keep Dijkstra exact.
    weights = list({w for _, _, w in g.weighted_edges()})
    lengths, scale = _rescale(weights)
    length = dict(zip(weights, lengths))
    adj = [[(idx[nb], length[g.weight(u, nb)]) for nb in g.neighbors(u)] for u in verts]
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
    d = _as_array(flat, scale).reshape(n, n)
    if scale is not None:  # back to Fractions, one per distinct distance
        exact = {x: Fraction(x, scale) for x in set(flat)}
        flat = [exact[x] for x in flat]
    return _finish(verts, [flat[i : i + n] for i in range(0, n * n, n)], d)


def compare(m1: DistanceMatrix, m2: DistanceMatrix) -> PartialOrderResult:
    """Entrywise comparison under the usual partial order on distances."""
    if m1.vertices != m2.vertices:
        raise VertexMismatchError("matrices are over different vertex lists")
    n = len(m1.vertices)
    # One exact array over both matrices puts their entries on one scale.
    d = _exact_array(m1.entries + m2.entries)
    upper = np.triu_indices(n, 1)
    a, b = d[:n][upper], d[n:][upper]
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
    # Zero distance is an equivalence here, so the first zero in each row
    # sits at the first member of that vertex's class.
    blocks: dict[int, list[Vertex]] = {}
    for v, row in zip(m.vertices, m.entries):
        blocks.setdefault(row.index(0), []).append(v)
    reps = list(blocks)
    rows = [[m.entries[a][b] for b in reps] for a in reps]
    names = [m.vertices[r] for r in reps]
    return Partition(tuple(map(tuple, blocks.values()))), distance_matrix(names, rows)


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
            for a, b in merges:
                first[a[0]] = min(first[a[0]], first[b[0]])
                root = a[0]
            continue
        growing: dict[int, list[tuple[Vertex, Dendrogram]]] = {}
        for a, b in merges:
            kids = growing.pop(a[0], None) or [top(a[0])]
            kids += growing.pop(b[0], None) or [top(b[0])]
            growing[a[0]] = kids
            root = a[0]
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
    return _merge_tree(g.vertices, _graph_levels(g))


def dendrogram(m: DistanceMatrix) -> Dendrogram:
    """Single-linkage merge tree of an ultrametric matrix.

    Requires an actual ultrametric; quotient a pseudoultrametric first.
    """
    if m.axiom_class is not AxiomClass.ULTRAMETRIC:
        raise NotUltrametricError(
            f"matrix class is {m.axiom_class.value}, need ultrametric"
        )
    n = len(m.vertices)
    pairs = [(i, j, m.entries[i][j]) for i, j in combinations(range(n), 2)]
    return _merge_tree(m.vertices, _merge_levels(n, pairs))


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
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    rows = [[Fraction(0)] * n for _ in range(n)]

    for node in d._preorder():
        groups = [ch.leaves() for ch in node.children]
        dist = 2 * node.height
        for gi, gj in combinations(groups, 2):
            for a in gi:
                for b in gj:
                    rows[idx[a]][idx[b]] = dist
                    rows[idx[b]][idx[a]] = dist
    return distance_matrix(verts, rows)


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
    rows = _exact_array(m.entries).tolist()
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
    edges = [
        (m.vertices[i], m.vertices[j], m.entries[i][j])
        for i, j in combinations(range(len(m.vertices)), 2)
    ]
    return build_graph(m.vertices, edges)
