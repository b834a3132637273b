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
strong triangle is certified in O(n²) by each vertex's nearest earlier
vertex, scanned only for a witness. ``_merge_levels`` is the one
single-linkage core: it reads a graph's edge columns, grouped into levels
by one stable sort of the level column, builds no per-edge tuple but a
closer's and yields its own root list. Every cluster is an interval of one
leaf order, so a builder fills two slices per merge (``_fill_intervals``).
A merge tree is flat lists (``_merge_tree``), a ``Dendrogram`` a view on them.
Floyd–Warshall, the plain triangle, ``compare`` and the exponent run on
the values times the lcm of their denominators, exact integers in int32,
int64 or Python ints, whichever twice the largest fits first
(``_as_array``), unless that lcm is wider than ``graph._SCALE_BITS``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property
from enum import Enum
from fractions import Fraction
from itertools import chain, combinations, compress, count
from operator import attrgetter
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DisconnectedError,
    NotPseudometricError,
    NotPseudoultrametricError,
    NotUltrametricError,
    UnknownVertexError,
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
        try:
            return self._values[self._ranks[self._index[u], self._index[v]]]
        except KeyError as e:
            raise UnknownVertexError(f"unknown vertex {e.args[0]!r}") from None

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
    """The stand-ins in int32, or else int64, when they are integers and
    twice the largest fits (a sum of two cannot wrap), else an object array."""
    top = 2 * max(values) if scale is not None else math.inf  # Fractions: no fixed width
    return np.array(values, dtype=np.int32 if top < 2**31 else np.int64 if top < 2**63 else object)


def _first(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first true cell in row-major order (``argmax`` stops there), else None."""
    at = int(bad.argmax()) if bad.size else 0
    return tuple(map(int, np.unravel_index(at, bad.shape))) if bad.size and bad.flat[at] else None


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


def _nearest_earlier(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The strict lower triangle of nonempty ``ranks``, and each vertex k's nearest
    earlier vertex p(k), the first on ties (vertex 0's own is 0)."""
    lower = np.tri(len(ranks), k=-1, dtype=bool)
    top = np.iinfo(ranks.dtype).max  # above every rank: no matrix has that many values
    return lower, np.where(lower, ranks, top).argmin(axis=1)


def _strong_triangle_holds(ranks: np.ndarray) -> bool:
    """Whether ``ranks`` satisfy the strong triangle, in a fixed number of O(n²)
    passes; they must be symmetric with a zero diagonal, as the asymmetry and
    nonzero-diagonal checks before it in ``_CHECKS`` order ensure. They hold iff
    d(k, j) = max(d(k, p(k)), d(p(k), j)) for every j < k, p(k) the nearest earlier.
    Sound: by induction on k, d is then the path maximum of the tree with edges
    (k, p(k)), a pseudoultrametric, as the tree path from k to j < k runs via p(k).
    Complete: in a pseudoultrametric d(k, p(k)) ≤ d(k, j), so d(p(k), j) ≤
    max(d(p(k), k), d(k, j)) = d(k, j), and d(k, j) ≤ max(d(k, p(k)), d(p(k), j))."""
    n = len(ranks)
    if not n:  # argmin needs a row
        return True
    lower, parent = _nearest_earlier(ranks)
    bound = np.maximum(ranks[parent], ranks[np.arange(n), parent][:, None])
    return not ((ranks != bound) & lower).any()


def _witness(kind: str, ranks: np.ndarray, values: Sequence[Weight]) -> tuple[int, ...] | None:
    """First witness against one check in scan order, else None, for the
    entries ``values[ranks]`` (as ``_from_values`` takes them)."""
    if kind == "asymmetry":
        return _first(ranks != ranks.T)  # its first true cell lies above the diagonal
    if kind == "nonzero-diagonal":  # rank 0 is the value 0 if any entry is
        return _first(np.diagonal(ranks) != 0) if values[0] == 0 else (0,)
    if kind == "strong-triangle":  # scanned only for a witness
        return None if _strong_triangle_holds(ranks) else _scan_witness(ranks, np.maximum)
    if kind == "triangle":
        return _scan_witness(_as_array(*_rescale(values))[ranks], np.add)
    np.fill_diagonal(zero := ranks == 0, False)  # zero-off-diagonal, once the diagonal is zero
    return _first(zero)


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
    checked. When every cell is a ``str`` the cells are their own keys;
    otherwise a string keys itself and any other cell is keyed with its type
    (1.0 is no 1), a Fraction by its two integers, since its hash is Python code.
    Each key is numbered by first appearance, in one pass over the cells."""
    size = sum(map(len, rows))

    def numbered(keys) -> tuple[dict, np.ndarray]:
        first = defaultdict(count().__next__)  # a new key takes the next number
        return first, np.fromiter(map(first.__getitem__, keys), np.int32, size)

    try:  # a str caches its hash: text keys itself in one C pass
        if text := type(next(chain.from_iterable(rows), None)) is str:
            first, at = numbered(chain.from_iterable(rows))
            text = all(type(k) is str for k in first)
        if not text:
            first, at = numbered(c if (t := type(c)) is str else (t, c) if t is not Fraction
                                 else (t, c.numerator, c.denominator) for c in chain.from_iterable(rows))
    except TypeError:  # an unhashable cell, refused in row-major order
        [convert(cell) for cell in chain.from_iterable(rows)]
        raise
    # Otherwise a key first appears where the running maximum of the numbers grows.
    distinct = first if text else compress(chain.from_iterable(rows),
                                           np.diff(np.maximum.accumulate(at), prepend=-1).tolist())
    converted = list(map(convert, distinct))
    _check_vertices(vertices)
    n = len(vertices)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise VertexMismatchError(f"entries must form a {n}x{n} square")
    values, ranks = _ranked(converted)  # two spellings may give one value
    return _from_values(vertices, values, np.array(ranks, dtype=np.int32)[at].reshape(n, n))


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


def _level_slices(columns: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The index edges ``columns`` ``(i, j, k)`` in level order, one stable
    sort of ``k``, and where each level present starts, then their count."""
    columns = columns.take(columns[2].argsort(kind="stable"), axis=1)
    return columns, [*np.unique(columns[2], return_index=True)[1].tolist(), columns.shape[1]]


def _merge_levels(n: int, columns: np.ndarray, values: Sequence[Weight]):
    """Kruskal pass over the index edges ``columns`` ``(i, j, k)`` of weight
    ``values[k]``, one weight level at a time; ``values`` must be increasing.

    Yields ``(w, closers, merges, roots)`` per level present, increasing.
    ``closers`` are the level's edges ``(i, j, k)`` whose endpoints strictly
    lighter edges already joined; ``merges`` lists each union in edge order as
    ``(ra, rb, sa, sb)``, the roots and sizes of the two clusters it fused,
    survivor first. Each root leads its cluster in ``_fill_intervals``' order.
    ``roots`` is each vertex's root once the level's merges are done: the
    core's own list, not a copy, so the next level changes it.
    Quick-find: ``label`` holds each vertex's root and each root its members,
    so a merge relabels the smaller cluster, O(n log n) relabels in all.
    """
    columns, starts = _level_slices(columns)
    ii, jj, kk = columns.tolist()
    label, members = list(range(n)), [[v] for v in range(n)]
    for lo, hi in zip(starts, starts[1:]):
        k, a, b = kk[lo], ii[lo:hi], jj[lo:hi]
        closers = [(i, j, k) for i, j in zip(a, b) if label[i] == label[j]]
        merges = []
        for i, j in zip(a, b):
            ra, rb = label[i], label[j]
            if ra == rb:
                continue
            ma, mb = members[ra], members[rb]
            if len(ma) < len(mb):
                ra, rb, ma, mb = rb, ra, mb, ma
            merges.append((ra, rb, len(ma), len(mb)))
            for v in mb:
                label[v] = ra
            ma += mb
        yield values[k], closers, merges, label


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
    for w, _, level, _ in _merge_levels(len(g.vertices), g._edge_columns, g._levels):
        if level and w:
            weights.append(w)
        merges += [(*m, len(weights) - 1) for m in level]
    return _from_values(g.vertices, weights, _fill_intervals(len(g.vertices), merges, 0))


def shortest_path_matrix(g: WeightedGraph) -> DistanceMatrix:
    """Greatest pseudometric lying edgewise below the weighting.

    Min-sum path distance, computed exactly by Floyd–Warshall, one numpy
    pass per pivot, on the weights' exact stand-ins from ``_rescale``.
    """
    _require_connected(g)
    n = len(g.vertices)
    # No shortest path has more than n - 1 edges, so ``far`` stands for no
    # path yet; ``_as_array`` picks a dtype in which twice it fits.
    lengths, scale = _rescale(g._levels)
    far = (n - 1) * max(lengths, default=0) + 1
    stand = _as_array([*lengths, far], scale)
    d = np.full((n, n), stand[-1], dtype=stand.dtype)
    i, j, k = g._edge_columns
    d[i, j] = d[j, i] = stand[k]
    np.fill_diagonal(d, Fraction(0) if scale is None else 0)
    buf = np.empty_like(d)
    for z in range(n):
        np.add.outer(d[:, z], d[z], out=buf)
        np.minimum(d, buf, out=d)
    stand_ins, ranks = np.unique(d, return_inverse=True)
    values = stand_ins.tolist()
    if scale is not None:  # back to Fractions, one per distinct distance
        values = [Fraction(x, scale) for x in values]
    return _from_values(g.vertices, values, ranks.astype(np.int32).reshape(n, n))


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


class Dendrogram:
    """Merge tree of an ultrametric: distance = 2 x height of the
    lowest common ancestor.

    Leaves carry a label and height 0; internal nodes carry height =
    merge distance / 2 and at least two children. Simultaneous merges at
    one height collapse into a single multiway node, making the tree a
    canonical function of the matrix. Children are ordered by the
    smallest vertex name they contain. A tree ``_merge_tree`` built is a view
    on its lists, building a node's children when ``children`` is first read.
    """

    def __init__(self, height: Weight, children: tuple["Dendrogram", ...],
                 label: Vertex | None = None):
        vars(self).update(height=height, label=label, _kids=children, _tree=None, _at=0)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def children(self) -> tuple["Dendrogram", ...]:
        if self._kids is None:  # a view's children, built on first read
            vars(self)["_kids"] = tuple(_view(self._tree, k) for k in self._tree[2][self._at])
        return self._kids

    def _lists(self) -> tuple[tuple, int]:
        """The ``_merge_tree`` lists that hold this node, and its index. A
        hand-built tree is flattened once, children before parents and ordered
        by least leaf, its heights kept as given: one table entry per node."""
        if self._tree is None:
            table, kids, least, at = [], [], [], {}
            for node in reversed(list(self._preorder())):  # a subtree met twice is flattened twice
                below = sorted([at[id(ch)] for ch in node.children], key=least.__getitem__)
                at[id(node)] = len(table)
                table.append(node.height)
                kids.append(below)
                least.append(least[below[0]] if below else node.label)
            vars(self).update(_tree=(table, range(len(table)), kids, least, False), _at=len(table) - 1)
        return self._tree, self._at

    def is_leaf(self) -> bool:
        return self._kids is not None and not self._kids  # an unread view is internal

    def _preorder(self) -> Iterator["Dendrogram"]:
        """Every node, parents before children, without recursion."""
        return _walk(attrgetter("children"), self)

    def leaves(self) -> list[Vertex]:
        if self._kids is None:  # an unread view: its lists, building no node
            kids, least = self._tree[2:4]
            return [least[k] for k in _walk(kids.__getitem__, self._at) if not kids[k]]
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


def _walk(children, top) -> Iterator:
    """``top`` and every node below it, parents before children, without
    recursion; ``children`` gives a node's children."""
    stack = [top]
    while stack:
        node = stack.pop()
        yield node
        stack += reversed(children(node))


def _view(tree: tuple, k: int) -> Dendrogram:
    """Node ``k`` of the ``_merge_tree`` lists ``tree``; its children are built when read."""
    node, (table, rank, kids, least, _) = Dendrogram.__new__(Dendrogram), tree
    vars(node).update(height=table[rank[k]] / 2, label=None if kids[k] else least[k],
                      _kids=None if kids[k] else (), _tree=tree, _at=k)
    return node


def _merge_tree(vertices: Sequence[Vertex], levels) -> Dendrogram:
    """Multiway merge tree of a connected ``_merge_levels`` sequence, as a view on
    the lists ``(table, rank, kids, least, True)``: ``table`` holds 0 and each
    merge weight, twice each distinct height (``True`` says so), and per node,
    children before parents, ``rank`` indexes its entry, ``kids`` lists its
    children, ordered by least leaf, and ``least`` holds that leaf's label.
    Node v < n is the leaf of v's zero class: zero-weight merges collapse a
    class into one leaf named after its first vertex in canonical order, as
    ``quotient`` names its blocks. Positive merges at one height extend one node.
    """
    n = len(vertices)
    first, least = list(range(n)), list(vertices)  # each zero class's first vertex
    rank, kids, table = [0] * n, [()] * n, [Fraction(0)]
    top = list(range(n))  # each cluster root's node
    root = 0
    for w, _, merges, _ in levels:
        if not w:
            for root, rb, _, _ in merges:
                first[root] = min(first[root], first[rb])
                least[root] = vertices[first[root]]
            continue
        growing: dict[int, list[int]] = {}
        for root, rb, _, _ in merges:
            below = growing.pop(root, None) or [top[root]]
            below += growing.pop(rb, None) or [top[rb]]
            growing[root] = below
        if merges:
            table.append(w)
        for r, below in growing.items():
            below.sort(key=least.__getitem__)
            top[r] = len(rank)
            rank.append(len(table) - 1)
            kids.append(below)
            least.append(least[below[0]])
    return _view((table, rank, kids, least, True), top[root])


def subdominant_dendrogram(g: WeightedGraph) -> Dendrogram:
    """Merge tree of the subdominant pseudoultrametric, read off the merges.

    Equals ``dendrogram(quotient(subdominant_matrix(g))[1])`` without the
    matrix; leaves are the zero-distance classes. Raises DisconnectedError
    like ``subdominant_matrix``.
    """
    levels = list(_merge_levels(len(g.vertices), g._edge_columns, g._levels))
    if sum(len(merges) for _, _, merges, _ in levels) < len(g.vertices) - 1:
        _require_connected(g)  # raises, naming two components
    return _merge_tree(g.vertices, levels)


def dendrogram(m: DistanceMatrix) -> Dendrogram:
    """Single-linkage merge tree of an ultrametric matrix.

    Requires an actual ultrametric; quotient a pseudoultrametric first.
    """
    if m.axiom_class is not AxiomClass.ULTRAMETRIC:
        raise NotUltrametricError(
            f"matrix class is {m.axiom_class.value}, need ultrametric"
        )
    n = len(m.vertices)
    k = np.arange(1, n)  # nearest-earlier edges: a tree whose path maximum is m
    parent = _nearest_earlier(m._ranks)[1][1:]
    edges = np.stack([k, parent, m._ranks[k, parent]])
    return _merge_tree(m.vertices, _merge_levels(n, edges, m._values))


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
    (table, rank, kids, least, doubled), root = d._lists()
    # A node's children fuse left to right into its first leaf's cluster, coded
    # by the table entry of its height; the diagonal gets the code after them.
    tops: dict[int, tuple[int, int]] = {}  # finished node -> (root, size)
    merges = []
    for k in reversed(list(_walk(kids.__getitem__, root))):  # children before parents
        (ra, sa), *rest = [tops.pop(c) for c in kids[k]] or [(idx[least[k]], 1)]
        for rb, sb in rest:
            merges.append((ra, rb, sa, sb, rank[k]))
            sa += sb
        tops[k] = (ra, sa)
    codes = _fill_intervals(len(verts), merges, len(table))
    # Each used height converted once, in row-major order: the first bad one errs.
    heights = [*table, Fraction(0)]
    used = list(dict.fromkeys(codes.ravel().tolist()))
    values, ranks = _ranked([heights[c] if doubled else 2 * to_weight(heights[c]) for c in used])
    recode = np.zeros(len(heights), dtype=np.int32)
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
