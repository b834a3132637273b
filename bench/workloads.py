"""Seeded input generators and the op list of each workload's sessions.

A session is the list of ops run on one generated graph. Every graph is
a plain record (vertex names, weighted edges, and what its construction
implies about the answers), so the reference checks in ``reference.py``
never need the library to interpret an input.

Every workload fixes its sizes and shapes and lets the seed vary only
the content, so runs with different seeds do comparable work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

# Sizes per workload. Sessions cycle through the pool in order.
SPARSE_N = 40
SPARSE_POOL = 24
# (n, parts, part shape, weight levels, zero classes) per pool slot. The
# shape mix is fixed so that seeds vary content, not cost. The first slot
# is the star K(1, 39). Levels None gives every vertex its own height,
# which makes the extension unique in most graphs.
MULTIPARTITE_DESIGN = (
    (40, 2, "singleton", None, False),
    (60, 3, "balanced", 4, True),
    (80, 4, "skewed", 8, False),
    (50, 5, "singleton", 3, True),
    (70, 6, "balanced", 6, False),
    (60, 2, "skewed", 1, True),
    (50, 4, "balanced", None, False),
    (70, 3, "singleton", 7, True),
    (80, 5, "balanced", 2, False),
    (40, 6, "skewed", 8, True),
)
# The pool holds the design this many times over, with fresh content each
# time, so the costs of a run average over many merge trees.
MULTIPARTITE_REPEATS = 4
# One size, so that every chain session costs about the same and the
# latency median does not hop between sizes when the machine slows.
CHAIN_N = 200
CHAIN_POOL = 8
DEEP_N = 1000

SPARSE_OPS = (
    ("check",),
    ("subdominant",),
    ("shortest",),
    ("tm",),
    ("wch",),
    ("unique",),
)
MULTIPARTITE_OPS = (
    ("structure",),
    ("check",),
    ("subdominant",),
    ("least",),
    ("unique",),
    ("tm",),
    ("wch",),
)
# ``parse_matrix`` is a library call on the JSON the second op printed.
CHAIN_OPS = (
    ("check",),
    ("subdominant",),
    ("subdominant", "--format", "newick"),
    ("parse_matrix",),
)
DEEP_OPS = (("subdominant", "--format", "newick"),)
OPS = {
    "sparse": SPARSE_OPS,
    "multipartite": MULTIPARTITE_OPS,
    "chain": CHAIN_OPS,
    "deep": DEEP_OPS,
}


@dataclass
class Graph:
    """One generated input and the facts its construction guarantees.

    ``planted`` is the ultrametric the weights were restricted from
    (None for random weights); ``extendable`` is known by construction;
    ``parts`` lists the complete multipartite parts when there are any.
    """

    vertices: list[str]
    edges: list[tuple[str, str, Fraction]]
    extendable: bool
    planted: list[list[Fraction]] | None = None
    parts: list[list[str]] | None = None
    path_weights: list[Fraction] | None = None

    def edge_list_text(self) -> str:
        lines = [f"vertex {v}" for v in self.vertices]
        lines += [f"{u} {v} {_literal(w)}" for u, v, w in self.edges]
        return "\n".join(lines) + "\n"


def _literal(w: Fraction) -> str:
    return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def _names(n: int) -> list[str]:
    return [f"v{i}" for i in range(n)]


def merge_heights(
    rng: random.Random, n: int, levels: list[Fraction], zero: int, distinct: bool
) -> list[Fraction]:
    """n - 1 nondecreasing merge heights: ``zero`` of them 0, the rest drawn
    from ``levels``, without repeats when ``distinct``."""
    k = n - 1 - zero
    drawn = rng.sample(levels, k) if distinct else [rng.choice(levels) for _ in range(k)]
    return [Fraction(0)] * zero + sorted(drawn)


def planted_ultrametric(
    rng: random.Random, n: int, heights: list[Fraction]
) -> list[list[Fraction]]:
    """Random pseudoultrametric from n - 1 merges of two random clusters at
    the given nondecreasing heights; two points sit at the height of the
    merge that joined them."""
    clusters = [[i] for i in range(n)]
    d = [[Fraction(0)] * n for _ in range(n)]
    for h in heights:
        a, b = rng.sample(range(len(clusters)), 2)
        for i in clusters[a]:
            for j in clusters[b]:
                d[i][j] = d[j][i] = h
        clusters[a].extend(clusters[b])
        clusters.pop(b)
    return d


def caterpillar_ultrametric(
    order: list[int], heights: list[Fraction]
) -> list[list[Fraction]]:
    """Pseudoultrametric in which ``order[j]`` joins the first j points at
    ``heights[j - 1]`` (nondecreasing); with distinct heights most pairs
    then have a path whose maximal edge is unique."""
    n = len(order)
    d = [[Fraction(0)] * n for _ in range(n)]
    for j in range(1, n):
        b, h = order[j], heights[j - 1]
        for a in order[:j]:
            d[a][b] = d[b][a] = h
    return d


def sparse_graph(rng: random.Random, n: int, extendable: bool) -> Graph:
    """Path v0..v{n-1} plus chords: a random set of the other pairs, as
    many as probability 4/n gives on average (fixed, so seeds vary where
    the chords are and not how many).

    Random weights k/4 (k in 1..8) plant a triangle with a unique maximal
    edge, so the graph is not extendable. Otherwise the weights are
    restricted from a planted ultrametric, some with zero-distance classes.
    """
    verts = _names(n)
    pairs = [(i, i + 1) for i in range(n - 1)]
    others = [(i, j) for i in range(n) for j in range(i + 2, n)]
    pairs += sorted(rng.sample(others, round(len(others) * 4 / n)))
    if extendable:
        # Random merges at tied levels leave several extensions; distinct
        # heights joined in path order leave exactly one, so ``unique``
        # takes both answers.
        zero = rng.choice([0, rng.randint(1, n // 8)])
        if rng.random() < 0.5:
            levels = [Fraction(k, 4) for k in range(1, 9)]
            d = planted_ultrametric(rng, n, merge_heights(rng, n, levels, zero, False))
        else:
            levels = [Fraction(k, 4) for k in range(1, 4 * n)]
            heights = merge_heights(rng, n, levels, zero, True)
            d = caterpillar_ultrametric(list(range(n)), heights)
        edges = [(verts[i], verts[j], d[i][j]) for i, j in pairs]
        return Graph(verts, edges, True, planted=d)
    weights = {p: Fraction(rng.randint(1, 8), 4) for p in pairs}
    t = rng.randrange(n - 2)
    weights[(t, t + 1)] = Fraction(rng.randint(1, 7), 4)
    weights[(t + 1, t + 2)] = Fraction(rng.randint(1, 7), 4)
    if (t, t + 2) not in weights:
        pairs.append((t, t + 2))
    weights[(t, t + 2)] = Fraction(2)
    edges = [(verts[i], verts[j], weights[(i, j)]) for i, j in pairs]
    return Graph(verts, edges, False)


def _balanced(total: int, k: int) -> list[int]:
    return [total // k + (i < total % k) for i in range(k)]


def multipartite_graph(
    rng: random.Random, n: int, k: int, shape: str, levels: int | None, zero: bool
) -> Graph:
    """Complete multipartite graph with ``k`` parts of the given shape.

    Its weights are restricted from a planted ultrametric (so it is
    extendable) with ``levels`` distinct positive values, or a distinct
    height per vertex when None, and zero-distance classes when ``zero``.
    The seed picks the members of each part, the weights and the merge tree.
    """
    if shape == "singleton":
        sizes = [1] + _balanced(n - 1, k - 1)
    elif shape == "skewed":
        sizes = [n // 2] + _balanced(n - n // 2, k - 1)
    else:
        sizes = _balanced(n, k)
    owner = [p for p, s in enumerate(sizes) for _ in range(s)]
    rng.shuffle(owner)
    verts = _names(n)
    parts = [[verts[i] for i in range(n) if owner[i] == p] for p in range(k)]
    parts.sort(key=lambda block: verts.index(block[0]))
    zeros = rng.randint(1, n // 10) if zero else 0
    if levels is None:
        order = list(range(n))
        rng.shuffle(order)
        values = [Fraction(j, 4) for j in range(1, 4 * n)]
        d = caterpillar_ultrametric(order, merge_heights(rng, n, values, zeros, True))
    else:
        values = rng.sample([Fraction(j, 4) for j in range(1, 17)], levels)
        d = planted_ultrametric(rng, n, merge_heights(rng, n, values, zeros, False))
    edges = [
        (verts[i], verts[j], d[i][j])
        for i in range(n)
        for j in range(i + 1, n)
        if owner[i] != owner[j]
    ]
    return Graph(verts, edges, True, planted=d, parts=parts)


def path_graph(weights: list[Fraction]) -> Graph:
    verts = _names(len(weights) + 1)
    edges = [(verts[i], verts[i + 1], w) for i, w in enumerate(weights)]
    return Graph(verts, edges, True, path_weights=list(weights))


def chain_graph(rng: random.Random, n: int) -> Graph:
    """Path on n vertices with distinct seeded weights k/4."""
    return path_graph([Fraction(k, 4) for k in rng.sample(range(1, 8 * n), n - 1)])


def build(name: str, seed: int) -> list[Graph]:
    """The seeded input pool of a workload; same seed, same inputs."""
    rng = random.Random(f"{name}:{seed}")
    if name == "sparse":
        # Alternate the two halves so any prefix of the pool is balanced.
        return [sparse_graph(rng, SPARSE_N, i % 2 == 1) for i in range(SPARSE_POOL)]
    if name == "multipartite":
        return [
            multipartite_graph(rng, *slot)
            for _ in range(MULTIPARTITE_REPEATS)
            for slot in MULTIPARTITE_DESIGN
        ]
    if name == "chain":
        return [chain_graph(rng, CHAIN_N) for _ in range(CHAIN_POOL)]
    if name == "deep":
        # A caterpillar merge tree deeper than the default recursion limit.
        return [path_graph([Fraction(k) for k in range(1, DEEP_N)])]
    raise ValueError(f"unknown workload {name!r}")


def build_small(name: str, seed: int) -> Graph:
    """A small seeded input of the workload's kind for the set-up probes:
    a session on it runs every op, so first-call costs show, but its own
    cost is small beside the import and varies little with the seed."""
    rng = random.Random(f"{name}-small:{seed}")
    if name == "sparse":
        return sparse_graph(rng, 12, True)
    if name == "multipartite":
        return multipartite_graph(rng, 12, 3, "singleton", 3, True)
    return chain_graph(rng, 30)


# Workloads the benchmark definition lists; ``deep`` is a probe run by
# hand, since the seed commit fails its one op.
WORKLOADS = ("sparse", "multipartite", "chain")
