"""Independent reference checks for every op a session runs.

Nothing here imports ``ultragraph``: answers come from the construction
of each input (``workloads.Graph``), exact Floyd-Warshall closures on
integer-rescaled weights, closed forms on paths, and the benchmark's own
Newick renderer. ``check_session`` returns one verdict per op: None when
the output is right, else the reason it is wrong.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from workloads import Graph

Outcome = tuple  # (exit code, or the escaping exception's name; stdout; stderr)


def _scale(g: Graph) -> int:
    """Common denominator of every weight, so all distances become integers."""
    return math.lcm(1, *(w.denominator for _, _, w in g.edges))


def _edge_ints(g: Graph, scale: int) -> list[tuple[int, int, int]]:
    idx = {v: i for i, v in enumerate(g.vertices)}
    return [(idx[u], idx[v], int(w * scale)) for u, v, w in g.edges]


def closure(g: Graph, scale: int, minimax: bool) -> np.ndarray:
    """Exact all-pairs minimax (or min-sum) path distance, times ``scale``."""
    n = len(g.vertices)
    inf = np.int64(1) << 40
    d = np.full((n, n), inf, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for i, j, w in _edge_ints(g, scale):
        d[i, j] = d[j, i] = w
    for k in range(n):
        via = (
            np.maximum(d[:, k : k + 1], d[k : k + 1, :])
            if minimax
            else d[:, k : k + 1] + d[k : k + 1, :]
        )
        np.minimum(d, via, out=d)
    return d


def path_minimax(weights: list[Fraction], scale: int) -> np.ndarray:
    """Closed form on a path: the heaviest edge between the two vertices."""
    n = len(weights) + 1
    w = [int(x * scale) for x in weights]
    d = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        top = 0
        for j in range(i + 1, n):
            top = max(top, w[j - 1])
            d[i, j] = d[j, i] = top
    return d


def axiom_class(d: np.ndarray) -> str:
    """Strongest axiom class of an integer matrix, by direct scan."""
    n = len(d)
    if not np.array_equal(d, d.T) or d.diagonal().any():
        return "none"
    strong = not any(
        (d > np.maximum(d[:, z : z + 1], d[z : z + 1, :])).any() for z in range(n)
    )
    if not strong and any(
        (d > d[:, z : z + 1] + d[z : z + 1, :]).any() for z in range(n)
    ):
        return "none"
    positive = not (d + np.eye(n, dtype=d.dtype) == 0).any()
    if strong:
        return "ultrametric" if positive else "pseudoultrametric"
    return "metric" if positive else "pseudometric"


def decimal(x: Fraction) -> str:
    """Shortest terminating decimal of x (its denominator must be 2^a 5^b)."""
    if x.denominator == 1:
        return str(x.numerator)
    k = 0
    while (x * 10**k).denominator != 1:
        k += 1
    digits = str(x.numerator * 10**k // x.denominator).rjust(k + 1, "0")
    return f"{digits[:-k]}.{digits[-k:]}"


def path_newick(names: list[str], weights: list[Fraction]) -> str:
    """Newick text of the merge tree of a path with distinct weights.

    That tree is the Cartesian tree of the weights: the heaviest edge
    splits the path at the root at half its weight. Children are ordered
    by their least vertex name. Built with an explicit stack, so any
    depth works.
    """
    done: dict[tuple[int, int], tuple[str, str, Fraction]] = {}
    stack = [(0, len(names) - 1, None)]
    while stack:
        lo, hi, split = stack.pop()
        if lo == hi:
            done[(lo, hi)] = (names[lo], names[lo], Fraction(0))
            continue
        if split is None:
            m = max(range(lo, hi), key=weights.__getitem__)
            stack += [(lo, hi, m), (lo, m, None), (m + 1, hi, None)]
            continue
        h = weights[split] / 2
        kids = sorted((done.pop((lo, split)), done.pop((split + 1, hi))), key=lambda t: t[1])
        text = "(" + ",".join(f"{t}:{decimal(h - kh)}" for t, _, kh in kids) + ")"
        done[(lo, hi)] = (text, kids[0][1], h)
    return done[(0, len(names) - 1)][0] + ";"


def read_matrix(text: str, g: Graph, scale: int) -> tuple[np.ndarray, str]:
    """(scaled integer entries, axiom class) of a JSON matrix, or ValueError."""
    try:
        doc = json.loads(text)
        vertices, rows, cls = doc["vertices"], doc["matrix"], doc["axiom_class"]
        values = [[Fraction(x) * scale for x in row] for row in rows]
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"unreadable matrix: {exc}") from None
    if vertices != g.vertices:
        raise ValueError("vertex list differs from the input")
    if any(len(row) != len(vertices) for row in values) or len(values) != len(vertices):
        raise ValueError("matrix is not square")
    if any(x.denominator != 1 for row in values for x in row):
        raise ValueError("entry off the weight lattice")
    return np.array([[int(x) for x in row] for row in values], dtype=np.int64), cls


def _read_pairs(text: str, g: Graph) -> set[frozenset[str]]:
    edges = {frozenset((u, v)) for u, v, _ in g.edges}
    known = set(g.vertices)
    pairs = set()
    for line in text.splitlines():
        u, v = line.split()
        pair = frozenset((u, v))
        if u == v or not {u, v} <= known or pair in edges or pair in pairs:
            raise ValueError(f"bad pair line {line!r}")
        pairs.add(pair)
    return pairs


def well_chained(g: Graph) -> set[frozenset[str]]:
    """Nonadjacent pairs joined through zero-weight edges."""
    root = {v: v for v in g.vertices}

    def find(v: str) -> str:
        while root[v] != v:
            v = root[v]
        return v

    for u, v, w in g.edges:
        if w == 0:
            root[find(u)] = find(v)
    edges = {frozenset((u, v)) for u, v, _ in g.edges}
    verts = g.vertices
    return {
        frozenset((a, b))
        for i, a in enumerate(verts)
        for b in verts[i + 1 :]
        if find(a) == find(b) and frozenset((a, b)) not in edges
    }


def _witness_ok(line: str, g: Graph) -> bool:
    """A cycle of the input whose maximal weight sits on one edge only."""
    prefix = "witness-cycle: "
    if not line.startswith(prefix):
        return False
    cycle = line[len(prefix) :].split(",")
    weight = {frozenset((u, v)): w for u, v, w in g.edges}
    if len(cycle) < 3 or len(set(cycle)) != len(cycle):
        return False
    hops = [frozenset(p) for p in zip(cycle, cycle[1:] + cycle[:1])]
    if any(h not in weight for h in hops):
        return False
    ws = [weight[h] for h in hops]
    return ws.count(max(ws)) == 1


def _structure_text(g: Graph) -> str:
    parts = g.parts
    star = len(parts) == 2 and min(map(len, parts)) == 1
    forest = "yes" if len(g.edges) == len(g.vertices) - 1 else "no"
    blocks = " | ".join(" ".join(p) for p in parts)
    return (
        f"forest: {forest}\ntree: {forest}\n"
        f"complete-multipartite: k={len(parts)}; parts: {blocks}\n"
        f"star: {'yes' if star else 'no'}\n"
    )


class _Session:
    """Reference answers for one input, computed on first use."""

    def __init__(self, g: Graph):
        self.g = g
        self.scale = math.lcm(_scale(g), *(
            x.denominator for row in (g.planted or []) for x in row
        ))
        self._sub = None

    def subdominant(self) -> np.ndarray:
        if self._sub is None:
            g = self.g
            self._sub = (
                path_minimax(g.path_weights, self.scale)
                if g.path_weights is not None
                else closure(g, self.scale, minimax=True)
            )
        return self._sub


def _matrix_reason(ref: _Session, out: str, want: np.ndarray) -> str | None:
    got, cls = read_matrix(out, ref.g, ref.scale)
    if not np.array_equal(got, want):
        return "matrix differs from the reference"
    if cls != axiom_class(want):
        return f"axiom class {cls!r}, reference {axiom_class(want)!r}"
    return None


def _least_reason(ref: _Session, out: str) -> str | None:
    g, scale = ref.g, ref.scale
    got, cls = read_matrix(out, g, scale)
    for i, j, w in _edge_ints(g, scale):
        if got[i, j] != w:
            return "least extension changes an edge weight"
    own = axiom_class(got)
    if own not in ("pseudoultrametric", "ultrametric") or cls != own:
        return f"least extension classed {cls!r}, scan says {own!r}"
    planted = np.array([[int(x * scale) for x in row] for row in g.planted])
    if (got > planted).any():
        return "least extension exceeds the planted ultrametric"
    if (planted > ref.subdominant()).any():
        return "planted ultrametric exceeds the subdominant"
    return None


def _op_reason(ref: _Session, op: tuple, outcome: Outcome, seen: dict) -> str | None:
    g = ref.g
    code, out, err = outcome
    if not isinstance(code, int):
        return f"{code} escaped"
    if code == 2 and err.count("\n") != 1:
        return "exit 2 without exactly one stderr line"
    name = op[0]
    if name == "parse_matrix":
        want = json.loads(seen[("subdominant",)][1])
        got = json.loads(out)
        return None if got == [want["vertices"], [
            [str(Fraction(x)) for x in row] for row in want["matrix"]
        ], want["axiom_class"]] else "read-back differs from the emitted matrix"
    if name == "unique" and not g.extendable:
        ok = code == 2 and not out and err.startswith("not-extendable: ")
        return None if ok else f"exit {code} on a non-extendable input"
    if name == "check":
        if g.extendable:
            ok = (code, out, err) == (0, "pseudoultrametrizable\n", "")
        else:
            ok = code == 1 and out == "not pseudoultrametrizable\n" and (
                err.count("\n") == 1 and _witness_ok(err.rstrip("\n"), g)
            )
        return None if ok else f"wrong verdict or witness (exit {code})"
    if name == "unique":
        tm = _read_pairs(seen[("tm",)][1], g)
        wch = _read_pairs(seen[("wch",)][1], g)
        want = 0 if tm <= wch else 1
        text = "unique\n" if want == 0 else "not unique\n"
        return None if (code, out, err) == (want, text, "") else "disagrees with tm and wch"
    if code != 0 or err:
        return f"exit {code}"
    if name == "subdominant" and op[1:] == ("--format", "newick"):
        ok = out == path_newick(g.vertices, g.path_weights) + "\n"
        return None if ok else "newick differs from the path's Cartesian tree"
    if name == "subdominant":
        return _matrix_reason(ref, out, ref.subdominant())
    if name == "shortest":
        return _matrix_reason(ref, out, closure(g, ref.scale, minimax=False))
    if name == "least":
        return _least_reason(ref, out)
    if name == "structure":
        return None if out == _structure_text(g) else "wrong structure report"
    if name == "tm":
        _read_pairs(out, g)
        return None
    if name == "wch":
        return None if _read_pairs(out, g) == well_chained(g) else "wrong well-chained pairs"
    return f"no reference for op {op}"


def check_session(g: Graph, ops: list[tuple], outcomes: list[Outcome]) -> list[str | None]:
    """Verdict per op of one session on input g (None means correct)."""
    ref = _Session(g)
    seen = dict(zip(ops, outcomes))
    verdicts = []
    for op, outcome in zip(ops, outcomes):
        try:
            verdicts.append(_op_reason(ref, op, outcome, seen))
        except (ValueError, KeyError) as exc:
            verdicts.append(f"unreadable output: {exc}")
    return verdicts
