"""Calibration kernel: a fixed piece of work that tracks the host's speed.

On a shared virtual machine the same code runs faster or slower by up to
1.6x from one minute to the next, as other tenants load the host, and CPU
time follows that drift as much as wall time does. ``run.py`` therefore
runs this kernel right after every timed session and reports session
times scaled by ``REFERENCE_S`` over the run's mean kernel time: seconds
on a host that runs the kernel in ``REFERENCE_S``.

The kernel does the kinds of work a session does: it parses edge-list text
into Fractions, runs Dijkstra with heapq over Fractions, a minimax closure
over Fractions in Python lists, a JSON round trip and numpy outer-max
passes. Contention then slows it about as much as it slows a session. Its
input is fixed and it uses no ``ultragraph`` code, so neither the seed nor
a change to the library changes its cost.
"""

from __future__ import annotations

import heapq
import json
import random
from fractions import Fraction
from time import thread_time

import numpy as np

# CPU time of one ``kernel()`` call on an unloaded 2-vCPU virtual machine
# (Intel Xeon, Python 3.11), so reported times are close to that host's.
REFERENCE_S = 0.030

_N = 40
_SOURCES = 8
_CLOSURE_N = 26


def _text() -> str:
    rng = random.Random(0)
    lines = [f"vertex v{i}" for i in range(_N)]
    pairs = [(i, i + 1) for i in range(_N - 1)]
    pairs += [(i, j) for i in range(_N) for j in range(i + 2, _N) if rng.random() < 4 / _N]
    lines += [f"v{i} v{j} {rng.randint(1, 40)}/4" for i, j in pairs]
    return "\n".join(lines) + "\n"


_TEXT = _text()
_rng = random.Random(1)
_CLOSURE = [
    [Fraction(_rng.randint(1, 40), 4) if i != j else Fraction(0) for j in range(_CLOSURE_N)]
    for i in range(_CLOSURE_N)
]


def kernel() -> int:
    """The fixed work; returns a checksum so none of it is skipped."""
    adj: dict[str, list[tuple[str, Fraction]]] = {}
    for line in _TEXT.splitlines():
        parts = line.split()
        if parts[0] == "vertex":
            adj[parts[1]] = []
            continue
        w = Fraction(parts[2])
        adj[parts[0]].append((parts[1], w))
        adj[parts[1]].append((parts[0], w))
    names = list(adj)
    rows = []
    for s in names[:_SOURCES]:
        dist = {s: Fraction(0)}
        heap = [(Fraction(0), s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if v not in dist or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        rows.append([str(dist[v]) for v in names])
    rows = json.loads(json.dumps(rows))
    ranks = np.array([[len(x) * 31 % 97 for x in row[:_SOURCES]] for row in rows], dtype=np.int32)
    bound = np.empty_like(ranks)
    bad = 0
    for z in range(_SOURCES):
        np.maximum.outer(ranks[:, z], ranks[z, :], out=bound)
        bad += int((ranks > bound).sum())
    d = [row[:] for row in _CLOSURE]
    for k in range(_CLOSURE_N):
        dk = d[k]
        for i in range(_CLOSURE_N):
            dik, di = d[i][k], d[i]
            for j in range(_CLOSURE_N):
                v = dik if dik > dk[j] else dk[j]
                if v < di[j]:
                    di[j] = v
    return bad + len(rows) + sum(x.numerator for x in d[0])


def timed() -> float:
    """CPU seconds of one kernel run."""
    t0 = thread_time()
    kernel()
    return thread_time() - t0
