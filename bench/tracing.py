"""Spans around every public function binding of the ``ultragraph`` layers.

``Tracer`` replaces, in each layer module's namespace, every binding of a
public function defined in one of the layers with a wrapper that records
a span: name ``<layer>.<function>``, start, end, parent span, session id,
the exception type if one escaped, and a work count for a few layers.
Bindings are wrapped where they are looked up, so ``subdominant_matrix``
is traced when ``cli`` calls it and when ``extension`` does. Nothing
under the library's source changes, and ``uninstall`` puts the original
objects back.
"""

from __future__ import annotations

import importlib
import types
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("cli", "io", "graph", "metrics", "extension", "structure")

# Per-element helpers run once per matrix cell or edge; a span each would
# cost more than the work it times. Their time stays in the caller's span.
SCALAR_HELPERS = {"to_weight", "format_weight", "parse_weight"}

# Builders whose result the CLI prints as a matrix.
MATRIX_BUILDERS = {
    "metrics.subdominant_matrix",
    "metrics.shortest_path_matrix",
    "extension.least_extension",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 at top level
    session: int
    raised: str | None = None
    work: int = 0


def _work(name: str, args: tuple, result) -> int:
    """Size of the work a call did, measured on its inputs or result."""
    if name == "graph.build_graph":
        return result.edge_count()
    if name == "io.parse_edge_list":
        return len(args[0].encode())
    if name == "io.emit_matrix":
        return len(args[0])
    if name in ("io.parse_matrix", "metrics.distance_matrix") or name in MATRIX_BUILDERS:
        return len(result)
    return 0


class Tracer:
    """Records spans while installed; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.session = 0
        self.matrices: list = []  # matrices the CLI printed in this session
        self._stack: list[int] = []
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            span = Span(name, 0.0, 0.0, parent, self.session)
            spans.append(span)
            stack.append(sid)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                stack.pop()
                span.raised = type(exc).__name__
                raise
            span.end = perf_counter()
            stack.pop()
            span.work = _work(name, args, result)
            if name in MATRIX_BUILDERS and parent >= 0 and spans[parent].name == "cli.main":
                self.matrices.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for layer in LAYERS:
            mod = importlib.import_module(f"ultragraph.{layer}")
            for attr, obj in list(vars(mod).items()):
                owner = getattr(obj, "__module__", "") or ""
                if (
                    isinstance(obj, types.FunctionType)
                    and not attr.startswith("_")
                    and attr not in SCALAR_HELPERS
                    and owner.removeprefix("ultragraph.") in LAYERS
                ):
                    self._saved.append((mod, attr, obj))
                    name = f"{owner.removeprefix('ultragraph.')}.{obj.__name__}"
                    setattr(mod, attr, self._wrap(obj, name))

    def uninstall(self) -> None:
        for mod, attr, obj in self._saved:
            setattr(mod, attr, obj)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.end - s.start - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
