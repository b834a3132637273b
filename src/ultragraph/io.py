"""Text formats: edge lists in, matrices and trees out.

All serialization is exact. Weights print as the shortest terminating
decimal when one exists, else as ``p/q``; parsing either form recovers
the value bit-for-bit, so emit-parse round trips are identities, and
each distinct literal or matrix value is parsed or formatted once. An
edge list is read in one pass into index form; ``graph._ranked`` orders values.
Newick output is decimal-only by convention, so non-terminating branch
lengths require an explicit approximation request and carry the exact
ratio in a comment.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

import numpy as np

from .errors import (
    DigitLimitError,
    DuplicateEdgeError,
    InexactDecimalError,
    ParseError,
    SelfLoopError,
)
from .graph import Vertex, Weight, WeightedGraph, _assemble, to_weight
from .metrics import Dendrogram, DistanceMatrix, _from_cells


# Longest literal, and largest exponent magnitude, accepted: both bound
# the digits Fraction must build, well below int's 4,300-digit str limit.
_LITERAL_LIMIT = 1000
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)")


def _literal_value(text, line: int | None = None) -> Fraction:
    """Exact value of a weight literal; refuses literals too large to convert."""
    if isinstance(text, str):
        exp = _EXPONENT.search(text)
        if len(text) > _LITERAL_LIMIT or (exp and abs(int(exp[1])) > _LITERAL_LIMIT):
            raise ParseError(
                f"weight literal longer than {_LITERAL_LIMIT} characters "
                f"or with an exponent beyond {_LITERAL_LIMIT} in size",
                line=line,
            )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad weight literal {text!r}", line=line) from None


def _check_digits(digits: int) -> int:
    """An ``approx_digits`` value: an int (not a bool) from 0 to 1,000,
    the bound on weight literals."""
    if type(digits) is not int or not 0 <= digits <= _LITERAL_LIMIT:
        raise ValueError(
            f"approx_digits must be an int from 0 to {_LITERAL_LIMIT}, got {digits!r}"
        )
    return digits


def parse_weight(text: str) -> Weight:
    """Exact nonnegative weight from a decimal or ``p/q`` literal."""
    return to_weight(_literal_value(text))


def _digits(k: int) -> str:
    """Decimal text of ``k``; an integer past the interpreter's
    integer-to-text limit (4,300 digits by default) is a DigitLimitError."""
    try:
        return str(k)
    except ValueError:
        raise DigitLimitError(
            f"a value with about {int(k.bit_length() * 0.30103)} digits is "
            "too long to convert to text"
        ) from None


def _terminating_decimal(w: Fraction) -> str | None:
    """Shortest decimal spelling of ``w``, or None when it does not terminate."""
    den = w.denominator
    twos = fives = 0
    rest = den
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return None
    k = max(twos, fives)
    if k == 0:
        return _digits(w.numerator)
    scaled = w.numerator * 10**k // den
    sign = "-" if scaled < 0 else ""
    digits = _digits(abs(scaled)).rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def format_weight(w) -> str:
    """Shortest terminating decimal if one exists, else ``p/q``."""
    w = Fraction(w)
    return _terminating_decimal(w) or f"{_digits(w.numerator)}/{_digits(w.denominator)}"


def parse_edge_list(text: str) -> WeightedGraph:
    """Graph from `u v weight` lines.

    Blank lines and `#` comments are skipped; `vertex <name>` declares a
    vertex without edges (re-declaring is harmless). Vertex order is
    first-appearance order. The first negative weight in line order is
    reported only once every line has parsed.
    """
    index: dict[Vertex, int] = {}
    weights: dict[tuple[int, int], Weight] = {}
    literals: dict[str, Fraction] = {}

    for lineno, tokens in enumerate(map(str.split, text.splitlines()), start=1):
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) == 2 and tokens[0] == "vertex":
            index.setdefault(tokens[1], len(index))
            continue
        if len(tokens) != 3:
            raise ParseError("expected 'u v weight' or 'vertex name'", line=lineno)
        u, v, wtext = tokens
        i = index.setdefault(u, len(index))
        j = index.setdefault(v, len(index))
        if i == j:
            raise SelfLoopError(f"line {lineno}: edge {{{u!r},{v!r}}} is a self-loop")
        key = (i, j) if i < j else (j, i)
        if key in weights:
            raise DuplicateEdgeError(f"line {lineno}: edge {{{u!r},{v!r}}} given twice")
        w = literals.get(wtext)
        if w is None:
            w = literals[wtext] = _literal_value(wtext, lineno)
        weights[key] = w

    if not index:
        raise ParseError("no vertices declared")
    for w in literals.values():  # ordered by first use, as the edges by line
        if w.numerator < 0:
            to_weight(w)  # NegativeWeightError naming the first negative edge's weight
    return _assemble(tuple(index), index, weights)


def emit_edge_list(g: WeightedGraph) -> str:
    """Edge-list text that parses back to an identical graph.

    Every vertex is declared up front so the parse recovers the exact
    vertex order even when it differs from edge appearance order. A name
    the parser would split, or read as a comment, is a ParseError.
    """
    for name in g.vertices:
        if not name or name.startswith("#") or any(c.isspace() for c in name):
            raise ParseError(f"vertex name {name!r} cannot appear in an edge list")
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"{u} {v} {format_weight(w)}" for u, v, w in g.weighted_edges()]
    return "\n".join(lines)


def _cell_texts(m: DistanceMatrix) -> list[list[str]]:
    """Text of every entry, formatting each distinct value once."""
    try:
        texts = np.array([format_weight(w) for w in m._values], dtype=object)
    except DigitLimitError:  # name the first such cell: values by first appearance
        [format_weight(m._values[k]) for k in dict.fromkeys(m.rank_array().ravel().tolist())]
        raise
    return texts[m.rank_array()].tolist()


def emit_matrix(m: DistanceMatrix, format: str = "json") -> str:
    """Serialize a matrix as json or csv; round trips are bit-exact."""
    if format == "json":
        doc = {
            "vertices": list(m.vertices),
            "matrix": _cell_texts(m),
            "axiom_class": m.axiom_class.value,
        }
        return json.dumps(doc, separators=(",", ":"))
    if format == "csv":
        for name in m.vertices:
            # parse_matrix splits rows at every line break str.splitlines knows
            if "," in name or len((name + ".").splitlines()) > 1:
                raise ParseError(f"vertex name {name!r} cannot appear in csv")
        lines = ["," + ",".join(m.vertices)]
        for name, row in zip(m.vertices, _cell_texts(m)):
            lines.append(name + "," + ",".join(row))
        return "\n".join(lines)
    raise ParseError(f"unknown matrix format {format!r}")


def _json_weight(cell) -> Weight:
    """Weight of a JSON matrix cell: a literal string or a JSON integer.

    Other numbers are refused for the reason ``to_weight`` refuses
    floats, and booleans, arrays, objects and null are no weights.
    """
    if isinstance(cell, bool) or not isinstance(cell, (str, int)):
        raise ParseError(
            f"bad matrix json: cell {json.dumps(cell)[:40]} is neither a "
            "weight string nor an integer"
        )
    return parse_weight(str(cell))


def parse_matrix(text: str, format: str = "json") -> DistanceMatrix:
    """Inverse of emit_matrix; the axiom class is re-verified, not trusted.
    The first bad cell in row-major order is the one reported."""
    if format == "json":
        try:
            doc = json.loads(text)
            vertices = doc["vertices"]
            rows = doc["matrix"]
        except (ValueError, RecursionError, KeyError, TypeError) as exc:
            raise ParseError(f"bad matrix json: {exc}") from None
        if not (
            isinstance(vertices, list)
            and isinstance(rows, list)
            and all(isinstance(v, str) for v in vertices)
            and all(isinstance(r, list) for r in rows)
        ):
            raise ParseError("bad matrix json: wrong field types")
        return _from_cells(vertices, rows, _json_weight)
    if format == "csv":
        lines = [ln for ln in text.splitlines() if ln]
        if not lines or not lines[0].startswith(","):
            raise ParseError("bad matrix csv: missing header")
        vertices = lines[0].split(",")[1:]
        if len(lines) != len(vertices) + 1:
            raise ParseError("bad matrix csv: row count mismatch")
        rows = []
        for name, ln in zip(vertices, lines[1:]):
            cells = ln.split(",")
            if len(cells) != len(vertices) + 1 or cells[0] != name:
                # a bad cell in an earlier row comes first
                [parse_weight(x) for x in dict.fromkeys(x for r in rows for x in r)]
                raise ParseError(f"bad matrix csv row for {name!r}")
            rows.append(cells[1:])
        return _from_cells(vertices, rows, parse_weight)
    raise ParseError(f"unknown matrix format {format!r}")


def _newick_label(label: str) -> str:
    """Label as Newick requires: single-quoted, quotes doubled, when it
    holds whitespace or a Newick metacharacter; otherwise unchanged."""
    if any(c.isspace() or c in "()[]':;," for c in label):
        return "'" + label.replace("'", "''") + "'"
    return label


def emit_newick(d: Dendrogram, approx_digits: int | None = None) -> str:
    """Newick form of a dendrogram; leaf-to-leaf path length equals the
    ultrametric distance.

    Labels holding whitespace or one of ``()[]':;,`` are single-quoted,
    with embedded quotes doubled. Branch lengths must terminate as
    decimals; otherwise pass ``approx_digits`` to emit a rounded decimal
    annotated with the exact ratio in a bracket comment; ``approx_digits``
    must be an int from 0 to 1,000 (ValueError otherwise).
    """
    if approx_digits is not None:
        _check_digits(approx_digits)

    def fmt(length: Fraction) -> str:
        exact = _terminating_decimal(length)
        if exact is not None:
            return exact
        if approx_digits is None:
            raise InexactDecimalError(
                f"branch length {length} has no terminating decimal; "
                "pass approx_digits to allow rounding"
            )
        scaled = round(length * 10**approx_digits)
        approx = format_weight(Fraction(scaled, 10**approx_digits))
        return f"{approx}[{length.numerator}/{length.denominator}]"

    # Least leaf of every node, children before parents.
    least: dict[int, Vertex] = {}
    for node in reversed(list(d._preorder())):
        below = (least[id(ch)] for ch in node.children)
        least[id(node)] = min(below, default=node.label)

    # Depth-first without recursion. The stack holds nodes, literal text
    # and branch lengths; a length is formatted right after its subtree.
    out: list[str] = []
    stack: list = [";", d]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif not isinstance(item, Dendrogram):
            out.append(":" + fmt(item))
        elif item.is_leaf():
            out.append(_newick_label(str(item.label)))
        else:
            kids = sorted(item.children, key=lambda ch: least[id(ch)])
            stack.append(")")
            for k in reversed(range(len(kids))):
                stack += [item.height - kids[k].height, kids[k], "," if k else "("]
    return "".join(out)
