"""Text formats: edge lists in, matrices and trees out.

All serialization is exact. Weights print as the shortest terminating
decimal when one exists, else as ``p/q``; parsing either form recovers
the value bit-for-bit, so emit-parse round trips are identities, and
each distinct literal or matrix value is parsed or formatted once. Those
plain forms are read with one ASCII regex and ``Fraction(int, int)``,
every other literal by ``Fraction``. A matrix is written a row at a
time: each distinct value's text, JSON-encoded once, picked by rank and
joined. An edge list is read in one pass over its lines that keeps
every name and literal in flat lists, so no row's tokens outlive its
line, and stops at the first malformed row; then names and literals
are numbered by first appearance, in one pass each, self-loops and
duplicates found on index arrays, and each distinct literal read once.
Each check yields the first edge where it fails, and the earliest of
those, or else the malformed row, names the error, its line counted
only then. ``graph._ranked`` orders values.
Newick output is decimal-only by convention, so non-terminating branch
lengths require an explicit approximation request and carry the exact
ratio in a comment.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from fractions import Fraction
from itertools import count

import numpy as np

from .errors import (
    DigitLimitError,
    DuplicateEdgeError,
    InexactDecimalError,
    ParseError,
    SelfLoopError,
)
from .graph import (
    _LITERAL_LIMIT,
    _TOO_LARGE,
    Vertex,
    Weight,
    WeightedGraph,
    _assemble,
    _rescale,
    _too_large,
    to_weight,
)
from .metrics import Dendrogram, DistanceMatrix, _from_cells


# The forms format_weight writes, read without Fraction's grammar: an
# integer, a ratio or a decimal, in ASCII digits.
_PLAIN = re.compile(r"([0-9]+)(?:/([0-9]+)|\.([0-9]+))?")
# Whitespace or a Newick metacharacter: a label holding one is quoted. The
# regex is compiled once, on first use, by the ``re`` module's cache.
_QUOTED = r"[\s()\[\]':;,]"


def _literal_value(text: str, line: int | None = None) -> Fraction:
    """Exact value of a weight literal; refuses literals too large to convert.
    ``Fraction`` reads every literal but the plain forms of ``_PLAIN``."""
    if _too_large(text):
        raise ParseError(_TOO_LARGE, line=line)
    plain = _PLAIN.fullmatch(text)
    try:
        if plain is None:
            return Fraction(text)
        whole, den, frac = plain.groups()
        if frac:
            return Fraction(int(whole + frac), 10 ** len(frac))
        return Fraction(int(whole), int(den or 1))
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
    """Exact nonnegative weight from a decimal or ``p/q`` literal; any other
    argument goes to ``to_weight``, which refuses floats."""
    if not isinstance(text, str):
        return to_weight(text)
    w = _literal_value(text)
    return w if w.numerator >= 0 else to_weight(w)  # NegativeWeightError


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


def _terminating_decimal(num: int, den: int) -> str | None:
    """Shortest decimal spelling of ``num / den``, ``den`` positive and the two
    not necessarily coprime, or None when it does not terminate."""
    twos = fives = 0
    rest = den
    while rest % 2 == 0:
        rest, twos = rest // 2, twos + 1
    while rest % 5 == 0:
        rest, fives = rest // 5, fives + 1
    if num % rest:
        return None
    num //= rest
    while twos and num % 2 == 0:  # cancel the factors num and den share
        num, twos = num // 2, twos - 1
    while fives and num % 5 == 0:
        num, fives = num // 5, fives - 1
    k = max(twos, fives)
    if k == 0:
        return _digits(num)
    scaled = num * 2 ** (k - twos) * 5 ** (k - fives)
    sign = "-" if scaled < 0 else ""
    digits = _digits(abs(scaled)).rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


def format_weight(w) -> str:
    """Shortest terminating decimal if one exists, else ``p/q``; floats are refused."""
    if isinstance(w, float):
        to_weight(w)  # TypeError
    w = Fraction(w)
    num, den = w.numerator, w.denominator
    return _terminating_decimal(num, den) or f"{_digits(num)}/{_digits(den)}"


def parse_edge_list(text: str) -> WeightedGraph:
    """Graph from `u v weight` lines.

    Blank lines and `#` comments are skipped; `vertex <name>` declares a
    vertex without edges (re-declaring is harmless). Vertex order is
    first-appearance order. One pass over the lines keeps each name and
    literal, and no row from the first malformed one on; every check then
    runs on all edges at once and yields the first edge where it fails.
    The earliest such edge, or else the malformed row, names the error,
    and only then are lines counted. The first negative weight in line
    order is reported only once every line has parsed.
    """
    # Every name in order of appearance, where each declared one stands,
    # and each edge's literal: no row's token list outlives its line.
    names, declared, literals = [], [], []
    malformed = False
    for t in map(str.split, text.splitlines()):
        if len(t) == 3 and t[0][0] != "#":
            names += t[0], t[1]
            literals.append(t[2])
        elif len(t) == 2 and t[0] == "vertex":
            declared.append(len(names))
            names.append(t[1])
        elif t and t[0][0] != "#":
            malformed = True
            break  # no row from the first malformed one on is read
    index = defaultdict(count().__next__)  # a new name takes the next number
    ends = np.fromiter(map(index.__getitem__, names), np.intp, len(names))
    index.default_factory = None  # numbered: an unknown name is a KeyError again
    u, v = np.delete(ends, declared).reshape(-1, 2).T
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    key = lo * len(index) + hi
    order = np.argsort(key, kind="stable")  # stable, as in _assemble
    key = key[order]
    code = defaultdict(count().__next__)  # each literal once, by first use
    codes = np.fromiter(map(code.__getitem__, literals), np.intp, len(literals))
    values, bad = [], []
    try:
        for x in code:
            values.append(_literal_value(x))
    except ParseError:
        bad.append(literals.index(x))
    # The edges where each check fails, by kind: the self-loops, the repeats
    # of an earlier edge (equal keys sort by edge), the first bad literal's first edge.
    failed = (np.flatnonzero(lo == hi), order[1:][key[1:] == key[:-1]], bad)
    if malformed or any(map(len, failed)):
        # A malformed row follows every edge read, so it ranks as one edge more;
        # the rows neither comments nor declarations are the edges, then it.
        row, kind = min([(len(literals), 3)] + [(min(f), k) for k, f in enumerate(failed) if len(f)])
        lines = enumerate(map(str.split, text.splitlines()), start=1)
        rows = [(n, t) for n, t in lines if t and t[0][0] != "#" and (len(t), t[0]) != (2, "vertex")]
        line, tokens = rows[row]
        if kind == 3:
            raise ParseError("expected 'u v weight' or 'vertex name'", line=line)
        a, b, w = tokens
        if kind == 0:
            raise SelfLoopError(f"line {line}: edge {{{a!r},{b!r}}} is a self-loop")
        if kind == 1:
            raise DuplicateEdgeError(f"line {line}: edge {{{a!r},{b!r}}} given twice")
        _literal_value(w, line)  # the same fault again, now naming its line
    if not index:
        raise ParseError("no vertices declared")
    for w in values:  # ordered by first use, as the edges by line
        if w.numerator < 0:
            to_weight(w)  # NegativeWeightError naming the first negative edge's weight
    del names, literals, code  # no token outlives the read but the names
    return _assemble(tuple(index), index, lo, hi, values, codes)


def emit_edge_list(g: WeightedGraph) -> str:
    """Edge-list text that parses back to an identical graph.

    Every vertex is declared up front so the parse recovers the exact
    vertex order even when it differs from edge appearance order. A name
    the parser would split, or read as a comment, is a ParseError.
    """
    for name in g.vertices:
        if not name or name.startswith("#") or any(c.isspace() for c in name):
            raise ParseError(f"vertex name {name!r} cannot appear in an edge list")
    names = g.vertices
    i, j, level = g._edge_columns.tolist()
    # Each level once, in order of first use: a DigitLimitError names the first edge's.
    texts = {k: format_weight(g._levels[k]) for k in dict.fromkeys(level)}
    lines = [f"vertex {v}" for v in names]
    lines += [f"{names[a]} {names[b]} {texts[k]}" for a, b, k in zip(i, j, level)]
    return "\n".join(lines)


def _rows(m: DistanceMatrix, quote) -> list[str]:
    """Each row's cells joined by commas: each distinct value is formatted,
    and its text passed through ``quote``, once."""
    try:
        texts = [quote(format_weight(w)) for w in m._values]
    except DigitLimitError:  # name the first such cell: values by first appearance
        [format_weight(m._values[k]) for k in dict.fromkeys(m.rank_array().ravel().tolist())]
        raise
    return list(map(",".join, np.array(texts, dtype=object)[m.rank_array()].tolist()))


def emit_matrix(m: DistanceMatrix, format: str = "json") -> str:
    """Serialize a matrix as json or csv; round trips are bit-exact."""
    if format == "json":  # json.dumps(doc, separators=(",", ":")), a row at a time
        rows = ",".join(map("[{}]".format, _rows(m, json.dumps)))
        vertices = json.dumps(list(m.vertices), separators=(",", ":"))
        axiom_class = json.dumps(m.axiom_class.value)
        return f'{{"vertices":{vertices},"matrix":[{rows}],"axiom_class":{axiom_class}}}'
    if format == "csv":
        for name in m.vertices:
            # parse_matrix splits rows at every line break str.splitlines knows
            if "," in name or len((name + ".").splitlines()) > 1:
                raise ParseError(f"vertex name {name!r} cannot appear in csv")
        lines = ["," + ",".join(m.vertices)]
        lines += map("{},{}".format, m.vertices, _rows(m, str))
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
    if re.search(_QUOTED, label):
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
    (table, rank, kids, least, doubled), root = d._lists()
    # Twice each height, exact, as integer stand-ins: a branch is half the
    # difference of two, formatted once per pair of table entries.
    stand, scale = _rescale(table if doubled else [2 * to_weight(h) for h in table])
    width = len(stand)
    texts: dict[int, str] = {}

    def fmt(pair: int) -> str:
        diff = stand[pair // width] - stand[pair % width]
        num, den = (diff, 2 * scale) if scale else (diff.numerator, 2 * diff.denominator)
        exact = _terminating_decimal(num, den)
        if exact is not None:
            return ":" + exact
        length = Fraction(num, den)
        if approx_digits is None:
            raise InexactDecimalError(
                f"branch length {length} has no terminating decimal; "
                "pass approx_digits to allow rounding"
            )
        scaled = round(length * 10**approx_digits)
        approx = format_weight(Fraction(scaled, 10**approx_digits))
        return f":{approx}[{length.numerator}/{length.denominator}]"

    # Depth-first without recursion. The stack holds literal text, nodes, and
    # branches as ~(parent entry * width + child entry), each popped right
    # after its subtree, so the first bad length in output order errs.
    out: list[str] = []
    stack: list = [";", root]
    while stack:
        k = stack.pop()
        if k.__class__ is str:
            out.append(k)
        elif k < 0:
            out.append(texts.get(~k) or texts.setdefault(~k, fmt(~k)))
        elif kids[k]:
            base = rank[k] * width
            stack.append(")")
            for c in reversed(kids[k]):
                stack += ~(base + rank[c]), c, ","
            stack[-1] = "("  # before the first child, not a comma
        else:
            out.append(_newick_label(str(least[k])))
    return "".join(out)
