"""Command-line surface.

Exit codes are a stable scripting contract: 0 for success or an
affirmative verdict, 1 for a negative verdict, 2 for usage, parse or
precondition errors. Every error prints exactly one machine-readable
line on stderr of the form ``code: detail``.

Each command is declared once, in ``_COMMANDS``: its help text, its own
arguments and its handler, from which ``_build_parser`` builds the
subparser. A handler calls library functions by their module-global name
at run time and the table holds no library function, so rebinding a name
in this module (a test's patch, the benchmark's tracer) reaches every
command that calls it.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .errors import MissingConstantError, ParseError, UltragraphError
from .extension import (
    augment,
    is_pseudoultrametrizable,
    is_unique_extension,
    least_extension,
    twice_max_pairs,
    well_chained_pairs,
)
from .graph import WeightedGraph, connected_components
from .io import (
    _LITERAL_LIMIT,
    _check_digits,
    emit_edge_list,
    emit_matrix,
    emit_newick,
    parse_edge_list,
    parse_weight,
)
from .metrics import (
    _check_tolerance,
    betweenness_exponent,
    distance_matrix,
    shortest_path_matrix,
    subdominant_dendrogram,
    subdominant_matrix,
)
from .oracle import oracle_cycle_condition, oracle_subdominant, oracle_twice_max
from .structure import _is_star, is_forest, multipartite_parts


# Every line break str.splitlines knows, spelled as its escape; argparse
# quotes some arguments with repr but joins unrecognized ones verbatim.
_ESCAPED_BREAKS = str.maketrans(
    {c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
)


class _Parser(argparse.ArgumentParser):
    """argparse with the one-line stderr contract for usage errors."""

    def error(self, message):
        self.exit(2, f"usage-error: {message.translate(_ESCAPED_BREAKS)}\n")


def _digit_count(text: str) -> int:
    """``--approx-digits``: a digit count ``emit_newick`` takes."""
    try:
        return _check_digits(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 0 to {_LITERAL_LIMIT} digits, got {text!r}"
        ) from None


def _tolerance(text: str) -> float:
    """``--tol``: a tolerance ``betweenness_exponent`` takes."""
    try:
        return _check_tolerance(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {text!r}"
        ) from None


def _read_graph(args) -> WeightedGraph:
    try:
        if args.input is None or args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or a NUL in the path
        raise ParseError(f"cannot read input: {exc}") from None
    return parse_edge_list(text)


def _verdict(holds: bool, word: str) -> int:
    print(word if holds else f"not {word}")
    return 0 if holds else 1


def _print_pairs(g: WeightedGraph, pairs) -> int:
    idx = g.vertex_index
    for u, v in sorted(pairs, key=lambda p: (idx(p[0]), idx(p[1]))):
        print(u, v)
    return 0


def _check(g: WeightedGraph, args) -> int:
    report = is_pseudoultrametrizable(g)
    code = _verdict(report.pseudoultrametrizable, "pseudoultrametrizable")
    if code:
        print(f"witness-cycle: {','.join(report.witness.vertices)}", file=sys.stderr)
    return code


def _subdominant(g: WeightedGraph, args) -> int:
    if args.format == "newick":
        print(emit_newick(subdominant_dendrogram(g), args.approx_digits))
    else:
        print(emit_matrix(subdominant_matrix(g), args.format))
    return 0


def _shortest(g: WeightedGraph, args) -> int:
    print(emit_matrix(shortest_path_matrix(g), args.format))
    return 0


def _least(g: WeightedGraph, args) -> int:
    print(emit_matrix(least_extension(g), args.format))
    return 0


def _tm(g: WeightedGraph, args) -> int:
    return _print_pairs(g, twice_max_pairs(g))


def _wch(g: WeightedGraph, args) -> int:
    return _print_pairs(g, well_chained_pairs(g))


def _unique(g: WeightedGraph, args) -> int:
    return _verdict(is_unique_extension(g), "unique")


def _structure(g: WeightedGraph, args) -> int:
    parts = multipartite_parts(g)
    forest = is_forest(g)  # a forest with n - 1 edges is connected
    print(f"forest: {'yes' if forest else 'no'}")
    print(f"tree: {'yes' if forest and g.edge_count() == len(g.vertices) - 1 else 'no'}")
    if parts is None:
        print("complete-multipartite: no")
    else:
        blocks = " | ".join(" ".join(b) for b in parts.blocks)
        print(f"complete-multipartite: k={len(parts)}; parts: {blocks}")
    print(f"star: {'yes' if _is_star(parts) else 'no'}")
    return 0


def _exponent(g: WeightedGraph, args) -> int:
    alpha = betweenness_exponent(shortest_path_matrix(g), tol=args.tol)
    print("infinite" if alpha == math.inf else repr(alpha))
    return 0


def _augment(g: WeightedGraph, args) -> int:
    comps = connected_components(g)
    consts: dict[int, object] = {}
    for item in args.const:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ParseError(f"bad --const {item!r}; expected NAME=VALUE")
        index = comps.block_index(name)
        if index in consts:
            raise MissingConstantError(f"component {index} assigned twice")
        consts[index] = parse_weight(value)
    print(emit_edge_list(augment(g, args.hub, consts)))
    return 0


def _oracle(g: WeightedGraph, args) -> int:
    if args.which == "check":
        return _verdict(oracle_cycle_condition(g), "pseudoultrametrizable")
    if args.which == "tm":
        return _print_pairs(g, oracle_twice_max(g))
    rows = [[oracle_subdominant(g, u, v) for v in g.vertices] for u in g.vertices]
    print(emit_matrix(distance_matrix(g.vertices, rows), args.format))
    return 0


_FORMAT = ("--format", dict(choices=["json", "csv"], default="json"))

# name -> (help, its own arguments as (flag, add_argument keywords), handler);
# a handler takes the graph read and the parsed arguments, returns the exit code.
_COMMANDS = {
    "check": (
        "decide whether the weighting extends to a pseudoultrametric "
        "(every cycle must carry its maximal weight at least twice); "
        "exit 1 and a stderr witness cycle when it does not",
        [],
        _check,
    ),
    "subdominant": (
        "greatest pseudoultrametric lying edgewise below the weighting "
        "(least path bottleneck per pair)",
        [
            ("--format", dict(choices=["json", "csv", "newick"], default="json")),
            ("--approx-digits", dict(
                type=_digit_count,
                default=None,
                help="allow rounded newick branch lengths with this many digits",
            )),
        ],
        _subdominant,
    ),
    "shortest": (
        "greatest pseudometric below the weighting (min-sum path distance)",
        [_FORMAT],
        _shortest,
    ),
    "least": (
        "least pseudoultrametric extension; exists exactly on complete "
        "multipartite graphs with two or more parts",
        [_FORMAT],
        _least,
    ),
    "tm": (
        "nonadjacent pairs whose every connecting path carries its "
        "maximal weight at least twice",
        [],
        _tm,
    ),
    "wch": ("nonadjacent pairs joined through zero-weight edges", [], _wch),
    "unique": (
        "decide whether exactly one pseudoultrametric extends the "
        "weighting; exit 1 when several do",
        [],
        _unique,
    ),
    "structure": (
        "report forest / tree / complete-multipartite / star structure",
        [],
        _structure,
    ),
    "exponent": (
        "supremum power to which the shortest-path matrix stays a "
        "metric; 'infinite' exactly when it is a pseudoultrametric",
        [("--tol", dict(type=_tolerance, default=1e-9))],
        _exponent,
    ),
    "augment": (
        "bridge every component to a hub component's first vertex "
        "with the given constants; cycles are unchanged",
        [
            ("--hub", dict(type=int, default=0, help="hub component index")),
            ("--const", dict(
                action="append",
                default=[],
                metavar="NAME=VALUE",
                help="bridge weight for the component containing vertex NAME",
            )),
        ],
        _augment,
    ),
    "oracle": (
        "run a brute-force reference computation (size-capped)",
        [("which", dict(choices=["check", "subdominant", "tm"])), _FORMAT],
        _oracle,
    ),
}


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ultragraph",
        description=(
            "Exact toolkit for edge weightings and their pseudoultrametric "
            "extensions on finite graphs."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-i",
        "--input",
        default=None,
        help="edge-list file ('-' or omitted reads stdin)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, arguments, run) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=text)
        for arg, options in arguments:
            p.add_argument(arg, **options)
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(_read_graph(args), args)
    except UltragraphError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
