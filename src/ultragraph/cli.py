"""Command-line surface.

Exit codes are a stable scripting contract: 0 for success or an
affirmative verdict, 1 for a negative verdict, 2 for usage, parse or
precondition errors. Every error prints exactly one machine-readable
line on stderr of the form ``code: detail``.
"""

from __future__ import annotations

import argparse
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
from .structure import is_forest, is_star, is_tree, multipartite_parts


class _Parser(argparse.ArgumentParser):
    """argparse with the one-line stderr contract for usage errors."""

    def error(self, message):
        self.exit(2, f"usage-error: {message}\n")


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

    sub.add_parser(
        "check",
        parents=[common],
        help=(
            "decide whether the weighting extends to a pseudoultrametric "
            "(every cycle must carry its maximal weight at least twice); "
            "exit 1 and a stderr witness cycle when it does not"
        ),
    )

    p = sub.add_parser(
        "subdominant",
        parents=[common],
        help=(
            "greatest pseudoultrametric lying edgewise below the weighting "
            "(least path bottleneck per pair)"
        ),
    )
    p.add_argument("--format", choices=["json", "csv", "newick"], default="json")
    p.add_argument(
        "--approx-digits",
        type=_digit_count,
        default=None,
        help="allow rounded newick branch lengths with this many digits",
    )

    p = sub.add_parser(
        "shortest",
        parents=[common],
        help="greatest pseudometric below the weighting (min-sum path distance)",
    )
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser(
        "least",
        parents=[common],
        help=(
            "least pseudoultrametric extension; exists exactly on complete "
            "multipartite graphs with two or more parts"
        ),
    )
    p.add_argument("--format", choices=["json", "csv"], default="json")

    sub.add_parser(
        "tm",
        parents=[common],
        help=(
            "nonadjacent pairs whose every connecting path carries its "
            "maximal weight at least twice"
        ),
    )
    sub.add_parser(
        "wch",
        parents=[common],
        help="nonadjacent pairs joined through zero-weight edges",
    )
    sub.add_parser(
        "unique",
        parents=[common],
        help=(
            "decide whether exactly one pseudoultrametric extends the "
            "weighting; exit 1 when several do"
        ),
    )
    sub.add_parser(
        "structure",
        parents=[common],
        help="report forest / tree / complete-multipartite / star structure",
    )

    p = sub.add_parser(
        "exponent",
        parents=[common],
        help=(
            "supremum power to which the shortest-path matrix stays a "
            "metric; 'infinite' exactly when it is a pseudoultrametric"
        ),
    )
    p.add_argument("--tol", type=_tolerance, default=1e-9)

    p = sub.add_parser(
        "augment",
        parents=[common],
        help=(
            "bridge every component to a hub component's first vertex "
            "with the given constants; cycles are unchanged"
        ),
    )
    p.add_argument("--hub", type=int, default=0, help="hub component index")
    p.add_argument(
        "--const",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="bridge weight for the component containing vertex NAME",
    )

    p = sub.add_parser(
        "oracle",
        parents=[common],
        help="run a brute-force reference computation (size-capped)",
    )
    p.add_argument("which", choices=["check", "subdominant", "tm"])
    p.add_argument("--format", choices=["json", "csv"], default="json")

    return parser


def _read_graph(args) -> WeightedGraph:
    try:
        if args.input is None or args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input: {exc}") from None
    return parse_edge_list(text)


def _print_pairs(g: WeightedGraph, pairs) -> None:
    idx = g.vertex_index
    for u, v in sorted(pairs, key=lambda p: (idx(p[0]), idx(p[1]))):
        print(u, v)


def _run(args) -> int:
    g = _read_graph(args)

    if args.command == "check":
        report = is_pseudoultrametrizable(g)
        if report.pseudoultrametrizable:
            print("pseudoultrametrizable")
            return 0
        print("not pseudoultrametrizable")
        witness = ",".join(report.witness.vertices)
        print(f"witness-cycle: {witness}", file=sys.stderr)
        return 1

    if args.command == "subdominant":
        if args.format == "newick":
            print(emit_newick(subdominant_dendrogram(g), args.approx_digits))
        else:
            print(emit_matrix(subdominant_matrix(g), args.format))
        return 0

    if args.command == "shortest":
        print(emit_matrix(shortest_path_matrix(g), args.format))
        return 0

    if args.command == "least":
        print(emit_matrix(least_extension(g), args.format))
        return 0

    if args.command == "tm":
        _print_pairs(g, twice_max_pairs(g))
        return 0

    if args.command == "wch":
        _print_pairs(g, well_chained_pairs(g))
        return 0

    if args.command == "unique":
        if is_unique_extension(g):
            print("unique")
            return 0
        print("not unique")
        return 1

    if args.command == "structure":
        parts = multipartite_parts(g)
        print(f"forest: {'yes' if is_forest(g) else 'no'}")
        print(f"tree: {'yes' if is_tree(g) else 'no'}")
        if parts is None:
            print("complete-multipartite: no")
        else:
            blocks = " | ".join(" ".join(b) for b in parts.blocks)
            print(f"complete-multipartite: k={len(parts)}; parts: {blocks}")
        print(f"star: {'yes' if is_star(g) else 'no'}")
        return 0

    if args.command == "exponent":
        alpha = betweenness_exponent(shortest_path_matrix(g), tol=args.tol)
        print("infinite" if alpha == math.inf else repr(alpha))
        return 0

    if args.command == "augment":
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

    if args.command == "oracle":
        if args.which == "check":
            if oracle_cycle_condition(g):
                print("pseudoultrametrizable")
                return 0
            print("not pseudoultrametrizable")
            return 1
        if args.which == "tm":
            _print_pairs(g, oracle_twice_max(g))
            return 0
        rows = [
            [oracle_subdominant(g, u, v) for v in g.vertices] for u in g.vertices
        ]
        print(emit_matrix(distance_matrix(g.vertices, rows), args.format))
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except UltragraphError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
