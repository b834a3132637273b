"""Running one session: its ops, in order, through ``ultragraph.cli.main``.

Each op yields an outcome ``(code, stdout, stderr)``. ``code`` is the exit
code, or the name of an exception that escaped ``cli.main``. The
``parse_matrix`` op is a library call on the JSON the session's
``subdominant`` op printed; its stdout is the parsed matrix rendered by
``seal``, which runs after the session's clock has stopped.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout


def run_session(cli, lib_io, path: str, ops) -> list[tuple]:
    """Run the ops on the input file at ``path``; modules are passed in and
    their functions looked up per call, so a tracer's wrappers are used."""
    outcomes = []
    printed_json = None
    for op in ops:
        if op[0] == "parse_matrix":
            try:
                outcomes.append((0, lib_io.parse_matrix(printed_json), ""))
            except Exception as exc:
                outcomes.append((type(exc).__name__, "", ""))
            continue
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main([op[0], "-i", path, *op[1:]])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            except Exception as exc:
                code = type(exc).__name__
        outcomes.append((code, out.getvalue(), err.getvalue()))
        if op == ("subdominant",):
            printed_json = outcomes[-1][1]
    return outcomes


def seal(outcomes: list[tuple]) -> list[tuple]:
    """Outcomes with every library result rendered as text."""
    sealed = []
    for code, out, err in outcomes:
        if not isinstance(out, str):
            rows = [[str(x) for x in row] for row in out.entries]
            out = json.dumps([list(out.vertices), rows, out.axiom_class.value])
        sealed.append((code, out, err))
    return sealed


def digest(outcome: tuple) -> str:
    code, out, err = outcome
    return hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
