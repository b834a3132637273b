"""Exception hierarchy.

Every error carries a stable ``code`` token so the command-line layer can
print one machine-readable line per failure.
"""

from __future__ import annotations


class UltragraphError(Exception):
    """Base class for all toolkit errors."""

    code = "error"


class SelfLoopError(UltragraphError):
    code = "self-loop"


class DuplicateEdgeError(UltragraphError):
    code = "duplicate-edge"


class UnknownVertexError(UltragraphError):
    code = "unknown-vertex"


class NegativeWeightError(UltragraphError):
    code = "negative-weight"


class DisconnectedError(UltragraphError):
    """Raised when an operation needs one component but got several.

    Carries two vertices from distinct components.
    """

    code = "disconnected"

    def __init__(self, u, v):
        self.u = u
        self.v = v
        super().__init__(f"vertices {u!r} and {v!r} lie in different components")


class VertexMismatchError(UltragraphError):
    code = "vertex-mismatch"


class NotPseudometricError(UltragraphError):
    code = "not-pseudometric"


class NotPseudoultrametricError(UltragraphError):
    code = "not-pseudoultrametric"


class NotUltrametricError(UltragraphError):
    code = "not-ultrametric"


class NotExtendableError(UltragraphError):
    """The weighting admits no pseudoultrametric extension.

    ``witness`` is a cycle whose maximal weight sits on a single edge.
    """

    code = "not-extendable"

    def __init__(self, witness):
        self.witness = witness
        verts = " ".join(witness.vertices)
        super().__init__(f"cycle with a unique maximal-weight edge: {verts}")


class NotCompleteMultipartiteError(UltragraphError):
    """Carries an induced edge-plus-nonneighbor witness triple (u, v, p).

    ``witness`` is None in the k = 1 case (edgeless graph), where the
    pattern cannot occur but the caller still needs two or more parts.
    """

    code = "not-complete-multipartite"

    def __init__(self, witness, message=None):
        self.witness = witness
        if message is None:
            u, v, p = witness
            message = f"edge {{{u!r},{v!r}}} with {p!r} adjacent to neither endpoint"
        super().__init__(message)


class MissingConstantError(UltragraphError):
    code = "missing-constant"


class BadHubIndexError(UltragraphError):
    code = "bad-hub-index"


class NoPathError(UltragraphError):
    code = "no-path"


class BadSequenceError(UltragraphError):
    code = "bad-sequence"


class EnumerationLimitError(UltragraphError):
    """Brute-force enumeration exceeded its size cap."""

    code = "enumeration-limit"


class ParseError(UltragraphError):
    code = "parse-error"

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DigitLimitError(UltragraphError):
    """A value has more digits than the interpreter converts to text."""

    code = "digit-limit"


class InexactDecimalError(UltragraphError):
    """A value has no terminating decimal form and no approximation was allowed."""

    code = "inexact-decimal"
