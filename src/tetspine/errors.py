"""Exception hierarchy shared across the package."""

from __future__ import annotations


class TetspineError(Exception):
    """Base class for all package errors."""


class ParseError(TetspineError):
    """Malformed triangulation file."""

    def __init__(self, message: str, line: int = 0, col: int = 0) -> None:
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}" if line else message)


class GluingError(TetspineError):
    """Face pairing violates the involution or identification rules."""


class UngluedFaceError(GluingError):
    """A face slot has no partner; only fully glued complexes are accepted."""

    LISTED = 20  # slots named in the message; the rest are counted

    def __init__(self, slots: list[tuple[int, int]]) -> None:
        self.slots = slots
        pretty = ", ".join(f"({t},{f})" for t, f in slots[: self.LISTED])
        if len(slots) > self.LISTED:
            pretty += f", ... and {len(slots) - self.LISTED} more"
        super().__init__(f"unglued face slots: {pretty}")


class NotClosedError(TetspineError):
    """Operation requires a closed triangulation."""


class MoveNotApplicableError(TetspineError):
    """A Pachner move's precondition fails at the chosen target."""


class NotSimpleError(TetspineError):
    """Face subset violates the simple-subpolyhedron germ condition."""

    def __init__(self, edges: tuple[int, ...]) -> None:
        self.edges = edges
        super().__init__(f"germ count 1 at spine edges {list(edges)}")


class EnumerationBudgetError(TetspineError):
    """Spine face count exceeds the enumeration cap."""


class InvalidBudgetError(TetspineError, ValueError):
    """The enumeration cap is negative or not an integer."""


class NotASurfaceError(TetspineError):
    """Subpolyhedron is not a closed surface (or is empty)."""


class InternalLinkError(TetspineError):
    """Link subgraph at a spine vertex has no normal-disc realization."""


class MatchingViolationError(TetspineError):
    """Normal coordinates fail the arc matching equations."""


class InvariantDivisionError(TetspineError):
    """Exact division required by the invariant computation failed."""


class InvalidParamsError(TetspineError):
    """Lens-space parameters out of range or not coprime."""


class ConstructionInvariantError(TetspineError):
    """A built triangulation failed its self-check battery."""
