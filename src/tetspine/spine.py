"""Special spines dual to triangulations and their simple subpolyhedra.

The dual spine of a triangulation with n tetrahedra has one true vertex per
tetrahedron, one (triple) edge per triangle class, and one face per edge
class. A subset of faces is a simple subpolyhedron when every spine edge
meets it in 0, 2, or 3 of its germs, counted with multiplicity; it is a
closed surface when no count is 3. The t-invariant is the signed sum of
eps^(chi - v) over all simple subsets, taken in the ring Z[eps] with
eps^2 = eps + 1.

A spine is plain incidence tables with no reference back to its
triangulation. Each triangulation keeps its one dual spine (`dual_spine`),
and the spine keeps its one enumeration of simple subpolyhedra, so the
census and the t-invariant of a triangulation share both. They share Q's
germ patterns too, one byte per tetrahedron: the enumeration kernel ORs the
spine's face bytes on its stack, `subpolyhedron` reads its counts from
them unchecked and keeps them on Q, and the census reads its normal
coordinates from them. A mask from outside gets its patterns from
`germ_patterns` and is checked for simplicity.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ._enum import enumerate_masks
from .errors import (
    EnumerationBudgetError,
    InvalidBudgetError,
    InvariantDivisionError,
    NotSimpleError,
)
from .golden import EPS, ZERO, GoldenInt, divexact
from .triangulation import FACE_EDGE_OFFSETS, Triangulation

DEFAULT_FACE_BUDGET = 40
BUDGET_ENV_VAR = "SPINE_FACE_BUDGET"
# e * (e - 1) = e^2 - e = 1, so e^-1 = e - 1 and e^k = (e - 1)^-k for k < 0
_EPS_INVERSE = GoldenInt(-1, 1)


@dataclass(frozen=True, eq=False)
class SpecialSpine:
    """Incidence tables of the polyhedron dual to a triangulation."""

    num_vertices: int
    num_faces: int
    # per spine edge (triangle class): the 3 incident faces, with multiplicity
    edge_germs: tuple[tuple[int, int, int], ...]
    face_degrees: tuple[int, ...]
    # per face: bit 8t + p set for each of its edge slots p of tetrahedron t
    # (see EDGE_PAIRS); the kernel and germ_patterns() OR them over a mask
    face_bytes: tuple[int, ...] = field(repr=False)
    # every simple subpolyhedron, in mask order, once
    # enumerate_simple_subpolyhedra has enumerated them
    _subpolyhedra: tuple[SubPolyhedron, ...] | None = field(default=None, init=False, repr=False)

    @property
    def has_degree_one_face(self) -> bool:
        # a face dual to a degree-1 edge class wraps onto itself and is not
        # an embedded open disc; combinatorial counts are still used
        return any(d == 1 for d in self.face_degrees)


@dataclass(frozen=True, slots=True)
class SubPolyhedron:
    """A simple union of closed spine faces, given as a face bitmask."""

    faces: int
    v_q: int
    chi: int
    is_surface: bool
    is_empty: bool
    # germ_patterns(spine, faces) as subpolyhedron() read them, for the
    # census; no part of the value, and empty on a hand-made instance
    patterns: bytes = field(default=b"", compare=False, repr=False)


def dual_spine(tri: Triangulation) -> SpecialSpine:
    """The spine dual to tri, built on the first call and kept on tri.

    Its face f is edge class f, its vertex t is tetrahedron t, and its edges
    are the triangle classes in order.
    """
    if tri._spine is not None:
        return tri._spine
    classes, class_of, _ = tri._edge_data
    edge_germs = []
    for tc in tri.triangle_classes:
        t, f = tc.rep
        a, b, c = FACE_EDGE_OFFSETS[f]
        edge_germs.append((class_of[6 * t + a], class_of[6 * t + b], class_of[6 * t + c]))
    face_bytes = [0] * len(classes)
    for s, cls in enumerate(class_of):
        t, p = divmod(s, 6)
        face_bytes[cls] |= 1 << 8 * t + p
    tri._spine = SpecialSpine(
        num_vertices=tri.n,
        num_faces=len(classes),
        edge_germs=tuple(edge_germs),
        face_degrees=tuple(len(ec.slots) for ec in classes),
        face_bytes=tuple(face_bytes),
    )
    return tri._spine


def germ_patterns(spine: SpecialSpine, faces: int) -> bytes:
    """One byte per tetrahedron: bit p set when its edge slot p lies in a
    face of the bitmask faces, that is, the 6-bit germ pattern of Q at that
    spine vertex."""
    if faces < 0 or faces >> spine.num_faces:
        raise ValueError(f"mask {faces:#x} is not a subset of {spine.num_faces} faces")
    face_bytes = spine.face_bytes
    germs = 0
    while faces:
        low = faces & -faces
        germs |= face_bytes[low.bit_length() - 1]
        faces ^= low
    return germs.to_bytes(spine.num_vertices, "little")


# per germ pattern, the germ count in each face of the tetrahedron, a side
# of the spine edge dual to its triangle class: the germ rules of both
# subpolyhedron and the type I and II rows of `surfaces`
_FACE_COUNTS = [[sum(g >> p & 1 for p in slots) for slots in FACE_EDGE_OFFSETS] for g in range(256)]
_HAS_ONE_GERM_FACE = bytes(1 in counts for counts in _FACE_COUNTS)
_HAS_THREE_GERM_FACE = bytes(3 in counts for counts in _FACE_COUNTS)
_FACES_WITH_TWO_OR_THREE = bytes(sum(c >= 2 for c in counts) for counts in _FACE_COUNTS)


def subpolyhedron(spine: SpecialSpine, faces: int, germs: int | None = None) -> SubPolyhedron:
    """The subpolyhedron of a face bitmask, with its invariants.

    Read from Q's germ pattern at each spine vertex: Q is simple when no
    face of a tetrahedron holds exactly one germ, and a surface when none
    holds three. The triangle dual to a spine edge has two sides, each a
    face of a tetrahedron, so the spine edges in Q are half the faces holding
    two or three germs. A mask from outside is validated: its patterns come
    from `germ_patterns`, and NotSimpleError lists, in ascending order, the
    spine edges whose germ count is 1. The enumeration kernel passes germs,
    the OR of face_bytes it gathered on its stack for a mask it found simple
    (see `enumerate_simple_subpolyhedra`); they are taken as Q's patterns,
    unchecked.
    """
    if germs is None:
        patterns = germ_patterns(spine, faces)
        if b"\1" in patterns.translate(_HAS_ONE_GERM_FACE):
            germ_counts = (sum(faces >> f & 1 for f in edge) for edge in spine.edge_germs)
            raise NotSimpleError(tuple(e for e, count in enumerate(germ_counts) if count == 1))
    else:
        patterns = germs.to_bytes(spine.num_vertices, "little")
    touched = spine.num_vertices - patterns.count(0)
    edges_in = sum(patterns.translate(_FACES_WITH_TWO_OR_THREE)) // 2
    # positional, in field order: this runs once per mask, and keywords cost
    return SubPolyhedron(
        faces,
        patterns.count(63),  # v_q
        touched - edges_in + faces.bit_count(),  # chi
        b"\1" not in patterns.translate(_HAS_THREE_GERM_FACE),  # is_surface
        faces == 0,  # is_empty
        patterns,
    )


def _resolve_budget() -> int:
    """The face budget: SPINE_FACE_BUDGET when set, read as the file parser
    reads its integers, ASCII decimal digits and nothing else."""
    env = os.environ.get(BUDGET_ENV_VAR)
    if env is None:
        return DEFAULT_FACE_BUDGET
    unsigned = env[1:] if env[:1] == "-" else env
    if unsigned.isascii() and unsigned.isdigit():
        if unsigned is not env:
            raise InvalidBudgetError(f"the enumeration budget must not be negative, got {env}")
        try:
            return int(env)
        except ValueError:  # more digits than int() reads
            pass
    raise InvalidBudgetError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}")


def enumerate_simple_subpolyhedra(spine: SpecialSpine) -> list[SubPolyhedron]:
    """All simple subpolyhedra, including the empty set and the whole spine.

    Deterministic: sorted by face bitmask. Refuses spines with more faces
    than the budget (default 40, env SPINE_FACE_BUDGET); a budget that is
    not ASCII decimal digits alone raises InvalidBudgetError. The budget is
    resolved and checked on every call, before the cache is read, but the
    enumeration runs once per spine: its result is kept on the spine, and
    each call returns a new list of the same frozen subpolyhedra. The
    kernel (`_enum.enumerate_masks`) yields each simple mask with its germ
    patterns, and each pair goes through `subpolyhedron` once.
    """
    cap = _resolve_budget()
    if spine.num_faces > cap:
        raise EnumerationBudgetError(
            f"{spine.num_faces} faces exceeds the enumeration budget {cap}"
        )
    if spine._subpolyhedra is None:
        found = enumerate_masks(spine.num_faces, spine.edge_germs, spine.face_bytes)
        subs = tuple([subpolyhedron(spine, mask, germs) for mask, germs in found])
        # the spine's tables are frozen; this cache is its one late field
        object.__setattr__(spine, "_subpolyhedra", subs)
    return list(spine._subpolyhedra)


def t_spine(spine: SpecialSpine) -> GoldenInt:
    """Signed sum of eps^(chi(Q) - v_Q) over all simple subpolyhedra Q.

    The exponent is negative when Q holds more spine vertices than its Euler
    characteristic, as the whole spine of a one-vertex closed triangulation
    of n >= 2 tetrahedra does (chi = 1, v_Q = n); eps^k is then taken as
    (eps - 1)^-k. The terms are first gathered into a histogram, exponent ->
    signed count, so the ring arithmetic runs once per distinct exponent,
    not per Q.
    """
    counts: dict[int, int] = {}
    for q in enumerate_simple_subpolyhedra(spine):
        k = q.chi - q.v_q
        counts[k] = counts.get(k, 0) + (-1 if q.v_q % 2 else 1)
    total = ZERO
    for k, c in counts.items():
        total = total + c * (EPS ** k if k >= 0 else _EPS_INVERSE ** -k)
    return total


def t_manifold(tri: Triangulation) -> GoldenInt:
    """t-invariant of the manifold carried by the triangulation.

    The dual spine is a spine of the manifold punctured at every vertex
    whose link is a sphere; each puncture beyond the necessary one costs a
    factor of 2 + eps (the t-value of a sphere shell).
    """
    value = t_spine(dual_spine(tri))
    spheres = sum(1 for link in tri.vertex_links if link.is_sphere)
    exponent = spheres - 1 if tri.is_closed else spheres
    if exponent <= 0:
        return value
    out = divexact(value, GoldenInt(2, 1) ** exponent)
    if out is None:
        raise InvariantDivisionError(
            f"t value {value} is not divisible by (2+e)^{exponent}"
        )
    return out
