"""Special spines dual to triangulations and their simple subpolyhedra.

The dual spine of a triangulation with n tetrahedra has one true vertex per
tetrahedron, one (triple) edge per triangle class, and one face per edge
class. A subset of faces is a simple subpolyhedron when every spine edge
meets it in 0, 2, or 3 of its germs, counted with multiplicity; it is a
closed surface when no count is 3. The t-invariant is the signed sum of
eps^(chi - v) over all simple subsets, taken in the ring Z[eps] with
eps^2 = eps + 1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

from ._enum import enumerate_masks
from .errors import (
    EnumerationBudgetError,
    InvalidBudgetError,
    InvariantDivisionError,
    NotSimpleError,
)
from .golden import EPS, ZERO, GoldenInt, divexact
from .triangulation import EDGE_PAIRS, FACE_VERTS, Triangulation

DEFAULT_FACE_BUDGET = 40
BUDGET_ENV_VAR = "SPINE_FACE_BUDGET"

# For edge slot {i, j} of a tetrahedron, the germ of the dual face along the
# dual edge toward face k appears iff k is one of the two faces containing
# the edge, i.e. the complement pair. Used by the surface constructions.
K4_EDGE: tuple[tuple[int, int], ...] = tuple(
    tuple(sorted(set(range(4)) - set(pair))) for pair in EDGE_PAIRS
)


@dataclass(frozen=True, eq=False)
class SpecialSpine:
    """Incidence tables of the polyhedron dual to a triangulation."""

    triangulation: Triangulation
    num_vertices: int
    num_faces: int
    # per spine edge (triangle class): the 3 incident faces, with multiplicity
    edge_germs: tuple[tuple[int, int, int], ...]
    # per spine vertex (tetrahedron): face of each of the 6 edge slots
    corner_germs: tuple[tuple[int, int, int, int, int, int], ...]
    # per face: vertex classes at the two ends of the dual edge class
    face_endpoints: tuple[tuple[int, int], ...]
    face_degrees: tuple[int, ...]

    @property
    def num_edges(self) -> int:
        return len(self.edge_germs)

    @property
    def chi(self) -> int:
        return self.num_faces - self.num_vertices

    @property
    def has_degree_one_face(self) -> bool:
        # a face dual to a degree-1 edge class wraps onto itself and is not
        # an embedded open disc; combinatorial counts are still used
        return any(d == 1 for d in self.face_degrees)

    @property
    def full_mask(self) -> int:
        return (1 << self.num_faces) - 1


@dataclass(frozen=True, slots=True)
class SubPolyhedron:
    """A simple union of closed spine faces, given as a face bitmask."""

    faces: int
    v_q: int
    chi: int
    is_surface: bool
    is_proper: bool
    is_empty: bool

    @property
    def face_count(self) -> int:
        return self.faces.bit_count()


def dual_spine(tri: Triangulation) -> SpecialSpine:
    edge_germs = []
    for tc in tri.triangle_classes:
        t, f = tc.rep
        a, b, c = FACE_VERTS[f]
        edge_germs.append(
            (
                tri.edge_class_of(t, a, b),
                tri.edge_class_of(t, a, c),
                tri.edge_class_of(t, b, c),
            )
        )
    corner_germs = []
    for t in range(tri.n):
        corner_germs.append(
            tuple(tri.edge_class_of(t, u, v) for (u, v) in EDGE_PAIRS)
        )
    face_endpoints = []
    face_degrees = []
    for ec in tri.edge_classes:
        t, pair = ec.rep // 6, EDGE_PAIRS[ec.rep % 6]
        face_endpoints.append(
            (tri.vertex_class_of(t, pair[0]), tri.vertex_class_of(t, pair[1]))
        )
        face_degrees.append(ec.degree)
    return SpecialSpine(
        triangulation=tri,
        num_vertices=tri.n,
        num_faces=len(tri.edge_classes),
        edge_germs=tuple(edge_germs),
        corner_germs=tuple(corner_germs),
        face_endpoints=tuple(face_endpoints),
        face_degrees=tuple(face_degrees),
    )


def subpolyhedron(spine: SpecialSpine, faces: int) -> SubPolyhedron:
    """Validate a face bitmask and compute its invariants.

    Raises NotSimpleError listing the spine edges whose germ count is 1.
    """
    if faces < 0 or faces >> spine.num_faces:
        raise ValueError(f"mask {faces:#x} is not a subset of {spine.num_faces} faces")
    bad = []
    edges_in = 0
    surface = True
    for e, germs in enumerate(spine.edge_germs):
        cnt = sum(1 for g in germs if faces >> g & 1)
        if cnt == 1:
            bad.append(e)
        elif cnt >= 2:
            edges_in += 1
            if cnt == 3:
                surface = False
    if bad:
        raise NotSimpleError(tuple(bad))
    touched = 0
    v_q = 0
    for germs6 in spine.corner_germs:
        hits = sum(1 for g in germs6 if faces >> g & 1)
        if hits:
            touched += 1
            if hits == 6:
                v_q += 1
    return SubPolyhedron(
        faces=faces,
        v_q=v_q,
        chi=touched - edges_in + faces.bit_count(),
        is_surface=surface,
        is_proper=faces != spine.full_mask,
        is_empty=faces == 0,
    )


def _resolve_budget(budget: int | None) -> int:
    if budget is None:
        env = os.environ.get(BUDGET_ENV_VAR)
        if env is None:
            return DEFAULT_FACE_BUDGET
        try:
            budget = int(env)
        except ValueError:
            raise InvalidBudgetError(
                f"{BUDGET_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    if budget < 0:
        raise InvalidBudgetError(
            f"the enumeration budget must not be negative, got {budget}"
        )
    return budget


def enumerate_simple_subpolyhedra(
    spine: SpecialSpine, budget: int | None = None
) -> list[SubPolyhedron]:
    """All simple subpolyhedra, including the empty set and the whole spine.

    Deterministic: sorted by face bitmask. Refuses spines with more faces
    than the budget (default 40, env SPINE_FACE_BUDGET); a budget that is
    negative or not an integer raises InvalidBudgetError. The budget is
    checked on every call, but the enumeration runs once per triangulation:
    its result is cached on the spine's triangulation, and each call
    returns a new list of the same frozen subpolyhedra. The spine itself is
    not cached there: it points back to its triangulation.
    """
    cap = _resolve_budget(budget)
    if spine.num_faces > cap:
        raise EnumerationBudgetError(
            f"{spine.num_faces} faces exceeds the enumeration budget {cap}"
        )
    tri = spine.triangulation
    if tri._subpolyhedra is None:
        tri._subpolyhedra = tuple(
            subpolyhedron(spine, m) for m in enumerate_masks(spine.num_faces, spine.edge_germs)
        )
    return list(tri._subpolyhedra)


def surface_space_nullity(spine: SpecialSpine) -> int:
    """GF(2) nullity of the map (face subsets) -> (edge germ parities).

    The kernel consists exactly of the face subsets that are closed
    surfaces, so 2**nullity counts them.
    """
    rank = 0
    basis: dict[int, int] = {}
    for germs in spine.edge_germs:
        row = 0
        for f in germs:
            row ^= 1 << f
        while row:
            h = row.bit_length() - 1
            if h in basis:
                row ^= basis[h]
            else:
                basis[h] = row
                rank += 1
                break
    return spine.num_faces - rank


def t_spine(
    spine: SpecialSpine, subpolyhedra: Sequence[SubPolyhedron] | None = None
) -> GoldenInt:
    """Signed sum of eps^(chi(Q) - v_Q) over all simple subpolyhedra Q."""
    if subpolyhedra is None:
        subpolyhedra = enumerate_simple_subpolyhedra(spine)
    total = ZERO
    for q in subpolyhedra:
        term = EPS ** (q.chi - q.v_q)
        total = total - term if q.v_q % 2 else total + term
    return total


def t_manifold(tri: Triangulation) -> GoldenInt:
    """t-invariant of the manifold carried by the triangulation.

    The dual spine is a spine of the manifold punctured at every vertex
    whose link is a sphere; each puncture beyond the necessary one costs a
    factor of 2 + eps (the t-value of a sphere shell).
    """
    spine = dual_spine(tri)
    value = t_spine(spine)
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


def universal_subpolyhedron(tri: Triangulation) -> SubPolyhedron:
    """Faces of the dual spine touching two distinct complement components.

    The components of the spine complement correspond to vertex classes, so
    the mask collects the faces whose dual edge joins two distinct vertex
    classes. Empty when the triangulation has a single vertex class.
    """
    spine = dual_spine(tri)
    mask = 0
    for f, (tail, head) in enumerate(spine.face_endpoints):
        if tail != head:
            mask |= 1 << f
    return subpolyhedron(spine, mask)
