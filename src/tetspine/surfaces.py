"""Normal surfaces built from spine subpolyhedra, and their topology.

A normal surface is stored by its coordinates: per tetrahedron, 4 triangle
counts (indexed by the cut-off corner) and 3 quadrilateral counts. Quad type
q separates the edge {0, q+1} from the opposite edge. Two constructions are
provided: a surface subpolyhedron is itself normal (type I), and the
boundary of a small regular neighborhood of any simple subpolyhedron is
normal (type II). Both read each tetrahedron's 6-bit germ pattern off the
edge classes of its six slots (spine face f is edge class f) and copy its
coordinate row from a 64-entry table built at import by one complement
rule: inside a tetrahedron the type II surface has one disc per region of
the complement of Q (see `_type_II_row`), and the type I surface is half
of it.

Topology comes from one pass over the disc complex, read through flat
integer tables cached per triangulation (`NormalTables`). Along each corner
of each triangle class the arcs are paired arithmetically: the arc at depth
j joins the j-th disc outward from the corner on one side to the j-th on
the other. Each arc joins its two discs, with a parity bit, in a
union-find over the discs, which yields the components and orientability.
With the edge weights this gives chi = V - E + F. The result is a small
summary cached on the surface. Computing it is the surface's one
validation: no negative count, at most one quad type per tetrahedron and one
weight per edge class, which implies the matching equations. The sweep then
runs on counts it may trust, and `check_valid`, `split_components`,
`reconstruct`, `edge_weights` and `max_edge_weight` all read the summary.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from itertools import accumulate
from typing import NamedTuple, Sequence

from .errors import (
    InternalLinkError,
    MatchingViolationError,
    NotASurfaceError,
)
from .spine import SubPolyhedron, dual_spine, enumerate_simple_subpolyhedra
from .triangulation import EDGE_PAIRS, FACE_EDGES, FACE_VERTS, Triangulation, surface_name

# Normal coordinates are flat, 7 per tetrahedron t: the triangle cutting off
# corner v at 7t + v, then the quad of type k at 7t + 4 + k. Quad type k
# separates the edge {0, k+1} from the opposite edge.
QTYPE_OF_PAIR: dict[tuple[int, int], int] = {
    (0, 1): 0, (2, 3): 0,
    (0, 2): 1, (1, 3): 1,
    (0, 3): 2, (1, 2): 2,
}
# the two edge pairs separated by each quad type; the first contains vertex 0
QSEP: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = (
    ((0, 1), (2, 3)),
    ((0, 2), (1, 3)),
    ((0, 3), (1, 2)),
)


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


class NormalTables(NamedTuple):
    """Flat lookup tables that read normal coordinates on one triangulation.

    A normal arc is named (triangle class, corner, depth): the corner is read
    on the representative side of the triangle class, and the depth counts
    the arcs between it and that corner.
    """

    # per edge slot: (edge class, four coordinate indices summing to its weight)
    weight_terms: tuple[tuple[int, int, int, int, int], ...]
    # per triangle class and corner of its representative side: coordinate
    # indices (a, b, c, d) with arc count coords[a] + coords[b] on the
    # representative side and coords[c] + coords[d] on the other, where a
    # and c are triangles and b and d quads; then how the discs meet the
    # arcs on each side: (triangle direction, quad direction, quad reversed)
    # on the representative side, then the same on the other. Outward from
    # the corner come the triangle copies, then the quad copies, in reverse
    # order when reversed is 1. Direction 0 means the disc's boundary runs
    # from the arc's end on the corner's edge toward the smaller other
    # vertex of the representative face to the end toward the larger.
    arc_runs: tuple[tuple[int, int, int, int, int, int, int, int, int, int], ...]


def _corner_templates() -> tuple[tuple[tuple[int, ...] | None, ...], ...]:
    """Per face f and corner v of it, in one tetrahedron's labels: the
    offsets of the triangle at v and of the quad cutting v off on f, whose
    counts sum to the arcs there; the direction of that triangle along its
    arc on f; the direction and order of that quad there; and the other two
    vertices of f, ascending. None where v == f."""
    tri_dir = {}
    for v in range(4):
        oa, ob, oc = (u for u in range(4) if u != v)
        tri_dir[(oc, v)] = tri_dir[(oa, v)] = 0
        tri_dir[(ob, v)] = 1
    quad_side = {}
    for (e0, e1), (e2, e3) in QSEP:
        quad_side[(e3, e2)] = (0, 1)
        quad_side[(e0, e1)] = (0, 0)
        quad_side[(e2, e3)] = (1, 1)
        quad_side[(e1, e0)] = (1, 0)
    return tuple(
        tuple(
            None
            if v == f
            else (v, 4 + QTYPE_OF_PAIR[_pair(v, f)], tri_dir[(f, v)], *quad_side[(f, v)])
            + tuple(u for u in FACE_VERTS[f] if u != v)
            for v in range(4)
        )
        for f in range(4)
    )


# the offsets within one tetrahedron's 7 coordinates of the two triangles
# and two quads meeting each edge slot, whose counts sum to its weight
_WEIGHT_OFFSETS: tuple[tuple[int, int, int, int], ...] = tuple(
    (u, v, 4 + (QTYPE_OF_PAIR[(u, v)] + 1) % 3, 4 + (QTYPE_OF_PAIR[(u, v)] + 2) % 3)
    for u, v in EDGE_PAIRS
)
_CORNERS = _corner_templates()


def build_normal_tables(tr: Triangulation) -> NormalTables:
    """The tables of tr; read them through tr._normal_tables, which caches them."""
    class_of = tr._edge_data[1]
    weight_terms = []
    for t in range(tr.n):
        base = 7 * t
        for cls, (a, b, x, y) in zip(class_of[6 * t : 6 * t + 6], _WEIGHT_OFFSETS):
            weight_terms.append((cls, base + a, base + b, base + x, base + y))

    arc_runs = []
    for tc in tr.triangle_classes:
        (t0, f0), (t1, f1) = tc.rep, tc.other
        phi = tc.perm
        b0, b1 = 7 * t0, 7 * t1
        side0 = _CORNERS[f0]
        side1 = _CORNERS[f1]
        for v in FACE_VERTS[f0]:
            ta, qa, tri_a, quad_a, rev_a, x0, y0 = side0[v]
            tb, qb, tri_b, quad_b, rev_b, _, _ = side1[phi[v]]
            # the other side's directions, read in the representative labels
            flip = int(phi[x0] > phi[y0])
            arc_runs.append((
                b0 + ta, b0 + qa, b1 + tb, b1 + qb,
                tri_a, quad_a, rev_a, tri_b ^ flip, quad_b ^ flip, rev_b,
            ))
    return NormalTables(tuple(weight_terms), tuple(arc_runs))


class NormalSurface:
    """Normal coordinates of one normal isotopy class.

    Stored flat, 7 per tetrahedron (see QTYPE_OF_PAIR); `tri` and `quad` are
    per-tetrahedron views of the same numbers. The constructor takes the
    flat coordinates as given; the topology summary, computed on first use
    and kept, is what validates them. Instances are immutable.
    """

    __slots__ = ("triangulation", "coords", "provenance", "_summary")

    def __init__(
        self,
        triangulation: Triangulation,
        coords: Sequence[int],
        provenance: tuple[str, int],  # ("I" | "II" | "external", face bitmask)
    ) -> None:
        object.__setattr__(self, "triangulation", triangulation)
        object.__setattr__(self, "coords", tuple(coords))
        object.__setattr__(self, "provenance", provenance)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def tri(self) -> tuple[tuple[int, int, int, int], ...]:
        c = self.coords
        return tuple(c[i : i + 4] for i in range(0, len(c), 7))

    @property
    def quad(self) -> tuple[tuple[int, int, int], ...]:
        c = self.coords
        return tuple(c[i + 4 : i + 7] for i in range(0, len(c), 7))

    @property
    def _topology(self) -> _Topology:
        """The topology summary; its first computation validates the surface."""
        try:
            return self._summary
        except AttributeError:
            summary = _disc_complex(self)
            object.__setattr__(self, "_summary", summary)
            return summary

    @property
    def is_empty(self) -> bool:
        return not any(self.coords)

    @property
    def is_trivial(self) -> bool:
        c = self.coords
        return not (any(c[4::7]) or any(c[5::7]) or any(c[6::7]))

    def check_valid(self) -> None:
        """Raise MatchingViolationError unless the coordinates are a normal
        surface; the checks are those of the topology summary (see
        `_disc_complex`)."""
        self._topology


@dataclass(frozen=True)
class SurfaceReport:
    chi: int
    orientable: bool
    connected: bool
    components: int
    classification: str
    trivial: bool
    max_edge_weight: int


def _type_II_row(pattern: int) -> tuple[int, ...] | None:
    """The type II row of one tetrahedron's germ pattern, by the complement rule.

    Bit p of the pattern is edge slot p (see EDGE_PAIRS), set when that
    edge's dual face lies in Q; a row is the tetrahedron's 7 coordinates.
    None when a face of the tetrahedron holds exactly one germ, which no
    simple subpolyhedron allows. Otherwise the corners joined by edges
    outside Q form the regions of the tetrahedron minus Q, and the boundary
    of Q's neighbourhood has one disc per region: the triangle at a lone
    corner, the quad separating a pair of corners, the triangle at the
    corner a triple leaves out, and nothing for all four.
    """
    inside = {EDGE_PAIRS[p] for p in range(6) if pattern >> p & 1}
    if any(sum(e in inside for e in edges) == 1 for edges in FACE_EDGES):
        return None
    region = list(range(4))  # a label per corner, shared within a region
    for u, v in EDGE_PAIRS:
        if (u, v) not in inside:
            old = region[v]
            region = [region[u] if r == old else r for r in region]
    row = [0] * 7
    for label in set(region):
        corners = tuple(v for v in range(4) if region[v] == label)
        if len(corners) == 1:
            row[corners[0]] += 1
        elif len(corners) == 2:
            row[4 + QTYPE_OF_PAIR[corners]] += 1
        elif len(corners) == 3:
            row[6 - sum(corners)] += 1
    return tuple(row)


# per 6-bit germ pattern: its type II row, and its type I row, which is half
# of it; None for a pattern no simple subpolyhedron has, and a type I row of
# None where the type II row has an odd entry, a pattern no surface has
_TYPE_II_ROWS = tuple(_type_II_row(pattern) for pattern in range(64))
_TYPE_I_ROWS = tuple(
    None if row is None or any(k % 2 for k in row) else tuple(k // 2 for k in row)
    for row in _TYPE_II_ROWS
)


def _germ_patterns(tr: Triangulation, faces: int) -> list[int]:
    """Per tetrahedron, the 6-bit set of edge slots whose dual face is in faces."""
    slots = iter(tr._edge_data[1])  # edge class, that is dual face, of each slot
    return [
        (faces >> g0 & 1)
        | (faces >> g1 & 1) << 1
        | (faces >> g2 & 1) << 2
        | (faces >> g3 & 1) << 3
        | (faces >> g4 & 1) << 4
        | (faces >> g5 & 1) << 5
        for g0, g1, g2, g3, g4, g5 in zip(slots, slots, slots, slots, slots, slots)
    ]


def _no_shape(pattern: int) -> InternalLinkError:
    slots = [p for p in range(6) if pattern >> p & 1]
    return InternalLinkError(f"germ slots {slots} form no admissible link shape")


def _build(coords: Sequence[int], provenance: tuple[str, int], tr: Triangulation) -> NormalSurface:
    """A checked surface from flat coordinates, 7 per tetrahedron."""
    ns = NormalSurface(tr, coords, provenance)
    ns._topology  # computing the summary validates the surface
    return ns


def type_I_surface(tr: Triangulation, q: SubPolyhedron) -> NormalSurface:
    """The surface subpolyhedron Q of tr's dual spine, in normal coordinates."""
    if not q.is_surface:
        raise NotASurfaceError("subpolyhedron has a germ count of 3 at some edge")
    if q.is_empty:
        raise NotASurfaceError("the empty subpolyhedron has no type I surface")
    coords: list[int] = []
    for t, pattern in enumerate(_germ_patterns(tr, q.faces)):
        row = _TYPE_I_ROWS[pattern]
        if row is None:
            if _TYPE_II_ROWS[pattern] is None:
                raise _no_shape(pattern)
            raise InternalLinkError(
                f"surface subpolyhedron has a germ count of 3 in tetrahedron {t}"
            )
        coords.extend(row)
    return _build(coords, ("I", q.faces), tr)


def type_II_surface(tr: Triangulation, q: SubPolyhedron) -> NormalSurface:
    """Boundary of a small regular neighborhood of the subpolyhedron Q of
    tr's dual spine."""
    if q.is_empty:
        raise ValueError("type II surface needs a nonempty subpolyhedron")
    coords: list[int] = []
    for pattern in _germ_patterns(tr, q.faces):
        row = _TYPE_II_ROWS[pattern]
        if row is None:
            raise _no_shape(pattern)
        coords.extend(row)
    return _build(coords, ("II", q.faces), tr)


class _Topology(NamedTuple):
    """What one pass over the disc complex of a surface finds."""

    weights: tuple[int, ...]  # intersection count per edge class
    chi: int
    orientable: bool
    components: int
    # coordinates of each component in order of first disc, when there are two or more
    parts: tuple[tuple[int, ...], ...] | None


def _disc_complex(ns: NormalSurface) -> _Topology:
    """Validate the coordinates, then find edge weights, chi, orientability
    and components in one sweep of the discs.

    The coordinates are a normal surface when three conditions hold, checked
    in this order: no count is negative, no tetrahedron holds two quad types,
    and every slot of an edge class sees the same weight. The last one is
    the matching equations: the arcs cutting corner v off face {v, a, b}
    number (w_va + w_vb - w_ab) / 2 of the face's edge weights, so one weight
    per edge class gives the two sides of every face the same arc counts,
    and conversely.

    Discs are numbered in coordinate order. Each triangle-class corner pairs
    its arcs arithmetically: the arc at depth j is bounded by the j-th disc
    outward from the corner on each side (see NormalTables.arc_runs).
    Each pair joins its two discs in a union-find with parity, where the
    parity records whether the two discs' boundary orientations disagree
    across the arc; a parity clash inside one set means non-orientable.
    Every disc holds its root and its parity against it, so a find is one
    lookup, and a union relabels the smaller of the two sets: O(D log D)
    relabels in all for D discs. Numbering the roots in order of first disc
    gives the components in that order. Every intersection point lies on
    one edge class, so V is the sum of the weights and chi = V - E + F.
    """
    tables = ns.triangulation._normal_tables
    c = ns.coords
    if min(c, default=0) < 0:
        raise MatchingViolationError(f"negative normal coordinate in {c}")
    for i in range(4, len(c), 7):
        if (c[i] and c[i + 1]) or (c[i] and c[i + 2]) or (c[i + 1] and c[i + 2]):
            raise MatchingViolationError(
                f"tetrahedron {i // 7} holds two quad types: {c[i : i + 3]}"
            )
    weights: list[int | None] = [None] * len(ns.triangulation.edge_classes)
    for cls, a, b, x, y in tables.weight_terms:
        w = c[a] + c[b] + c[x] + c[y]
        if weights[cls] is None:
            weights[cls] = w
        elif weights[cls] != w:
            seen = {c[a] + c[b] + c[x] + c[y] for k, a, b, x, y in tables.weight_terms if k == cls}
            raise MatchingViolationError(f"edge class {cls} sees weights {sorted(seen)}")

    first = [0, *accumulate(c)]  # first[i]: the first disc of coordinate i
    discs = first[-1]
    # label[x] = 2 * root + (1 when disc x and its root disagree in orientation)
    label = list(range(0, 2 * discs, 2))
    # the discs of each set form a cycle under ring, so two sets join by
    # swapping one successor each; size counts a root's set
    ring = list(range(discs))
    size = [1] * discs
    arcs = 0
    joins = 0
    orientable = True
    for ta, qa, tb, qb, da, ea, ra, db, eb, rb in tables.arc_runs:
        ka, la, kb, lb = c[ta], c[qa], c[tb], c[qb]
        depth = ka + la
        if not depth:
            continue
        arcs += depth
        for j in range(depth):
            # the label of the disc bounding the arc on each side, with its
            # direction folded in, so that the two roots must satisfy
            # side(x root) ^ side(y root) == (x ^ y) & 1
            if j < ka:
                x = label[first[ta] + j] ^ da
            else:
                x = label[first[qa] + (la - 1 - (j - ka) if ra else j - ka)] ^ ea
            if j < kb:
                y = label[first[tb] + j] ^ db ^ 1
            else:
                y = label[first[qb] + (lb - 1 - (j - kb) if rb else j - kb)] ^ eb ^ 1
            parity = (x ^ y) & 1
            x >>= 1
            y >>= 1
            if x == y:
                if parity:
                    orientable = False
                continue
            joins += 1
            if size[x] < size[y]:
                x, y = y, x
            size[x] += size[y]
            # relabel the smaller set, rooted at y, onto the root x
            shift = 2 * (x - y)
            z = y
            while True:
                label[z] = (label[z] ^ parity) + shift
                z = ring[z]
                if z == y:
                    break
            ring[x], ring[y] = ring[y], ring[x]
    components = discs - joins

    parts = None
    if components > 1:
        index: dict[int, int] = {}  # component number of each root, in order of first disc
        rows: list[list[int]] = []
        for i, k in enumerate(c):
            for x in range(first[i], first[i] + k):
                root = label[x] >> 1
                if root not in index:
                    index[root] = len(rows)
                    rows.append([0] * len(c))
                rows[index[root]][i] += 1
        parts = tuple(tuple(r) for r in rows)
    return _Topology(tuple(weights), sum(weights) - arcs + discs, orientable, components, parts)


def reconstruct(ns: NormalSurface) -> SurfaceReport:
    """Topology of the normal surface: chi, orientability and component count."""
    topo = ns._topology
    ncomp = topo.components
    connected = ncomp == 1
    if ncomp == 0:
        classification = "empty"
    elif connected:
        classification = surface_name(topo.chi, topo.orientable) or f"other({topo.chi})"
    else:
        classification = f"other({topo.chi})"
    return SurfaceReport(
        chi=topo.chi,
        orientable=topo.orientable,
        connected=connected,
        components=ncomp,
        classification=classification,
        trivial=ns.is_trivial,
        max_edge_weight=max(topo.weights, default=0),
    )


def edge_weights(ns: NormalSurface) -> list[int]:
    """Intersection count with each edge class."""
    return list(ns._topology.weights)


def max_edge_weight(ns: NormalSurface) -> int:
    return max(ns._topology.weights, default=0)


def split_components(ns: NormalSurface) -> list[NormalSurface]:
    """Restrict the coordinates to each connected component of the surface."""
    parts = ns._topology.parts
    if parts is None:
        return [ns]
    return [_build(part, ns.provenance, ns.triangulation) for part in parts]


@dataclass(frozen=True, eq=False)
class CensusEntry:
    surface: NormalSurface
    report: SurfaceReport


def census(tr: Triangulation) -> list[CensusEntry]:
    """All connected type I and type II normal surfaces, up to normal isotopy.

    Every surface subpolyhedron contributes itself (type I); every nonempty
    simple subpolyhedron contributes its neighborhood boundary (type II).
    Each surface is split into components as it is built, and a component
    whose normal coordinates were already seen is dropped. Sorted by
    coordinate vector.
    """
    seen: dict[tuple[int, ...], NormalSurface] = {}

    def keep(ns: NormalSurface) -> None:
        for comp in split_components(ns):
            seen.setdefault(comp.coords, comp)

    for q in enumerate_simple_subpolyhedra(dual_spine(tr)):
        if q.is_empty:
            continue
        if q.is_surface:
            keep(type_I_surface(tr, q))
        keep(type_II_surface(tr, q))
    return [CensusEntry(surface=seen[key], report=reconstruct(seen[key])) for key in sorted(seen)]
