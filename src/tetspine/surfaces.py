"""Normal surfaces built from spine subpolyhedra, and their topology.

A normal surface is stored by its coordinates: per tetrahedron, 4 triangle
counts (indexed by the cut-off corner) and 3 quadrilateral counts. Quad type
q separates the edge {0, q+1} from the opposite edge. Two constructions are
provided: a surface subpolyhedron is itself normal (type I), and the
boundary of a small regular neighborhood of any simple subpolyhedron is
normal (type II).

Topology comes from one pass over the disc complex, read through flat
integer tables cached per triangulation (`NormalTables`). Each disc side
becomes an integer arc key, the two sides of each arc are joined in a
union-find with a parity bit, and that one sweep yields the edge weights,
chi = V - E + F, orientability and the components. The result is a small
summary cached on the surface, which `split_components`, `reconstruct`,
`edge_weights` and `max_edge_weight` all read.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import NamedTuple, Sequence

from .errors import (
    InternalLinkError,
    MatchingViolationError,
    NotASurfaceError,
)
from .spine import SpecialSpine, SubPolyhedron, dual_spine, enumerate_simple_subpolyhedra
from .triangulation import EDGE_PAIRS, FACE_VERTS, SignedDSU, Triangulation, perm_inverse

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

    An arc key names one normal arc: depth * arc_stride + 4 * triangle class
    + corner, with the corner and the depth (counted from that corner) read
    on the representative side of the triangle class.
    """

    # per edge slot: (edge class, four coordinate indices summing to its weight)
    weight_terms: tuple[tuple[int, int, int, int, int], ...]
    # per triangle class and corner of its representative side: coordinate
    # indices (a, b, c, d) with arc count coords[a] + coords[b] on the
    # representative side and coords[c] + coords[d] on the other
    matching: tuple[tuple[int, int, int, int], ...]
    matching_sites: tuple[tuple[int, int, int], ...]  # (tet, face, corner) of each
    # per coordinate: the boundary arcs of each of its discs, as
    # (4 * triangle class + corner, direction, depth base, reversed);
    # copy m of k sits at depth coords[base] + (k - 1 - m if reversed else m),
    # with no coords term when base is -1
    disc_arcs: tuple[tuple[tuple[int, int, int, int], ...], ...]
    arc_stride: int


def build_normal_tables(tr: Triangulation) -> NormalTables:
    """The tables of tr; read them through tr._normal_tables, which caches them."""
    n = tr.n
    class_of = tr._edge_data[1]
    weight_terms = []
    for t in range(n):
        for p, (u, v) in enumerate(EDGE_PAIRS):
            k = QTYPE_OF_PAIR[(u, v)]
            weight_terms.append((
                class_of[6 * t + p],
                7 * t + u,
                7 * t + v,
                7 * t + 4 + (k + 1) % 3,
                7 * t + 4 + (k + 2) % 3,
            ))

    def arc_count_terms(t: int, f: int, v: int) -> tuple[int, int]:
        return 7 * t + v, 7 * t + 4 + QTYPE_OF_PAIR[(min(v, f), max(v, f))]

    matching = []
    sites = []
    for tc in tr.triangle_classes:
        (t0, f0), (t1, f1) = tc.rep, tc.other
        for v in FACE_VERTS[f0]:
            matching.append(arc_count_terms(t0, f0, v) + arc_count_terms(t1, f1, tc.perm[v]))
            sites.append((t0, f0, v))

    def arc(t: int, f: int, corner: int, direction: int, base: int, rev: int) -> tuple:
        """One disc side on face f, keyed on the representative side.

        direction 0 means the disc walks the arc from its endpoint on the
        corner's edge toward the smaller off-corner vertex to the one
        toward the larger, in local labels.
        """
        tc = tr.triangle_classes[tr._triangle_class_of[(t, f)]]
        if (t, f) != tc.rep:
            phi = tc.perm
            corner = perm_inverse(phi)[corner]
            x0, y0 = (w for w in FACE_VERTS[tc.rep[1]] if w != corner)
            direction ^= phi[x0] > phi[y0]
        return (4 * tc.index + corner, direction, base, rev)

    disc_arcs = []
    for t in range(n):
        for v in range(4):
            oa, ob, oc = (u for u in range(4) if u != v)
            disc_arcs.append((
                arc(t, oc, v, 0, -1, 0),
                arc(t, oa, v, 0, -1, 0),
                arc(t, ob, v, 1, -1, 0),
            ))
        for (e0, e1), (e2, e3) in QSEP:
            disc_arcs.append((
                arc(t, e3, e2, 0, 7 * t + e2, 1),
                arc(t, e0, e1, 0, 7 * t + e1, 0),
                arc(t, e2, e3, 1, 7 * t + e3, 1),
                arc(t, e1, e0, 1, 7 * t + e0, 0),
            ))
    return NormalTables(
        tuple(weight_terms),
        tuple(matching),
        tuple(sites),
        tuple(disc_arcs),
        4 * len(tr.triangle_classes),
    )


class NormalSurface:
    """Normal coordinates of one normal isotopy class.

    Stored flat, 7 per tetrahedron (see QTYPE_OF_PAIR); `tri` and `quad` are
    per-tetrahedron views of the same numbers. Instances are immutable, and
    the topology summary is computed on first use and kept.
    """

    __slots__ = ("triangulation", "coords", "provenance", "_summary")

    def __init__(
        self,
        triangulation: Triangulation,
        tri: Sequence[Sequence[int]],
        quad: Sequence[Sequence[int]],
        provenance: tuple[str, int],  # ("I" | "II" | "external", face bitmask)
    ) -> None:
        flat: list[int] = []
        for t in range(triangulation.n):
            flat.extend(tri[t])
            flat.extend(quad[t])
        self._fill(triangulation, tuple(flat), provenance)

    def _fill(self, triangulation: Triangulation, coords: tuple[int, ...], provenance) -> None:
        object.__setattr__(self, "triangulation", triangulation)
        object.__setattr__(self, "coords", coords)
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
        try:
            return self._summary
        except AttributeError:
            object.__setattr__(self, "_summary", _disc_complex(self))
            return self._summary

    @property
    def is_empty(self) -> bool:
        return not any(self.coords)

    @property
    def is_trivial(self) -> bool:
        return not any(any(qs) for qs in self.quad)

    def arc_count(self, t: int, f: int, v: int) -> int:
        """Normal arcs on face f of tetrahedron t cutting off corner v."""
        c = self.coords
        return c[7 * t + v] + c[7 * t + 4 + QTYPE_OF_PAIR[_pair(v, f)]]

    def slot_weight(self, t: int, u: int, v: int) -> int:
        """Intersection points with the edge {u, v} of tetrahedron t."""
        skip = QTYPE_OF_PAIR[_pair(u, v)]
        c = self.coords
        return c[7 * t + u] + c[7 * t + v] + sum(c[7 * t + 4 + k] for k in range(3) if k != skip)

    def matching_violations(self) -> list[tuple[int, int, int]]:
        """(tet, face, corner) triples where arc counts disagree across a gluing."""
        c = self.coords
        tables = self.triangulation._normal_tables
        return [
            site
            for (a, b, x, y), site in zip(tables.matching, tables.matching_sites)
            if c[a] + c[b] != c[x] + c[y]
        ]

    def check_valid(self) -> None:
        if min(self.coords, default=0) < 0:
            raise MatchingViolationError(f"negative normal coordinate in {self.coords}")
        for t, qs in enumerate(self.quad):
            if qs.count(0) < 2:
                raise MatchingViolationError(f"tetrahedron {t} holds two quad types: {qs}")
        bad = self.matching_violations()
        if bad:
            raise MatchingViolationError(f"arc counts disagree at {bad}")


@dataclass(frozen=True)
class SurfaceReport:
    chi: int
    orientable: bool
    connected: bool
    components: int
    classification: str
    trivial: bool
    max_edge_weight: int


def _classify(chi: int, orientable: bool) -> str:
    if orientable:
        if chi == 2:
            return "sphere"
        if chi == 0:
            return "torus"
    else:
        if chi == 1:
            return "rp2"
        if chi == 0:
            return "klein"
    return f"other({chi})"


def _germ_slots(spine: SpecialSpine, t: int, mask: int) -> list[int]:
    return [p for p in range(6) if mask >> spine.corner_germs[t][p] & 1]


def _link_shape(slots: list[int]) -> tuple:
    """Shape of the germ set of a simple subpolyhedron inside one tetrahedron.

    Returns ("empty",), ("cone", corner), ("band", quad type),
    ("theta", missing pair) or ("full",).
    """
    k = len(slots)
    if k == 0:
        return ("empty",)
    if k == 3:
        pairs = [EDGE_PAIRS[p] for p in slots]
        for d in range(4):
            if all(d in pr for pr in pairs):
                return ("cone", d)
    elif k == 4:
        missing = [EDGE_PAIRS[p] for p in range(6) if p not in slots]
        if not set(missing[0]) & set(missing[1]):
            return ("band", QTYPE_OF_PAIR[missing[0]])
    elif k == 5:
        missing = next(EDGE_PAIRS[p] for p in range(6) if p not in slots)
        return ("theta", missing)
    elif k == 6:
        return ("full",)
    raise InternalLinkError(f"germ slots {slots} form no admissible link shape")


def _build(coords: Sequence[int], provenance: tuple[str, int], tr: Triangulation) -> NormalSurface:
    """A checked surface from flat coordinates, 7 per tetrahedron."""
    ns = object.__new__(NormalSurface)
    ns._fill(tr, tuple(coords), provenance)
    ns.check_valid()
    return ns


def type_I_surface(spine: SpecialSpine, q: SubPolyhedron) -> NormalSurface:
    """The surface subpolyhedron Q itself, in normal coordinates."""
    if not q.is_surface:
        raise NotASurfaceError("subpolyhedron has a germ count of 3 at some edge")
    if q.is_empty:
        raise NotASurfaceError("the empty subpolyhedron has no type I surface")
    tr = spine.triangulation
    coords = [0] * (7 * tr.n)
    for t in range(tr.n):
        shape = _link_shape(_germ_slots(spine, t, q.faces))
        if shape[0] == "cone":
            coords[7 * t + shape[1]] += 1
        elif shape[0] == "band":
            coords[7 * t + 4 + shape[1]] += 1
        elif shape[0] != "empty":
            raise InternalLinkError(
                f"surface subpolyhedron has {shape[0]} germs in tetrahedron {t}"
            )
    return _build(coords, ("I", q.faces), tr)


def type_II_surface(spine: SpecialSpine, q: SubPolyhedron) -> NormalSurface:
    """Boundary of a small regular neighborhood of the subpolyhedron Q."""
    if q.is_empty:
        raise ValueError("type II surface needs a nonempty subpolyhedron")
    tr = spine.triangulation
    coords = [0] * (7 * tr.n)
    for t in range(tr.n):
        shape = _link_shape(_germ_slots(spine, t, q.faces))
        if shape[0] == "cone":
            coords[7 * t + shape[1]] += 2
        elif shape[0] == "band":
            coords[7 * t + 4 + shape[1]] += 2
        elif shape[0] == "theta":
            u, w = shape[1]
            for v in range(4):
                if v not in (u, w):
                    coords[7 * t + v] += 1
            coords[7 * t + 4 + QTYPE_OF_PAIR[(u, w)]] += 1
        elif shape[0] == "full":
            for v in range(4):
                coords[7 * t + v] += 1
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
    """Edge weights, chi, orientability and components in one sweep of the discs.

    Discs are numbered in coordinate order. Each disc side is an integer arc
    key (see NormalTables); the two sides of every arc join their discs in a
    union-find whose parity bit records whether the discs' boundary
    orientations agree, so a parity conflict means non-orientable. Every
    intersection point lies on one edge class, so V is the sum of the
    weights and chi = V - E + F.
    """
    tables = ns.triangulation._normal_tables
    c = ns.coords

    # every slot of an edge class must see the same weight
    weights: list[int | None] = [None] * len(ns.triangulation.edge_classes)
    for cls, a, b, x, y in tables.weight_terms:
        w = c[a] + c[b] + c[x] + c[y]
        if weights[cls] is None:
            weights[cls] = w
        elif weights[cls] != w:
            seen = {c[a] + c[b] + c[x] + c[y] for k, a, b, x, y in tables.weight_terms if k == cls}
            raise MatchingViolationError(f"edge class {cls} sees weights {sorted(seen)}")

    stride = tables.arc_stride
    dsu = SignedDSU(sum(k for k in c if k > 0))
    sides: dict[int, int] = {}  # arc key -> first side 2 * disc + direction; -1 once paired
    orientable = True
    d = 0
    for i, k in enumerate(c):
        for m in range(k):
            for key, direction, base, rev in tables.disc_arcs[i]:
                depth = (k - 1 - m if rev else m) + (c[base] if base >= 0 else 0)
                key += depth * stride
                first = sides.get(key)
                if first is None:
                    sides[key] = 2 * d + direction
                elif first < 0:
                    raise MatchingViolationError(
                        f"arc {_arc_name(key, stride)} bounds more than 2 disc sides"
                    )
                else:
                    sides[key] = -1
                    if not dsu.union(first >> 1, d, (first ^ direction ^ 1) & 1):
                        orientable = False
            d += 1
    for key, first in sides.items():
        if first >= 0:
            raise MatchingViolationError(
                f"arc {_arc_name(key, stride)} bounds 1 disc side, expected 2"
            )

    roots = sum(1 for x in range(d) if dsu.parent[x] == x)
    parts = None
    if roots > 1:
        index: dict[int, int] = {}  # root -> component
        rows: list[list[int]] = []
        d = 0
        for i, k in enumerate(c):
            for _ in range(k):
                root = dsu.find(d)[0]
                if root not in index:
                    index[root] = len(rows)
                    rows.append([0] * len(c))
                rows[index[root]][i] += 1
                d += 1
        parts = tuple(tuple(r) for r in rows)
    return _Topology(tuple(weights), sum(weights) - len(sides) + d, orientable, roots, parts)


def _arc_name(key: int, stride: int) -> tuple[int, int, int]:
    """(triangle class, corner, depth) of an arc key."""
    return (key % stride // 4, key % 4, key // stride)


def reconstruct(ns: NormalSurface) -> SurfaceReport:
    """Topology of the normal surface: chi, orientability and component count."""
    ns.check_valid()
    topo = ns._topology
    ncomp = topo.components
    connected = ncomp == 1
    if ncomp == 0:
        classification = "empty"
    elif connected:
        classification = _classify(topo.chi, topo.orientable)
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


def vertex_bound_after_cut(tr: Triangulation, ns: NormalSurface) -> int:
    """Tetrahedra free of quads: bounds the complexity after cutting."""
    return sum(1 for qs in ns.quad if not any(qs))


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


def census(tr: Triangulation, budget: int | None = None) -> list[CensusEntry]:
    """All connected type I and type II normal surfaces, up to normal isotopy.

    Every surface subpolyhedron contributes itself (type I); every nonempty
    simple subpolyhedron contributes its neighborhood boundary (type II).
    Each surface is split into components as it is built, and a component
    whose normal coordinates were already seen is dropped. Sorted by
    coordinate vector.
    """
    spine = dual_spine(tr)
    seen: dict[tuple[int, ...], NormalSurface] = {}

    def keep(ns: NormalSurface) -> None:
        for comp in split_components(ns):
            seen.setdefault(comp.coords, comp)

    for q in enumerate_simple_subpolyhedra(spine, budget=budget):
        if q.is_empty:
            continue
        if q.is_surface:
            keep(type_I_surface(spine, q))
        keep(type_II_surface(spine, q))
    return [CensusEntry(surface=seen[key], report=reconstruct(seen[key])) for key in sorted(seen)]
