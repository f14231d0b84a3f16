"""Normal surfaces built from spine subpolyhedra, and their topology.

A normal surface is stored by its coordinates: per tetrahedron, 4 triangle
counts (indexed by the cut-off corner) and 3 quadrilateral counts. Quad type
q separates the edge {0, q+1} from the opposite edge. Two constructions are
provided: a surface subpolyhedron is itself normal (type I), and the
boundary of a small regular neighborhood of any simple subpolyhedron is
normal (type II). Both read Q's germ patterns off the dual spine (see
`spine`; spine face f is edge class f), one byte per tetrahedron holding
the 6-bit pattern of its edge slots in Q, and join
the tetrahedra's 7-byte coordinate rows from a 64-entry table built at
import by one complement rule: inside a tetrahedron the type II surface has
one disc per region of the complement of Q (see `_type_II_row`), and the
type I surface is half of it. Which patterns have a row is read from
`spine`'s germ tables. One builder, `_census_surface`, serves the census,
`type_I_surface`, `type_II_surface` and the vertex links: the census reads
the patterns that the enumeration kernel gathered and `spine.subpolyhedron`
kept on each Q, the two functions compute them from Q's mask
(`spine.germ_patterns`), and the vertex links are the type II surface of
the whole spine, pattern 63 in every tetrahedron. A surface so built keeps
the joined bytes as its coordinates, and the census dedups and sorts on them.

Topology comes from one sweep over the disc complex, one triangle class at
a time, read through flat integer tables cached per triangulation
(`NormalTables`). The arcs across a triangle class depend only on its
gluing template (one of 96) and the rows of its two tetrahedra. The 22
distinct rows of the two tables form a registry, each checked once at
import, and census surfaces reach the sweep as row ids: the arcs between
two registry rows are worked out once, kept in the memo `_JOINS` (at most
96 R^2 entries for R rows) and looked up after that. A disc's normal points
toward its corner for a triangle and toward vertex 0 for a quad, so the two
discs bounding an arc disagree in orientation when the gluing permutation is
even, flipped once per quad that faces away from the arc's corner (see
`_arc_run_templates`). Each arc joins its two discs, with that parity bit,
in a union-find that links the smaller set under the larger, so its finds
only read and stay within log2 of the disc count; it yields the components
and orientability, and with the edge weights and the disc counts
chi = V - E + F, the weights and quad count of registry rows read off
per-row byte tables too. The result is a small summary cached on the
surface. Computing it is the surface's one
validation: no negative count and at most one quad type per tetrahedron,
which the registry guarantees for census rows and `_disc_complex` checks
for other coordinates, and the same arc count on the two sides of every
triangle-class corner, checked as a triangle class's arcs are worked out;
that is the matching equations, and the same as one weight per edge class.
`split_components` and `reconstruct` read the summary; the parts that
`split_components` returns are swept only when their own summary is first
read, so the census sweeps only the parts it keeps. Census entries with
equal summaries share one report.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from .errors import InternalLinkError, MatchingViolationError, NotASurfaceError
from .spine import _HAS_ONE_GERM_FACE, _HAS_THREE_GERM_FACE, SubPolyhedron, dual_spine
from .spine import enumerate_simple_subpolyhedra, germ_patterns
from .triangulation import ALL_PERMS, EDGE_PAIRS, FACE_VERTS, Triangulation

# Normal coordinates are flat, 7 per tetrahedron t: the triangle cutting off
# corner v at 7t + v, then the quad of type k at 7t + 4 + k. Quad type k
# separates the edge {0, k+1} from the opposite edge.
QTYPE_OF_PAIR: dict[tuple[int, int], int] = {
    (0, 1): 0, (2, 3): 0,
    (0, 2): 1, (1, 3): 1,
    (0, 3): 2, (1, 2): 2,
}


class NormalTables(NamedTuple):
    """Flat lookup tables that read normal coordinates on one triangulation:
    a reader of the edge-class weights and one gluing template per triangle
    class; none grows with the surface."""

    # reads the weight of each edge class at its smallest slot off a
    # sequence of weights per edge slot 6t + p, as a tuple
    class_weights: Callable[[Sequence[int]], tuple[int, ...]]
    # per triangle class: (representative tetrahedron, other tetrahedron,
    # template 24 f + i into _ARC_RUNS), where f is the representative face
    # and ALL_PERMS[i] carries its vertex labels to the other side's
    triangle_templates: tuple[tuple[int, int, int], ...]


def _arc_run_templates() -> tuple[tuple[tuple[int, int, int, int, int], ...], ...]:
    """The arc runs of one triangle class, per gluing template.

    A normal arc is named (triangle class, corner, depth): the corner is read
    on the representative side of the triangle class, and the depth counts
    the arcs between it and that corner. Template 24 f + i is the triangle
    class whose representative side is face f, glued by phi = ALL_PERMS[i];
    it holds one run per corner v of f, in ascending order: offsets (a, b, c,
    d) within the two tetrahedra's 7 coordinates, with arc count coords[a] +
    coords[b] on the representative side and coords[c] + coords[d] on the
    other, where a and c are triangles and b and d quads; then 3 bits: bit 0
    when the quad on the representative side faces away from the corner
    (neither v nor f is 0), bit 1 when the one on the other side does
    (neither phi v nor phi f is 0), and bit 2 when phi is even.

    A disc is oriented by its tetrahedron's vertex order and its normal,
    which points toward the corner for a triangle and toward the side that
    holds vertex 0 for a quad. The arc at corner v of face f, read from edge
    vx to edge vy, has frame (v, x, y, f) on the representative side and
    (phi v, phi x, phi y, phi f) on the other, whose signs differ by phi's:
    the two discs bounding an arc disagree exactly when phi is even, flipped
    once for each quad that faces away. Outward from the corner come the
    triangle copies, then the quad copies, reversed if the quad faces away.
    """
    templates = []
    for f in range(4):
        for phi in ALL_PERMS:
            even = sum(phi[u] > phi[v] for u, v in EDGE_PAIRS) % 2 == 0
            runs = []
            for v in FACE_VERTS[f]:
                pv, pf = phi[v], phi[f]
                bits = (v * f != 0) | (pv * pf != 0) << 1 | even << 2
                qa = 4 + QTYPE_OF_PAIR[(min(v, f), max(v, f))]
                runs.append((v, qa, pv, 4 + QTYPE_OF_PAIR[(min(pv, pf), max(pv, pf))], bits))
            templates.append(tuple(runs))
    return tuple(templates)


# the offsets within one tetrahedron's 7 coordinates of the two triangles
# and two quads meeting each edge slot, whose counts sum to its weight
_WEIGHT_OFFSETS: tuple[tuple[int, int, int, int], ...] = tuple(
    (u, v, 4 + (QTYPE_OF_PAIR[(u, v)] + 1) % 3, 4 + (QTYPE_OF_PAIR[(u, v)] + 2) % 3)
    for u, v in EDGE_PAIRS
)
_ARC_RUNS = _arc_run_templates()


def _slot_weights(c: Sequence[int]) -> list[int]:
    """The weight of each edge slot 6t + p of the flat coordinates c."""
    return [
        c[i + a] + c[i + b] + c[i + x] + c[i + y] for i in range(0, len(c), 7) for a, b, x, y in _WEIGHT_OFFSETS
    ]


def build_normal_tables(tr: Triangulation) -> NormalTables:
    """The tables of tr; read them through tr._normal_tables, which caches them."""
    reps = [ec.rep for ec in tr.edge_classes]
    # itemgetter of one index returns the item, not a 1-tuple
    class_weights = itemgetter(*reps) if len(reps) > 1 else lambda w: (w[reps[0]],)
    triangle_templates = tuple(
        (s >> 2, t2, 24 * (s & 3) + k) for s, (t2, f2, k) in enumerate(tr._glue) if s < 4 * t2 + f2
    )
    return NormalTables(class_weights, triangle_templates)


class NormalSurface:
    """Normal coordinates of one normal isotopy class.

    Stored flat, 7 per tetrahedron (see QTYPE_OF_PAIR); `coords` is the flat
    tuple of ints, and `tri` and `quad` are per-tetrahedron views of the same
    numbers. The constructor takes the flat coordinates as given, and keeps
    them as given when they are bytes, as a census surface's are, and as a
    tuple otherwise; the three views build their tuples on each read. The
    topology summary, computed on first use and kept, is what validates the
    coordinates. Instances are immutable.
    """

    __slots__ = ("triangulation", "_coords", "provenance", "_summary")

    def __init__(
        self,
        triangulation: Triangulation,
        coords: Sequence[int],
        provenance: tuple[str, int],  # ("I" | "II" | "external", face bitmask)
    ) -> None:
        object.__setattr__(self, "triangulation", triangulation)
        object.__setattr__(self, "_coords", coords if type(coords) is bytes else tuple(coords))
        object.__setattr__(self, "provenance", provenance)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    @property
    def coords(self) -> tuple[int, ...]:
        return tuple(self._coords)

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
    def is_trivial(self) -> bool:
        c = self._coords
        return not (any(c[4::7]) or any(c[5::7]) or any(c[6::7]))


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
    simple subpolyhedron allows (`spine._HAS_ONE_GERM_FACE`). Otherwise the
    corners joined by edges outside Q form the regions of the tetrahedron
    minus Q, and the boundary of Q's neighbourhood has one disc per region:
    the triangle at a lone corner, the quad separating a pair of corners,
    the triangle at the corner a triple leaves out, and nothing for all four.
    """
    if _HAS_ONE_GERM_FACE[pattern]:
        return None
    region = list(range(4))  # a label per corner, shared within a region
    for p, (u, v) in enumerate(EDGE_PAIRS):
        if not pattern >> p & 1:
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
# of it, as 7 bytes; empty for a pattern no simple subpolyhedron has, and a
# type I row is empty where a face holds three germs, a pattern no surface has
_TYPE_II_ROWS = tuple(bytes(_type_II_row(pattern) or ()) for pattern in range(64))
_TYPE_I_ROWS = tuple(
    b"" if _HAS_THREE_GERM_FACE[p] else bytes(k // 2 for k in row)
    for p, row in enumerate(_TYPE_II_ROWS)
)


# the row id of a row outside the registry
_OUTSIDE = 255


def _row_registry(
    tables: Sequence[Sequence[Sequence[int]]],
) -> tuple[dict[tuple[int, ...], int], tuple[bytes, ...]]:
    """Number the distinct nonempty rows of the tables, in order of first
    appearance, checking each once: no negative count and at most one quad
    type. Returns each row's id, and per table a 256-byte translation from
    index to row id, _OUTSIDE where the row is empty."""
    ids: dict[tuple[int, ...], int] = {}
    translations = []
    for table in tables:
        for row in map(tuple, table):
            if row and row not in ids:
                if min(row) < 0 or sum(k > 0 for k in row[4:]) > 1:
                    raise ValueError(f"row {row} is not a normal surface's")
                ids[row] = len(ids)
        translations.append(
            bytes(ids.get(tuple(row), _OUTSIDE) for row in table).ljust(256, bytes([_OUTSIDE]))
        )
    return ids, tuple(translations)


# The registry: each row a type I or II surface can hold, checked once here,
# so the sweep of a census surface needs no per-surface check of its counts.
# _ROW_DISCS translates a row id to the row's disc count.
_ROW_ID, (_TYPE_I_IDS, _TYPE_II_IDS) = _row_registry((_TYPE_I_ROWS, _TYPE_II_ROWS))
_ROW_DISCS = bytes(map(sum, _ROW_ID)).ljust(256, b"\0")
# per row id, the weights of the row's 6 edge slots, and a translation from
# row id to the row's quad count: what the sweep of a surface all of whose
# rows are registry rows reads its edge weights and arc count from
_ROW_SLOT_WEIGHTS = tuple(bytes(_slot_weights(row)) for row in _ROW_ID)
_ROW_QUADS = bytes(sum(row[4:]) for row in _ROW_ID).ljust(256, b"\0")
# per kind of census surface, its row table and the row id of each pattern
_ROWS = {"I": (_TYPE_I_ROWS, _TYPE_I_IDS), "II": (_TYPE_II_ROWS, _TYPE_II_IDS)}

# The arcs of a triangle class, as _arc_joins gives them, by its gluing
# template, the row id on its representative side and the row id on the
# other, packed as template << 16 | id << 8 | id. The sweep fills it as it
# meets registry rows, so with R registry rows it holds at most 96 R^2
# entries. It lives as long as the process, so the join triples and the
# tuples of them it holds are shared through _INTERNED, one copy of each:
# after `verify existence --seeds 40`, 2,844 keys share 426 distinct values.
_JOINS: dict[int, tuple[tuple[int, int, int], ...] | None] = {}
_INTERNED: dict[tuple, tuple] = {}


def _census_surface(tr: Triangulation, faces: int, patterns: bytes, kind: str) -> NormalSurface:
    """The checked surface of kind "I" or "II" of the face mask faces, swept
    as it is built: each tetrahedron holds the row of its pattern, read from
    patterns, the set of its edge slots whose dual face is in faces."""
    rows, ids = _ROWS[kind]
    coords = b"".join(map(rows.__getitem__, patterns))
    if len(coords) < 7 * tr.n:
        t = next(t for t, pattern in enumerate(patterns) if not rows[pattern])
        if _HAS_ONE_GERM_FACE[patterns[t]]:
            slots = [p for p in range(6) if patterns[t] >> p & 1]
            raise InternalLinkError(f"germ slots {slots} form no admissible link shape")
        raise InternalLinkError(f"surface subpolyhedron has a germ count of 3 in tetrahedron {t}")
    ns = NormalSurface(tr, coords, (kind, faces))
    row_ids = patterns.translate(ids)
    object.__setattr__(ns, "_summary", _sweep(ns, row_ids, row_ids.translate(_ROW_DISCS)))
    return ns


def type_I_surface(tr: Triangulation, q: SubPolyhedron) -> NormalSurface:
    """The surface subpolyhedron Q of tr's dual spine, in normal coordinates."""
    if not q.is_surface:
        raise NotASurfaceError("subpolyhedron has a germ count of 3 at some edge")
    if q.is_empty:
        raise NotASurfaceError("the empty subpolyhedron has no type I surface")
    return _census_surface(tr, q.faces, germ_patterns(dual_spine(tr), q.faces), "I")


def type_II_surface(tr: Triangulation, q: SubPolyhedron) -> NormalSurface:
    """Boundary of a small regular neighborhood of the subpolyhedron Q of
    tr's dual spine."""
    if q.is_empty:
        raise ValueError("type II surface needs a nonempty subpolyhedron")
    return _census_surface(tr, q.faces, germ_patterns(dual_spine(tr), q.faces), "II")


class _Topology(NamedTuple):
    """What one pass over the disc complex of a surface finds."""

    weights: tuple[int, ...]  # intersection count per edge class
    chi: int
    orientable: bool
    components: int
    # coordinates of each component in order of first disc, when there are two or more
    parts: tuple[tuple[int, ...], ...] | None


def _disc_complex(ns: NormalSurface) -> _Topology:
    """Validate coordinates from outside the census, then sweep them.

    The coordinates are a normal surface when there are 7 per tetrahedron
    and three conditions hold, checked in this order: no count is negative,
    no tetrahedron holds two quad types, and the two sides of every
    triangle-class corner hold the same number of arcs (the matching
    equations). The length and the first condition are checked here over the
    whole vector. Each tetrahedron's row is then looked up in the registry,
    whose rows passed the first two checks at import; the quad check runs
    here on the rows outside it. The last condition is checked by the sweep.
    """
    c = ns.coords
    n = ns.triangulation.n
    if len(c) != 7 * n:
        raise MatchingViolationError(f"{len(c)} normal coordinates for {n} tetrahedra")
    if min(c) < 0:
        raise MatchingViolationError(f"negative normal coordinate in {c}")
    row_ids = []
    disc_counts = []
    for i in range(0, len(c), 7):
        row = c[i : i + 7]
        k = _ROW_ID.get(row, _OUTSIDE)
        if k == _OUTSIDE and ((row[4] and row[5]) or (row[4] and row[6]) or (row[5] and row[6])):
            raise MatchingViolationError(f"tetrahedron {i // 7} holds two quad types: {row[4:]}")
        row_ids.append(k)
        disc_counts.append(sum(row))
    return _sweep(ns, bytes(row_ids), disc_counts)


def _arc_joins(
    runs: tuple[tuple[int, int, int, int, int], ...], row_a: Sequence[int], row_b: Sequence[int]
) -> tuple[tuple[int, int, int], ...] | None:
    """The arcs of a triangle class glued by the template runs (see
    _arc_run_templates) whose representative tetrahedron holds row_a and the
    other row_b, in sweep order: per arc, the discs bounding it on each side,
    numbered in coordinate order within their tetrahedron, and 1 when their
    orientations must disagree. None when the two sides of some corner hold
    different numbers of arcs.

    Along each corner the arcs pair arithmetically: the arc at depth j is
    bounded by the j-th disc outward from the corner on each side.
    """
    first_a = [0, *accumulate(row_a)]  # first_a[i]: the first disc of coordinate i
    first_b = [0, *accumulate(row_b)]
    out = []
    for ta, qa, tb, qb, bits in runs:
        ka = row_a[ta]
        kb = row_b[tb]
        depth = ka + row_a[qa]
        if depth != kb + row_b[qb]:
            return None
        for j in range(depth):
            s = bits >> 2
            if j < ka:
                x = first_a[ta] + j
            elif bits & 1:
                x = first_a[qa] + depth - 1 - j
                s ^= 1
            else:
                x = first_a[qa] + j - ka
            if j < kb:
                y = first_b[tb] + j
            elif bits & 2:
                y = first_b[qb] + depth - 1 - j
                s ^= 1
            else:
                y = first_b[qb] + j - kb
            out.append((x, y, s))
    return tuple(out)


def _sweep(ns: NormalSurface, row_ids: bytes, disc_counts: Sequence[int]) -> _Topology:
    """Find edge weights, chi, orientability and components of ns in one
    sweep of its discs, one triangle class at a time, checking the matching.

    Tetrahedron t holds the row with id row_ids[t] (_OUTSIDE for a row
    outside the registry) and disc_counts[t] discs; the counts have passed
    the negative and quad checks. Discs are numbered in coordinate order.
    The arcs across a triangle class come from the memo _JOINS when both
    rows are registry rows, and from _arc_joins, not kept, otherwise. Two
    sides that differ in arc count at some corner fail the matching
    equations, which is the same as one weight per edge class: a slot's
    weight is the sum of the arc counts at its two ends on either face that
    holds it, and conversely the arcs cutting corner v off face {v, a, b}
    number (w_va + w_vb - w_ab) / 2. A failure is reported by edge class
    (see _weight_error).

    Each arc joins its two discs in a union-find with parity: every disc has
    a parent, a root is its own, and a bit says whether the disc's boundary
    orientation, carried across the arcs between them, disagrees with its
    parent's. A find follows the parents to the root, gathering the bits,
    and writes nothing; a join hangs the root of the smaller set under that
    of the larger and adds the sizes, so no find takes more than log2 of the
    disc count steps. A parity clash inside one set means non-orientable.
    Components are discs minus joins, numbered in order of first disc. Every
    intersection point lies on one edge class, so V is the sum of the
    weights; a triangle has 3 arcs and a quad 4, each arc bounding two
    discs, so E = (3T + 4Q) / 2 for T triangles and Q quads; and chi =
    V - E + F. The coordinates are read as ns keeps them, bytes or ints.
    Each class's weight is read at its smallest slot. When every row is a
    registry row, the slot weights and Q are read off the rows' tables
    (_ROW_SLOT_WEIGHTS, _ROW_QUADS) by row id; otherwise they are summed
    from the coordinates.
    """
    c = ns._coords
    tables = ns.triangulation._normal_tables
    offset = [0, *accumulate(disc_counts)]  # offset[t]: the first disc of tetrahedron t
    discs = offset[-1]
    parent = list(range(discs))
    flip = [0] * discs  # 1 when a disc and its parent disagree in orientation
    size = [1] * discs  # discs under each root
    joins = 0
    orientable = True
    for a, b, template in tables.triangle_templates:
        ra = row_ids[a]
        rb = row_ids[b]
        key = template << 16 | ra << 8 | rb
        try:
            pairs = _JOINS[key]
        except KeyError:
            pairs = _arc_joins(_ARC_RUNS[template], c[7 * a : 7 * a + 7], c[7 * b : 7 * b + 7])
            if ra != _OUTSIDE and rb != _OUTSIDE:
                if pairs is not None:
                    pairs = tuple([_INTERNED.setdefault(p, p) for p in pairs])
                    pairs = _INTERNED.setdefault(pairs, pairs)
                _JOINS[key] = pairs
        if pairs is None:
            raise _weight_error(ns)
        base_a = offset[a]
        base_b = offset[b]
        for x, y, s in pairs:
            x += base_a
            y += base_b
            # find both roots, gathering the parities
            while (p := parent[x]) != x:
                s ^= flip[x]
                x = p
            while (p := parent[y]) != y:
                s ^= flip[y]
                y = p
            if x != y:
                joins += 1
                if size[x] < size[y]:
                    x, y = y, x
                parent[y] = x
                flip[y] = s
                size[x] += size[y]
            elif s:
                orientable = False
    components = discs - joins
    if _OUTSIDE in row_ids:
        slot_weights = _slot_weights(c)
        quads = sum(c[4::7]) + sum(c[5::7]) + sum(c[6::7])
    else:
        slot_weights = b"".join(map(_ROW_SLOT_WEIGHTS.__getitem__, row_ids))
        quads = sum(row_ids.translate(_ROW_QUADS))
    weights = tables.class_weights(slot_weights)
    arcs = (3 * discs + quads) // 2

    parts = None
    if components > 1:
        index: dict[int, int] = {}  # component number of each root, in order of first disc
        rows: list[list[int]] = []
        disc = 0
        for i, k in enumerate(c):
            for root in range(disc, disc + k):
                while parent[root] != root:
                    root = parent[root]
                if root not in index:
                    index[root] = len(rows)
                    rows.append([0] * len(c))
                rows[index[root]][i] += 1
            disc += k
        parts = tuple(tuple(r) for r in rows)
    return _Topology(weights, sum(weights) - arcs + discs, orientable, components, parts)


def _weight_error(ns: NormalSurface) -> MatchingViolationError:
    """The error for coordinates whose arc counts differ at some corner: the
    edge class of the first slot whose weight differs from that of its
    class's smallest slot, with every weight the class sees."""
    c = ns.coords
    classes, class_of, _ = ns.triangulation._edge_data
    slot_weights = _slot_weights(c)
    bad = next(
        k for s, k in enumerate(class_of) if slot_weights[s] != slot_weights[classes[k].rep]
    )
    seen = sorted({slot_weights[s] for s in classes[bad].slots})
    return MatchingViolationError(f"edge class {bad} sees weights {seen}")


def surface_name(chi: int, orientable: bool) -> str | None:
    """The closed connected surface of this chi and orientability, when it
    is a sphere, torus, projective plane or Klein bottle; None otherwise."""
    if chi == 2 and orientable:
        return "sphere"
    if chi == 1 and not orientable:
        return "rp2"
    if chi == 0:
        return "torus" if orientable else "klein"
    return None


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


def split_components(ns: NormalSurface) -> list[NormalSurface]:
    """Restrict the coordinates to each connected component of the surface;
    a part's summary is computed when it is first read."""
    parts = ns._topology.parts
    if parts is None:
        return [ns]
    return [NormalSurface(ns.triangulation, part, ns.provenance) for part in parts]


@dataclass(frozen=True, eq=False, slots=True)
class CensusEntry:
    surface: NormalSurface
    report: SurfaceReport


def census(tr: Triangulation) -> list[CensusEntry]:
    """All connected type I and type II normal surfaces, up to normal isotopy.

    Every surface subpolyhedron contributes itself (type I); every nonempty
    simple subpolyhedron contributes its neighborhood boundary (type II).
    Each surface is built from the germ patterns its subpolyhedron kept and
    split into components as it is built, and a component whose normal
    coordinates were already seen is dropped before it is swept. The
    coordinates are keyed as bytes, which sort as the int tuples do, since
    every count is below 256 and the lengths are equal: the entries are
    sorted by coordinate vector. Entries with the same summary share one
    frozen report.
    """
    seen: dict[bytes, NormalSurface] = {}

    def keep(ns: NormalSurface) -> None:
        for comp in split_components(ns):
            # a part's coordinates are a tuple of counts no larger than its
            # surface's, so they fit in bytes too
            seen.setdefault(bytes(comp._coords), comp)

    for q in enumerate_simple_subpolyhedra(dual_spine(tr)):
        if q.is_empty:
            continue
        if q.is_surface:
            keep(_census_surface(tr, q.faces, q.patterns, "I"))
        keep(_census_surface(tr, q.faces, q.patterns, "II"))
    # one report per distinct summary: what reconstruct reads off a surface
    reports: dict[tuple[int, bool, int, int, bool], SurfaceReport] = {}
    entries = []
    for key in sorted(seen):
        ns = seen[key]
        topo = ns._topology
        summary = (topo.chi, topo.orientable, topo.components, max(topo.weights), ns.is_trivial)
        report = reports.get(summary)
        if report is None:
            report = reports[summary] = reconstruct(ns)
        entries.append(CensusEntry(ns, report))
    return entries
