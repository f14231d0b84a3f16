"""Triangulations as face pairings of labelled tetrahedra.

A triangulation holds n tetrahedra with vertex labels 0..3; face i is the
triangle opposite vertex i.  Every face slot (tet, face) is glued to exactly
one other slot by a vertex permutation, the pairing is a fixed-point-free
involution, and the two directions carry mutually inverse permutations.
Partially glued and disconnected complexes are rejected, so the underlying
space is a connected closed or ideal pseudo-manifold.

Edge classes come from a signed union-find over the gluings
(`SignedEdgeUnion`), fed each triangle class once by the constructor, the
one place edge classes are built. The dual spine is a spine of the manifold
punctured at its vertices, so the type II surface of the whole spine, a
triangle at every corner, is the union of the vertex links: its components
are the vertex classes, and the disc-complex sweep that summarises any
normal surface (`surfaces`) gives each link's Euler characteristic and
orientability.
"""

from __future__ import annotations

import itertools
import operator
import re
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple

from .errors import GluingError, ParseError, UngluedFaceError

if TYPE_CHECKING:
    from .spine import SpecialSpine
    from .surfaces import NormalTables

Perm = tuple[int, int, int, int]

EDGE_PAIRS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
PAIR_INDEX: dict[tuple[int, int], int] = {p: i for i, p in enumerate(EDGE_PAIRS)}
FACE_VERTS: tuple[tuple[int, int, int], ...] = tuple(
    tuple(v for v in range(4) if v != f) for f in range(4)
)
# the three edges of face f, each as an ascending vertex pair
FACE_EDGES: tuple[tuple[tuple[int, int], ...], ...] = tuple(
    ((a, b), (a, c), (b, c)) for a, b, c in FACE_VERTS
)
# edge_slot's offset of edge {u, v} within its tetrahedron, for either vertex order
_PAIR_OFFSET: tuple[tuple[int, ...], ...] = tuple(
    tuple(PAIR_INDEX.get((min(u, v), max(u, v)), -1) for v in range(4)) for u in range(4)
)


def perm_inverse(p: Perm) -> Perm:
    inv = [0, 0, 0, 0]
    for i in range(4):
        inv[p[i]] = i
    return tuple(inv)


def perm_compose(p: Perm, q: Perm) -> Perm:
    """Permutation applying q first, then p."""
    return (p[q[0]], p[q[1]], p[q[2]], p[q[3]])


ALL_PERMS: tuple[Perm, ...] = tuple(itertools.permutations(range(4)))
# Permutations as indices into ALL_PERMS, which is in lexicographic order, so
# index order is tuple order. _COMPOSE[24 * i + j] is the index of
# perm_compose(ALL_PERMS[i], ALL_PERMS[j]) and _INVERSE[i] that of the inverse.
_PERM_INDEX: dict[Perm, int] = {p: i for i, p in enumerate(ALL_PERMS)}
_COMPOSE: tuple[int, ...] = tuple(
    _PERM_INDEX[perm_compose(p, q)] for p in ALL_PERMS for q in ALL_PERMS
)
_INVERSE: tuple[int, ...] = tuple(_PERM_INDEX[perm_inverse(p)] for p in ALL_PERMS)


def edge_slot(t: int, u: int, v: int) -> int:
    """Index of the undirected edge slot {u, v} of tetrahedron t. Raises
    IndexError unless u and v are two distinct vertices 0..3."""
    offset = PAIR_INDEX.get((u, v) if u < v else (v, u))
    if offset is None:
        raise IndexError(f"no edge slot for the vertex pair ({u}, {v})")
    return t * 6 + offset


# the offsets within its tetrahedron of the three edges of face f, in FACE_EDGES order
FACE_EDGE_OFFSETS: tuple[tuple[int, int, int], ...] = tuple(
    tuple(PAIR_INDEX[e] for e in edges) for edges in FACE_EDGES
)
# _FACE_GLUE[24 * f + k]: for each edge (a, b) of face f, its offset, the
# offset of its image under ALL_PERMS[k], and 1 when the image runs against
# ascending vertex order
_FACE_GLUE: tuple[tuple[tuple[int, int, int], ...], ...] = tuple(
    tuple((PAIR_INDEX[(a, b)], _PAIR_OFFSET[p[a]][p[b]], int(p[a] > p[b])) for a, b in FACE_EDGES[f])
    for f in range(4)
    for p in ALL_PERMS
)


class SignedEdgeUnion:
    """Signed classes of edge slots under face gluings.

    A union-find over the 6n edge slots of n tetrahedra: glue faces one at a
    time, and read the classes at any point between gluings. A root's flip
    is 0; flip[s] is 1 when slot s's ascending vertex order runs against its
    parent's. Feeding each glued face pair once is enough, since its reverse
    direction joins the same slots with the same parities. A find only
    reads: it follows the parents to the root, gathering their flips. A join
    hangs the root of the smaller class under that of the larger, as
    `surfaces._sweep` does for discs, so no slot is more than log2(6n)
    parents from its root.
    """

    __slots__ = ("parent", "flip", "size")

    def __init__(self, n: int) -> None:
        self.parent = list(range(6 * n))
        self.flip = [0] * (6 * n)
        self.size = [1] * (6 * n)  # slots under each root

    def glue(self, t: int, f: int, t2: int, k: int) -> None:
        """Join the three edges of face f of tetrahedron t to their images
        under ALL_PERMS[k] on tetrahedron t2. Raises GluingError when a slot
        is identified with itself reversed."""
        parent, flip, size = self.parent, self.flip, self.size
        for a, b, odd in _FACE_GLUE[24 * f + k]:
            x = 6 * t + a
            while (p := parent[x]) != x:
                odd ^= flip[x]
                x = p
            y = 6 * t2 + b
            while (p := parent[y]) != y:
                odd ^= flip[y]
                y = p
            if x != y:
                if size[x] < size[y]:
                    x, y = y, x
                parent[y] = x
                flip[y] = odd
                size[x] += size[y]
            elif odd:
                raise GluingError(
                    f"edge {EDGE_PAIRS[a]} of tetrahedron {t} is identified with itself reversed"
                )

    def classes(self) -> tuple[list[int], list[int]]:
        """(class_of, sign_of) indexed by edge slot: classes are numbered in
        order of their smallest slot, and sign_of[s] is +1 when slot s's
        ascending vertex order agrees with that smallest slot's."""
        parent, flip = self.parent, self.flip
        slots = len(parent)
        class_of = [0] * slots
        sign_of = [0] * slots
        number = [-1] * slots  # class index of each root, once one of its slots is seen
        rep_flip = [0] * slots  # flip of that class's smallest slot against the root
        count = 0
        for slot in range(slots):
            x = slot
            odd = 0
            while (p := parent[x]) != x:
                odd ^= flip[x]
                x = p
            idx = number[x]
            if idx < 0:
                idx = number[x] = count
                count += 1
                rep_flip[x] = odd
            class_of[slot] = idx
            sign_of[slot] = 1 if odd == rep_flip[x] else -1
        return class_of, sign_of


class EdgeClass(NamedTuple):
    """Orbit of edge slots under the gluing maps.

    slots are global edge-slot indices sorted ascending. The class is
    oriented by the ascending vertex order of its representative slot
    slots[0]; the third table of `Triangulation._edge_data`, indexed by edge
    slot, gives each slot's sign against it.
    """

    index: int
    slots: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.slots)

    @property
    def rep(self) -> int:
        return self.slots[0]


class VertexClass(NamedTuple):
    """Orbit of vertex slots under the gluing maps; classes are numbered in
    order of their smallest slot."""

    index: int
    slots: tuple[int, ...]  # global vertex slots t*4+v, sorted


class TriangleClass(NamedTuple):
    """Glued pair of face slots; perm maps rep-side labels to the other side."""

    index: int
    rep: tuple[int, int]
    other: tuple[int, int]
    perm: Perm


class VertexLinkSurface(NamedTuple):
    """Link of a vertex class: the normal surface of one triangle at each of
    its corners."""

    chi: int
    orientable: bool

    @property
    def is_sphere(self) -> bool:
        return self.chi == 2 and self.orientable


class Triangulation:
    """Immutable closed-face-pairing of n tetrahedra.

    `_glue` holds (t2, f2, index of the permutation in ALL_PERMS) at each face
    slot 4t + f. One pass over it builds the triangle classes, one per glued
    pair in order of its smaller slot, and `_edge_data`: the edge classes, and
    the class and sign of each edge slot.
    """

    def __init__(self, n: int, gluings: Mapping[tuple[int, int], tuple[int, int, Iterable[int]]]) -> None:
        try:
            n = operator.index(n)  # stores a bool as the int it equals
        except TypeError:
            raise GluingError(f"tetrahedron count {n!r} is not an integer") from None
        if n < 1:
            raise GluingError("need at least one tetrahedron")
        size = 4 * n
        # the entries by face slot; the 4n-slot table is built only once they
        # are known to fill it, so a short mapping costs its own size, not n's
        glued: dict[int, tuple[int, int, int]] = {}
        for entry in gluings.items():
            try:
                (t, f), (t2, f2, perm) = entry
                perm = tuple(perm)
            except (TypeError, ValueError):
                msg = f"gluing entry {entry[0]!r}: {entry[1]!r} is not (t, f): (t2, f2, permutation)"
                raise GluingError(msg) from None
            # a slot number that is not an int (a bool is) raises TypeError
            # below, at the latest in `| 0`, which stores a bool as its int
            try:
                if not (0 <= t < n and 0 <= f < 4):
                    raise GluingError(f"face slot ({t},{f}) out of range")
                if not (0 <= t2 < n and 0 <= f2 < 4):
                    raise GluingError(f"target slot ({t2},{f2}) out of range for ({t},{f})")
                try:
                    k = _PERM_INDEX.get(perm)
                except TypeError:  # an entry that cannot be hashed
                    k = None
                if k is None:
                    raise GluingError(f"invalid permutation {perm} at ({t},{f})")
                if ALL_PERMS[k][f] != f2:
                    raise GluingError(
                        f"permutation {perm} at ({t},{f}) does not carry the face onto ({t2},{f2})"
                    )
                if t2 == t and f2 == f:
                    raise GluingError(f"face slot ({t},{f}) glued to itself")
                s = (4 * t + f) | 0
                if s in glued:
                    raise GluingError(f"face slot ({t},{f}) glued twice")
                glued[s] = (t2 | 0, f2 | 0, k)
            except TypeError:
                raise GluingError(
                    f"gluing ({t!r},{f!r}) -> ({t2!r},{f2!r}): slot numbers must be integers"
                ) from None
        if len(glued) < size:
            unglued = (s for s in range(size) if s not in glued)
            listed = [(s >> 2, s & 3) for s in itertools.islice(unglued, UngluedFaceError.LISTED)]
            raise UngluedFaceError(listed, size - len(glued))
        table = list(map(glued.__getitem__, range(size)))
        for s, (t2, f2, k) in enumerate(table):
            if table[4 * t2 + f2] != (s >> 2, s & 3, _INVERSE[k]):
                raise GluingError(
                    f"gluings at ({s >> 2},{s & 3}) and ({t2},{f2}) are not mutually inverse"
                )
        reached = [False] * n
        reached[0] = True
        stack = [0]
        while stack:
            s = 4 * stack.pop()
            for t2, _, _ in table[s : s + 4]:
                if not reached[t2]:
                    reached[t2] = True
                    stack.append(t2)
        if not all(reached):
            raise GluingError(
                f"tetrahedron {reached.index(False)} cannot be reached from tetrahedron 0:"
                " the gluing table is disconnected"
            )
        # each triangle class goes to the edge union as it is found; the union
        # refuses an edge slot glued to itself reversed, as it has no quotient
        union = SignedEdgeUnion(n)
        triangles: list[TriangleClass] = []
        for s, (t2, f2, k) in enumerate(table):
            if s < 4 * t2 + f2:
                t, f = s >> 2, s & 3
                triangles.append(TriangleClass(len(triangles), (t, f), (t2, f2), ALL_PERMS[k]))
                union.glue(t, f, t2, k)
        class_of, sign_of = union.classes()
        members: list[list[int]] = [[] for _ in range(max(class_of) + 1)]
        for slot, idx in enumerate(class_of):
            members[idx].append(slot)
        self.n = n
        self._glue: tuple[tuple[int, int, int], ...] = tuple(table)
        self.triangle_classes: tuple[TriangleClass, ...] = tuple(triangles)
        edges = tuple([EdgeClass(idx, tuple(m)) for idx, m in enumerate(members)])
        self._edge_data: tuple[tuple[EdgeClass, ...], list[int], list[int]] = (edges, class_of, sign_of)
        # the dual spine, once spine.dual_spine has built it
        self._spine: SpecialSpine | None = None

    def gluing(self, t: int, f: int) -> tuple[int, int, Perm]:
        if not (0 <= t < self.n and 0 <= f < 4):
            raise IndexError(f"no face slot ({t},{f}) in {self.n} tetrahedra")
        t2, f2, k = self._glue[4 * t + f]
        return t2, f2, ALL_PERMS[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triangulation):
            return NotImplemented
        return self._glue == other._glue

    def __hash__(self) -> int:
        return hash(self._glue)

    def __repr__(self) -> str:
        return f"<Triangulation n={self.n}>"

    # ---- identification classes -------------------------------------------------

    @property
    def edge_classes(self) -> tuple[EdgeClass, ...]:
        return self._edge_data[0]

    def edge_class_of(self, t: int, u: int, v: int) -> int:
        if not 0 <= t < self.n:
            raise IndexError(f"no edge slot ({t},{u},{v}) in {self.n} tetrahedra")
        return self._edge_data[1][edge_slot(t, u, v)]

    @cached_property
    def _vertex_data(self) -> tuple[tuple[VertexClass, ...], tuple[VertexLinkSurface, ...]]:
        # The dual spine punctures the manifold at its vertices, so the
        # boundary of its regular neighbourhood, the type II surface of the
        # whole spine (germ pattern 63 in every tetrahedron), is the union of
        # the vertex links. Its discs are numbered in slot order, so its
        # components, in order of first disc, are the vertex classes in order
        # of smallest slot; a link's triangles are its class's vertex slots,
        # all 4n of them when there is one class. That surface is built in a
        # module that imports this one.
        from .surfaces import NormalSurface, _census_surface

        whole = _census_surface(self, (1 << len(self.edge_classes)) - 1, b"\x3f" * self.n, "II")
        topo = whole._topology
        if topo.parts is None:
            link = VertexLinkSurface(topo.chi, topo.orientable)
            return (VertexClass(0, tuple(range(4 * self.n))),), (link,)
        links = [NormalSurface(self, p, whole.provenance) for p in topo.parts]
        classes = tuple(
            VertexClass(i, tuple(4 * t + v for t, row in enumerate(lk.tri) for v in range(4) if row[v]))
            for i, lk in enumerate(links)
        )
        return classes, tuple(VertexLinkSurface(lk._topology.chi, lk._topology.orientable) for lk in links)

    @property
    def vertex_classes(self) -> tuple[VertexClass, ...]:
        return self._vertex_data[0]

    @property
    def vertex_links(self) -> tuple[VertexLinkSurface, ...]:
        """Link surface of each vertex class, in the order of vertex_classes."""
        return self._vertex_data[1]

    def triangle_class_of(self, t: int, f: int) -> int:
        if not (0 <= t < self.n and 0 <= f < 4):
            raise IndexError(f"no face slot ({t},{f}) in {self.n} tetrahedra")
        return next(tc.index for tc in self.triangle_classes if (t, f) in (tc.rep, tc.other))

    @cached_property
    def _normal_tables(self) -> NormalTables:
        # the tables are built where normal coordinates are defined; that
        # module imports this one, hence the import here
        from .surfaces import build_normal_tables

        return build_normal_tables(self)

    @property
    def is_closed(self) -> bool:
        return all(lk.is_sphere for lk in self.vertex_links)

    @property
    def kind(self) -> str:
        return "closed" if self.is_closed else "ideal"

    def euler_characteristic(self) -> int:
        """V - E + F - T, with F = 2T triangle classes."""
        return len(self.vertex_classes) - len(self.edge_classes) + self.n

    # ---- isomorphism ---------------------------------------------------------------

    @cached_property
    def canonical_form(self) -> tuple[int, ...]:
        """Lexicographically minimal relabeled gluing table.

        The minimum is taken over the keys that `_relabeled_keys` gives for
        each of the 24n relabelings (start, p0), each compared with the best
        so far as its keys are produced. A relabeling that ties to the end
        replaces the best with an equal list. The winning keys are expanded
        back into the tuple (n, k, f2, q0, q1, q2, q3, ...) of their
        6-tuples.

        Two triangulations are isomorphic exactly when their forms are
        equal, but `is_isomorphic_to` does not compare forms: the minimum
        tries all 24n relabelings, on each side, while `is_isomorphic_to`
        encodes one side once and stops at the first relabeling of the
        other side that matches it.
        """
        glue = self._glue
        best: list[int] | None = None
        for start in range(self.n):
            for p0 in range(24):
                keys = _relabeled_keys(glue, start, p0, best)
                if keys is not None:
                    best = keys
        out = [self.n]
        for key in best:
            rest, q = divmod(key, 24)
            out.extend(divmod(rest, 4))
            out.extend(ALL_PERMS[q])
        return tuple(out)

    def is_isomorphic_to(self, other: Triangulation) -> bool:
        """Whether a renumbering of other's tetrahedra, with a vertex map for
        each, carries other's gluing table onto this one.

        This table is encoded once, from tetrahedron 0 with the identity
        vertex map. A relabeling of a connected table is fixed by its start
        and the start's vertex map, and its 4n keys fix the relabeled table,
        so the two are isomorphic exactly when one of other's 24n
        relabelings gives the same keys. Each is dropped at its first key
        that differs, and the first full match ends the search. A relabeling
        keeps the degrees of the edge classes, so tables whose sorted
        degrees differ are refused before the search.
        """
        degrees = [sorted(ec.degree for ec in x.edge_classes) for x in (self, other)]
        if self.n != other.n or degrees[0] != degrees[1]:
            return False
        target = _relabeled_keys(self._glue, 0, 0)
        glue = other._glue
        for start in range(other.n):
            for p0 in range(24):
                if _relabeled_keys(glue, start, p0, target, True) is not None:
                    return True
        return False


def _relabeled_keys(
    glue: tuple[tuple[int, int, int], ...],
    start: int,
    p0: int,
    ref: list[int] | None = None,
    exact: bool = False,
) -> list[int] | None:
    """The keys of one relabeling of a gluing table.

    glue is `Triangulation._glue`. The relabeling gives tetrahedron start the
    number 0 and the vertex map ALL_PERMS[p0] (old label -> new); the other
    tetrahedra are numbered in breadth-first order of first contact, each
    taking the vertex map that makes its first gluing the identity. The
    faces are written tetrahedron by tetrahedron in the new numbering, and
    within one in the order of their new labels, each as the 6-tuple
    (k, f2, q0, q1, q2, q3): the number of the tetrahedron it is glued to,
    the new label of the face there and the relabeled gluing permutation q.
    A face is encoded as the one integer key (k * 4 + f2) * 24 + the index
    of q in ALL_PERMS. Since f2 < 4 and ALL_PERMS is in lexicographic
    order, keys compare as the 6-tuples do. The table is connected, so
    every relabeling gives 4n keys.

    With ref, each key is compared with ref's key at the same place as it
    is produced, and None is returned in place of the keys where the
    relabeling is abandoned. With exact, that is at the first key that
    differs, so only keys equal to ref are returned. Without, it is at the
    first key above ref's, and after the first key below ref's the rest are
    taken without comparison, so only keys at most ref are returned.
    """
    n = len(glue) // 4
    vmap = [-1] * n  # vertex map of each tetrahedron, old label -> new, as an index
    number = [0] * n  # its new number, once vmap is set
    vmap[start] = p0
    order = [start]
    keys: list[int] = []
    tied = ref is not None
    for t in order:
        mt = vmap[t]
        mt_inv = _INVERSE[mt]
        for f in ALL_PERMS[mt_inv]:
            t2, f2, phi = glue[4 * t + f]
            m2 = vmap[t2]
            if m2 < 0:
                number[t2] = len(order)
                m2 = vmap[t2] = _COMPOSE[24 * mt + _INVERSE[phi]]
                order.append(t2)
            key = (number[t2] * 4 + ALL_PERMS[m2][f2]) * 24 + _COMPOSE[
                24 * m2 + _COMPOSE[24 * phi + mt_inv]
            ]
            if tied:
                b = ref[len(keys)]
                if key != b:
                    if exact or key > b:
                        return None
                    tied = False
            keys.append(key)
    return keys


# ---- text format --------------------------------------------------------------------


def _ascii_int(text: str, message: str, lineno: int, col: int) -> int:
    """int(text), refusing all but ASCII decimal digits: no sign, no underscore."""
    try:
        if text.isascii() and text.isdigit():
            return int(text)
    except ValueError:  # more digits than int() reads
        pass
    raise ParseError(message, lineno, col)


def parse_triangulation(text: str) -> Triangulation:
    """Parse the gluing-table text format.

    Lines, ended by LF, CR LF or a lone CR: optional `# comment`, one
    `tets: N` header, then one `g <tet> <face> <tet'> <face'> <p0p1p2p3>` line
    per glued slot direction. Other characters that str.splitlines() breaks
    at, such as U+0085 or U+2028, stay within their line.
    Both directions of every gluing must be present and mutually inverse, so
    a file with other than 4N gluing lines is refused before any table of
    size N is built. An error names the line and the column of the token at
    fault, or of the line's first token when the line as a whole is.
    """
    n: int | None = None
    header = 0
    gluings: dict[tuple[int, int], tuple[int, int, Perm]] = {}
    for lineno, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        spans = [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", raw.split("#", 1)[0])]
        if not spans:
            continue
        cols, tokens = zip(*spans)
        if tokens[0] == "tets:":
            if n is not None:
                raise ParseError("duplicate tets: header", lineno, cols[0])
            if len(tokens) != 2:
                raise ParseError("tets: header takes one count", lineno, cols[0])
            n = _ascii_int(tokens[1], f"bad tetrahedron count {tokens[1]!r}", lineno, cols[1])
            if n < 1:
                raise ParseError("tetrahedron count must be positive", lineno, cols[1])
            header = lineno
            continue
        if tokens[0] == "g":
            if n is None:
                raise ParseError("gluing line before tets: header", lineno, cols[0])
            if len(tokens) != 6:
                raise ParseError("gluing line needs 5 fields after g", lineno, cols[0])
            t, f, t2, f2 = (
                _ascii_int(x, "gluing fields must be integers", lineno, col)
                for col, x in zip(cols[1:5], tokens[1:5])
            )
            word = tokens[5]
            if len(word) != 4 or sorted(word) != list("0123"):
                raise ParseError(f"bad permutation {word!r}", lineno, cols[5])
            if (t, f) in gluings:
                raise ParseError(f"duplicate gluing for slot ({t},{f})", lineno, cols[1])
            gluings[(t, f)] = (t2, f2, tuple(int(c) for c in word))
            continue
        raise ParseError(f"unrecognized line {tokens[0]!r}", lineno, cols[0])
    if n is None:
        raise ParseError("missing tets: header", 0, 0)
    if len(gluings) != 4 * n:
        raise ParseError(
            f"{n} tetrahedra need {4 * n} gluing lines, found {len(gluings)}", header, 1
        )
    return Triangulation(n, gluings)


def serialize_triangulation(tri: Triangulation, comment: str | None = None) -> str:
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"# {part}")
    lines.append(f"tets: {tri.n}")
    for t in range(tri.n):
        for f in range(4):
            t2, f2, perm = tri.gluing(t, f)
            word = "".join(str(x) for x in perm)
            lines.append(f"g {t} {f} {t2} {f2} {word}")
    return "\n".join(lines) + "\n"
