"""Bistellar 2-3 and 3-2 moves, and seeded random move walks.

Both moves retriangulate a ball. Each vertex of the ball gets a name, its
place in the ball, and every gluing follows from one rule: faces with the
same three names are glued, vertex to vertex by name. A new face whose names
are those of a removed boundary face takes over that face's gluing. The
removed tetrahedra go, survivors are shifted down and the new tetrahedra are
appended at the end, so results are deterministic functions of the input.
"""

from __future__ import annotations

from typing import Iterator

from .errors import MoveNotApplicableError
from .triangulation import EDGE_PAIRS, FACE_VERTS, Perm, Triangulation, perm_inverse

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Tiny deterministic PRNG (splitmix-style 64-bit state update)."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n


def _key(names: tuple[int, ...], f: int) -> int:
    """Face f of a tetrahedron whose vertices have these names, as the
    bitmask of the face's three names."""
    return (1 << names[0] | 1 << names[1] | 1 << names[2] | 1 << names[3]) ^ 1 << names[f]


def _carry(src: tuple[int, ...], f: int, dst: tuple[int, ...], f2: int) -> Perm:
    """The gluing of face f of src onto face f2 of dst, vertex to vertex by name."""
    return tuple([f2 if v == f else dst.index(src[v]) for v in range(4)])


def _retriangulate(
    tri: Triangulation, old: dict[int, tuple[int, ...]], new: list[tuple[int, ...]]
) -> Triangulation:
    """Replace the tetrahedra in `old` by those in `new`.

    old[t] names removed tetrahedron t's vertices 0..3, and new[j] the j-th
    new tetrahedron's. New faces with the same names are glued to each
    other; a new face with a removed face's names takes over its gluing,
    carried through the partner's names when that tetrahedron goes too.
    """
    number = {t: i for i, t in enumerate(t for t in range(tri.n) if t not in old)}
    k = len(number)
    gluings: dict[tuple[int, int], tuple[int, int, Perm]] = {}
    for t, i in number.items():
        for f in range(4):
            t2, f2, psi = tri.gluing(t, f)
            if t2 in number:
                gluings[(i, f)] = (number[t2], f2, psi)
    faces: dict[int, list[tuple[int, int]]] = {}
    for j, names in enumerate(new):
        for f in range(4):
            faces.setdefault(_key(names, f), []).append((j, f))
    old_faces = {_key(names, f): (t, f) for t, names in old.items() for f in range(4)}
    for key, slots in faces.items():
        if len(slots) == 2:
            (j, f), (j2, f2) = slots
            gluings[(k + j, f)] = (k + j2, f2, _carry(new[j], f, new[j2], f2))
            gluings[(k + j2, f2)] = (k + j, f, _carry(new[j2], f2, new[j], f))
            continue
        ((j, f),) = slots
        t, g = old_faces[key]
        t2, g2, psi = tri.gluing(t, g)
        sigma = _carry(new[j], f, old[t], g)
        perm = tuple([psi[v] for v in sigma])
        if t2 in number:
            gluings[(k + j, f)] = (number[t2], g2, perm)
            gluings[(number[t2], g2)] = (k + j, f, perm_inverse(perm))
        else:
            ((j2, f2),) = faces[_key(old[t2], g2)]
            tau = _carry(old[t2], g2, new[j2], f2)
            gluings[(k + j, f)] = (k + j2, f2, tuple([tau[v] for v in perm]))
    return Triangulation(k + len(new), gluings)


def pachner_23(tri: Triangulation, triangle_index: int) -> Triangulation:
    """Replace the two tetrahedra around a triangle class by three.

    The names are the representative side's labels, its apex being the
    face's label f0, and 4 for the other side's apex. The new tetrahedra
    join each edge (x, y) of the triangle to the central edge (f0, 4).
    """
    tcs = tri.triangle_classes
    if not 0 <= triangle_index < len(tcs):
        raise MoveNotApplicableError(f"no triangle class {triangle_index}")
    tc = tcs[triangle_index]
    (t0, f0), (t1, f1) = tc.rep, tc.other
    if t0 == t1:
        raise MoveNotApplicableError(
            f"triangle class {triangle_index} has both sides in tetrahedron {t0}"
        )
    abc = FACE_VERTS[f0]
    names1 = list(perm_inverse(tc.perm))
    names1[f1] = 4
    new = [tuple(w for w in abc if w != z) + (f0, 4) for z in abc]
    return _retriangulate(tri, {t0: (0, 1, 2, 3), t1: tuple(names1)}, new)


def pachner_32(tri: Triangulation, edge_index: int) -> Triangulation:
    """Replace the three tetrahedra around a degree-3 edge class by two.

    The walk around the edge starts at the representative slot, naming its
    tail 3, its head 4 and the other two vertices 0 and 1, and carries the
    names through each gluing. It leaves by the faces opposite names 1 and
    0, naming the vertex it meets 2, then 1. The new tetrahedra are
    (0, 1, 2, 3) and (0, 1, 2, 4).

    Once the class has degree 3 in three distinct tetrahedra, the walk
    needs no check. Each slot of the edge lies on two faces, each glued to
    one other face, so the slots form one cycle, here a 3-cycle over the
    three tetrahedra. Each step leaves by the face it did not enter by, so
    the two steps visit all three, and a third, by the face opposite name
    2, would come back to the start through its face named (1, 3, 4). The
    tail and head would come back as 3 and 4, since the constructor refuses
    an edge glued to itself reversed, and so all of the start's names.
    """
    ecs = tri.edge_classes
    if not 0 <= edge_index < len(ecs):
        raise MoveNotApplicableError(f"no edge class {edge_index}")
    ec = ecs[edge_index]
    if ec.degree != 3:
        raise MoveNotApplicableError(
            f"edge class {edge_index} has degree {ec.degree}, need 3"
        )
    if len({s // 6 for s in ec.slots}) != 3:
        raise MoveNotApplicableError(
            f"edge class {edge_index} revisits a tetrahedron"
        )
    tail, head = EDGE_PAIRS[ec.rep % 6]
    g, kv = (v for v in range(4) if v not in (tail, head))
    names = [0, 0, 0, 0]
    names[tail], names[head], names[g], names[kv] = 3, 4, 0, 1
    t = ec.rep // 6
    old: dict[int, tuple[int, ...]] = {}
    for exit_name, new_name in ((1, 2), (0, 1)):
        old[t] = tuple(names)
        f = names.index(exit_name)
        t, _, psi = tri.gluing(t, f)
        names[f] = new_name
        names = [names[v] for v in perm_inverse(psi)]
    old[t] = tuple(names)
    return _retriangulate(tri, old, [(0, 1, 2, 3), (0, 1, 2, 4)])


def applicable_moves(tri: Triangulation) -> list[tuple[str, int]]:
    """All legal moves, as ("23", triangle index) or ("32", edge index)."""
    out: list[tuple[str, int]] = []
    for tc in tri.triangle_classes:
        if tc.rep[0] != tc.other[0]:
            out.append(("23", tc.index))
    for ec in tri.edge_classes:
        if ec.degree == 3 and len({s // 6 for s in ec.slots}) == 3:
            out.append(("32", ec.index))
    return out


def iter_pachner_walk(tri: Triangulation, steps: int, seed: int) -> Iterator[Triangulation]:
    """Yield the triangulation after each random applicable move.

    Steps with no applicable move leave the triangulation unchanged.
    """
    rng = SplitMix64(seed)
    cur = tri
    for _ in range(steps):
        moves = applicable_moves(cur)
        if moves:
            kind, idx = moves[rng.below(len(moves))]
            cur = pachner_23(cur, idx) if kind == "23" else pachner_32(cur, idx)
        yield cur


def random_pachner_walk(tri: Triangulation, steps: int, seed: int) -> Triangulation:
    cur = tri
    for cur in iter_pachner_walk(tri, steps, seed):
        pass
    return cur
