"""Integer homology of the quotient cell complex via Smith normal form."""

from __future__ import annotations

from .errors import NotClosedError
from .triangulation import FACE_VERTS, Triangulation


def _move_pivot(a: list[list[int]], t: int) -> bool:
    """Swap the entry of least nonzero |value| in the block a[t:, t:] to (t, t).

    Ties go to the first in row-major order. False when the block is zero.
    """
    best = pr = pc = 0
    for i in range(t, len(a)):
        for j, x in enumerate(a[i][t:], start=t):
            if x and (not best or abs(x) < best):
                best, pr, pc = abs(x), i, j
    if not best:
        return False
    a[t], a[pr] = a[pr], a[t]
    for row in a:
        row[t], row[pc] = row[pc], row[t]
    return True


def smith_diagonal(matrix: list[list[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form, each dividing the next.

    Pure integer row/column reduction with a deterministic pivot rule
    (smallest absolute value, ties broken by position).
    """
    a = [row[:] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    diag: list[int] = []
    t = 0
    while t < min(rows, cols):
        if not _move_pivot(a, t):
            break
        # clear row and column; repeat while remainders appear
        while True:
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    q = a[i][t] // pivot
                    for j in range(t, cols):
                        a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    q = a[t][j] // pivot
                    for i in range(t, rows):
                        a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        dirty = True
            if not dirty:
                break
            # remainders are smaller than the old pivot; re-pick inside the
            # cleared cross to keep the loop finite
            _move_pivot(a, t)
        # pivot must divide the whole remaining block
        pivot = a[t][t]
        fixed = True
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if a[i][j] % pivot:
                    for k in range(t, cols):
                        a[t][k] += a[i][k]
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            diag.append(abs(pivot))
            t += 1
    return diag


def h1(tri: Triangulation) -> tuple[int, list[int]]:
    """First homology (betti rank, torsion divisors) of a closed triangulation."""
    if not tri.is_closed:
        raise NotClosedError("h1 requires a closed triangulation")
    nv = len(tri.vertex_classes)
    ne = len(tri.edge_classes)

    # boundary of edge classes: head vertex minus tail vertex of the
    # representative slot, mapped to vertex classes
    d1 = [[0] * ne for _ in range(nv)]
    for ec in tri.edge_classes:
        rep = ec.rep
        t, pair = rep // 6, rep % 6
        i, j = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))[pair]
        d1[tri.vertex_class_of(t, j)][ec.index] += 1
        d1[tri.vertex_class_of(t, i)][ec.index] -= 1

    # boundary of triangle classes: the representative face's oriented edge
    # cycle, each edge compared against its class orientation
    tcs = tri.triangle_classes
    d2 = [[0] * len(tcs) for _ in range(ne)]
    for tc in tcs:
        t, f = tc.rep
        a, b, c = FACE_VERTS[f]
        for u, v in ((a, b), (b, c), (c, a)):
            asc = u < v
            sign = tri.edge_sign_of(t, u, v) * (1 if asc else -1)
            d2[tri.edge_class_of(t, u, v)][tc.index] += sign

    rank1 = len(smith_diagonal(d1))
    div2 = smith_diagonal(d2)
    betti = ne - rank1 - len(div2)
    torsion = [d for d in div2 if d > 1]
    return betti, torsion
