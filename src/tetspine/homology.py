"""Integer homology of the quotient cell complex via Smith normal form.

The boundary maps are sparse: a column of d2 has at most three nonzero
entries. `sparse_smith_diagonal` first eliminates the +-1 pivots, touching
only the nonzero entries of each pivot's row and column, and runs the dense
`smith_diagonal` on the small block that is left.
"""

from __future__ import annotations

from .errors import NotClosedError
from .triangulation import FACE_EDGE_OFFSETS, Triangulation


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


def sparse_smith_diagonal(rows: list[dict[int, int]]) -> list[int]:
    """smith_diagonal of the matrix whose row i holds the entries rows[i],
    as {column: value}.

    Each +-1 entry that is still present is a pivot: row operations clear
    the rest of its column, column operations then clear its row, and the
    matrix is 1 (+) the block left when the pivot's row and column are
    dropped. Pivots are taken column by column, in the sparsest row, until
    a pass finds none; the remainder, usually small, goes to smith_diagonal.
    The Smith form is unique, so this equals smith_diagonal on the whole
    matrix. The input is not changed.
    """
    rows = [{j: x for j, x in row.items() if x} for row in rows]
    cols: dict[int, set[int]] = {}  # the rows holding each column
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)
    units = 0
    found = True
    while found:
        found = False
        for j in sorted(cols):
            holders = cols.get(j)
            if holders is None:
                continue
            best = None
            for i in holders:
                if rows[i][j] in (1, -1) and (best is None or len(rows[i]) < len(rows[best])):
                    best = i
            if best is None:
                continue
            pivot = rows[best]
            rows[best] = {}
            for c in pivot:
                cols[c].discard(best)
            u = pivot[j]
            for r in list(holders):
                row = rows[r]
                m = row[j] * u  # row r minus m times the pivot row clears column j
                for c, v in pivot.items():
                    x = row.get(c, 0) - m * v
                    if x:
                        if c not in row:
                            cols[c].add(r)
                        row[c] = x
                    else:
                        del row[c]
                        cols[c].discard(r)
            for c in pivot:
                if not cols[c]:
                    del cols[c]
            units += 1
            found = True
    left = sorted(cols)
    where = {j: k for k, j in enumerate(left)}
    dense = []
    for row in rows:
        if row:
            line = [0] * len(left)
            for j, x in row.items():
                line[where[j]] = x
            dense.append(line)
    return [1] * units + smith_diagonal(dense)


def h1(tri: Triangulation) -> tuple[int, list[int]]:
    """First homology (betti rank, torsion divisors) of a closed triangulation.

    The table is connected (the constructor refuses others), so d1 has rank
    V - 1; d2 is read off the slot tables, one sparse row per edge class.
    """
    if not tri.is_closed:
        raise NotClosedError("h1 requires a closed triangulation")
    edges, edge_class_of, edge_sign_of = tri._edge_data
    ne = len(edges)

    # boundary of triangle classes: the representative face's oriented edge
    # cycle, each edge compared against its class orientation
    d2: list[dict[int, int]] = [{} for _ in range(ne)]
    for column, tc in enumerate(tri.triangle_classes):
        t, f = tc.rep
        # the cycle a -> b -> c -> a of face f = (a, b, c) runs (a, c) backwards
        for offset, sign in zip(FACE_EDGE_OFFSETS[f], (1, -1, 1)):
            slot = 6 * t + offset
            row = d2[edge_class_of[slot]]
            row[column] = row.get(column, 0) + sign * edge_sign_of[slot]

    rank1 = len(tri.vertex_classes) - 1
    div2 = sparse_smith_diagonal(d2)
    betti = ne - rank1 - len(div2)
    torsion = [d for d in div2 if d > 1]
    return betti, torsion
