"""Integer homology of the quotient cell complex via Smith normal form.

The boundary maps are sparse: a column of d2 has at most three nonzero
entries. `sparse_smith_diagonal` is the one elimination. It pivots on the
+-1 entries first, touching only the nonzero entries of each pivot's row
and column; what they leave, usually one short row, is reduced on the
entry of least absolute value.
"""

from __future__ import annotations

from math import gcd

from .errors import NotClosedError
from .triangulation import FACE_EDGE_OFFSETS, Triangulation


def smith_diagonal(matrix: list[list[int]]) -> list[int]:
    """Nonzero diagonal of the Smith normal form, each dividing the next."""
    return sparse_smith_diagonal([{j: x for j, x in enumerate(row) if x} for row in matrix])


def sparse_smith_diagonal(rows: list[dict[int, int]]) -> list[int]:
    """smith_diagonal of the matrix whose row i holds the entries rows[i],
    as {column: value}.

    A pivot u at (r, j) clears the rest of column j by row operations, then
    the rest of row r by column operations, each leaving remainders smaller
    than |u|; once both are clear the matrix is (u) (+) the block left when
    row r and column j are dropped. Pivots are taken column by column, in
    the sparsest row holding +-1, until a pass finds none; then the entry of
    least |value| is the pivot, and the next pass starts over. The diagonal
    of pivots becomes the invariant factors by diag(a, b) ~ diag(gcd, lcm).
    The input is not changed.
    """
    rows = [{j: x for j, x in row.items() if x} for row in rows]
    cols: dict[int, set[int]] = {}  # the rows holding each column
    for i, row in enumerate(rows):
        for j in row:
            cols.setdefault(j, set()).add(i)

    def split(r: int, j: int) -> bool:
        """Pivot on the entry at (r, j); True when it split off, its row and
        column gone."""
        pivot = rows[r]
        rows[r] = {}
        for c in pivot:
            cols[c].discard(r)
        u = pivot[j]
        for i in list(cols[j]):
            row = rows[i]
            m = row[j] // u  # nonzero, as |u| is least: row i minus m times the pivot row
            for c, v in pivot.items():
                x = row.get(c, 0) - m * v
                if x:
                    if c not in row:
                        cols[c].add(i)
                    row[c] = x
                else:
                    del row[c]
                    cols[c].discard(i)
        left = None
        if cols[j]:  # remainders in column j: the pivot row goes back as it was
            left = pivot
        elif u not in (1, -1):  # column j holds u alone: reduce row r mod u
            left = {c: x % u for c, x in pivot.items() if x % u}
            if left:
                left[j] = u
        if left:
            rows[r] = left
            for c in left:
                cols[c].add(r)
        for c in pivot:
            if not cols[c]:
                del cols[c]
        return not left

    units = 0
    big: list[int] = []
    while cols:
        found = False
        for j in sorted(cols):
            holders = cols.get(j)
            if holders is None:
                continue
            best = None
            for i in holders:
                if rows[i][j] in (1, -1) and (best is None or len(rows[i]) < len(rows[best])):
                    best = i
            if best is not None:
                split(best, j)
                units += 1
                found = True
        if not found:
            u, r, j = min((abs(rows[i][c]), i, c) for c, holders in cols.items() for i in holders)
            if split(r, j):
                big.append(u)
    for a in range(len(big)):
        for b in range(a + 1, len(big)):
            g = gcd(big[a], big[b])
            big[a], big[b] = g, big[a] // g * big[b]
    return [1] * units + big


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
