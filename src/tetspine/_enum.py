"""Depth-first enumeration kernel for simple subsets of spine faces."""

from __future__ import annotations

from typing import Sequence


def enumerate_masks(num_faces: int, edge_germs: Sequence[tuple[int, int, int]]) -> list[int]:
    """All face bitmasks whose per-edge germ counts avoid the value 1, sorted.

    Each entry of edge_germs lists the 3 faces of one spine edge, with
    multiplicity. Faces are decided in and out in index order; after face i,
    only the edges that i closes (as their highest face) are checked, their
    germ counts now final. The explicit stack of (faces decided, mask) keeps
    at most one branch open per face: num_faces + 1 entries, at any depth.
    """
    closing: list[list[tuple[int, ...]]] = [[] for _ in range(num_faces)]
    for e, germs in enumerate(edge_germs):
        if len(germs) != 3:
            raise ValueError(f"edge {e} has {len(germs)} germs, expected 3")
        closing[max(germs)].append(tuple(1 << f for f in germs))
    out: list[int] = []
    stack = [(0, 0)]
    while stack:
        i, mask = stack.pop()
        if i == num_faces:
            out.append(mask)
            continue
        for m in (mask | 1 << i, mask):
            for a, b, c in closing[i]:
                if (m & a > 0) + (m & b > 0) + (m & c > 0) == 1:
                    break
            else:
                stack.append((i + 1, m))
    out.sort()
    return out
