"""Depth-first enumeration kernel for simple subsets of spine faces."""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence


def enumerate_masks(
    num_faces: int,
    edge_germs: Sequence[tuple[int, int, int]],
    face_bytes: Sequence[int] | None = None,
) -> list[int] | list[tuple[int, int]]:
    """All face bitmasks whose per-edge germ counts avoid the value 1, sorted.

    Each entry of edge_germs lists the 3 faces of one spine edge, with
    multiplicity. Faces are decided in and out in index order; after face i,
    only the edges that i closes (as their highest face) are checked, their
    germ counts now final. The explicit stack of (faces decided, mask, germs)
    keeps at most one branch open per face: num_faces + 1 entries, at any
    depth.

    With face_bytes, one int per face, each entry is the pair (mask, germs):
    germs is the OR of face_bytes over the mask's faces, one OR per face
    taken in on the stack. Without it, each entry is the mask alone.
    """
    closing: list[list[tuple[int, ...]]] = [[] for _ in range(num_faces)]
    for e, germs in enumerate(edge_germs):
        if len(germs) != 3:
            raise ValueError(f"edge {e} has {len(germs)} germs, expected 3")
        a, b, c = germs
        closing[max(germs)].append((1 << a, 1 << b, 1 << c))
    ors = [0] * num_faces if face_bytes is None else face_bytes
    out: list[tuple[int, int]] = []
    stack = [(0, 0, 0)]
    while stack:
        i, mask, germs = stack.pop()
        if i == num_faces:
            out.append((mask, germs))
            continue
        for m, g in ((mask | 1 << i, germs | ors[i]), (mask, germs)):
            for a, b, c in closing[i]:
                if (m & a > 0) + (m & b > 0) + (m & c > 0) == 1:
                    break
            else:
                stack.append((i + 1, m, g))
    out.sort(key=itemgetter(0))
    return out if face_bytes is not None else [mask for mask, _ in out]
