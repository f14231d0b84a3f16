"""Backtracking enumeration kernel for simple subsets of spine faces."""

from __future__ import annotations

from typing import Sequence


def enumerate_masks(num_faces: int, edge_germs: Sequence[tuple[int, int, int]]) -> list[int]:
    """All face bitmasks whose per-edge germ counts avoid the value 1.

    Each entry of edge_germs lists the 3 faces incident to one spine edge,
    with multiplicity. Depth-first search over faces in index order, on an
    explicit stack, so the recursion limit does not bound the depth; after
    every decision, constraint propagation forces the moves that are implied
    (a lone undecided germ on an otherwise-empty edge must stay out; if an
    edge already holds exactly one germ, its undecided germs must come in
    when they all belong to a single face) and prunes dead edges.
    """
    num_edges = len(edge_germs)
    germ_faces = [tuple(g) for g in edge_germs]
    edges_of_face: list[list[int]] = [[] for _ in range(num_faces)]
    for e, germs in enumerate(germ_faces):
        if len(germs) != 3:
            raise ValueError(f"edge {e} has {len(germs)} germs, expected 3")
        for f in germs:
            edges_of_face[f].append(e)

    status = [-1] * num_faces  # -1 undecided, 0 out, 1 in
    in_cnt = [0] * num_edges
    und_cnt = [3] * num_edges
    trail: list[int] = []
    mask = 0  # the faces decided in

    def set_face(f: int, val: int, queue: list[int]) -> None:
        nonlocal mask
        status[f] = val
        trail.append(f)
        if val:
            mask |= 1 << f
        for e in edges_of_face[f]:
            und_cnt[e] -= 1
            if val:
                in_cnt[e] += 1
            queue.append(e)

    def decide(f: int, val: int) -> bool:
        queue: list[int] = []
        set_face(f, val, queue)
        qi = 0
        while qi < len(queue):
            e = queue[qi]
            qi += 1
            ic = in_cnt[e]
            uc = und_cnt[e]
            if uc == 0:
                if ic == 1:
                    return False
                continue
            if ic == 1:
                pending = {g for g in germ_faces[e] if status[g] == -1}
                if len(pending) == 1:
                    set_face(pending.pop(), 1, queue)
            elif ic == 0 and uc == 1:
                g = next(gf for gf in germ_faces[e] if status[gf] == -1)
                set_face(g, 0, queue)
        return True

    def undo(mark: int) -> None:
        nonlocal mask
        while len(trail) > mark:
            g = trail.pop()
            val = status[g]
            for e in edges_of_face[g]:
                und_cnt[e] += 1
                if val:
                    in_cnt[e] -= 1
            if val:
                mask &= ~(1 << g)
            status[g] = -1

    out: list[int] = []
    # (face, trail mark) of each choice whose "in" branch is still to be tried
    pending: list[tuple[int, int]] = []
    pos = 0
    alive = True  # the current partial choice is still consistent
    while True:
        if alive:
            while pos < num_faces and status[pos] != -1:
                pos += 1
            if pos < num_faces:
                pending.append((pos, len(trail)))
                alive = decide(pos, 0)
                continue
            out.append(mask)
        if not pending:
            break
        pos, mark = pending.pop()
        undo(mark)
        alive = decide(pos, 1)
    out.sort()
    return out

