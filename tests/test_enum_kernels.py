import hashlib
import random
import sys

import pytest

from tetspine._enum import enumerate_masks
from tetspine.lens import build_Tpq
from tetspine.moves import random_pachner_walk
from tetspine.spine import dual_spine
from tetspine.triangulation import ALL_PERMS


def random_instance(rng):
    num_faces = rng.randrange(1, 13)
    num_edges = rng.randrange(1, 3 * num_faces + 1)
    germs = [
        (rng.randrange(num_faces), rng.randrange(num_faces), rng.randrange(num_faces))
        for _ in range(num_edges)
    ]
    return num_faces, germs


def brute_force_masks(num_faces, germs):
    def simple(mask):
        return all(sum(mask >> f & 1 for f in edge) != 1 for edge in germs)

    return [mask for mask in range(1 << num_faces) if simple(mask)]


def test_matches_brute_force_on_random_instances():
    # random germ lists repeat a face within one edge far more often than
    # the dual spines of the fixtures do
    rng = random.Random(20260816)
    for _ in range(400):
        num_faces, germs = random_instance(rng)
        assert enumerate_masks(num_faces, germs) == brute_force_masks(num_faces, germs)


def test_masks_are_sorted_and_start_empty():
    sp = dual_spine(build_Tpq(8, 3))
    masks = enumerate_masks(sp.num_faces, list(sp.edge_germs))
    assert masks[0] == 0
    assert masks == sorted(masks)


def test_pure_kernel_rejects_bad_germs():
    with pytest.raises(ValueError):
        enumerate_masks(2, [(0, 1)])
    with pytest.raises(ValueError):
        enumerate_masks(2, [(0, 1, 1, 0)])


def test_wide_chain_yields_every_prefix():
    # faces chained so that face i+1 requires face i: exactly the 64 prefixes
    num_faces = 63
    germs = [(i, i, i + 1) for i in range(num_faces - 1)]
    masks = enumerate_masks(num_faces, germs)
    assert masks == [(1 << k) - 1 for k in range(num_faces + 1)]


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # one choice per face stays open along the chain, 500 deep
    num_faces = 500
    germs = [(i, i, i + 1) for i in range(num_faces - 1)]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(400)
    try:
        masks = enumerate_masks(num_faces, germs)
    finally:
        sys.setrecursionlimit(limit)
    assert masks == [(1 << k) - 1 for k in range(num_faces + 1)]


def test_walk_spine_beyond_brute_force_reach_is_frozen():
    # past brute-force reach: pins taken from a kernel that propagated forced
    # faces; a relabeling renumbers the faces, so only the count is shared
    from test_triangulation import relabel

    tri = random_pachner_walk(build_Tpq(21, 4), 25, seed=5)
    rng = random.Random(7)
    tets = list(range(tri.n))
    rng.shuffle(tets)
    moved = relabel(tri, tets, [rng.choice(ALL_PERMS) for _ in range(tri.n)])
    pins = [
        (tri, "d7ec719c48241a7fc0d72265776e8bfb5742f3c3a7fd679023b372727bb64176"),
        (moved, "9dd93749c15053ac23f38d7804727535c797cb7aa1e548e0cd88dad2cc547903"),
    ]
    for subject, digest in pins:
        sp = dual_spine(subject)
        assert sp.num_faces == 24
        masks = enumerate_masks(sp.num_faces, list(sp.edge_germs))
        assert len(masks) == 18265
        assert hashlib.sha256(" ".join(f"{m:x}" for m in masks).encode()).hexdigest() == digest
