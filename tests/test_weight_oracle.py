"""The census against normal surfaces found without spines.

The oracle enumerates normal surfaces of bounded edge weight straight from
the coordinates: per tetrahedron, every row with at most one quad type and
every edge weight within the bound, chosen tetrahedron by tetrahedron so that
each edge class sees one weight. An arc count on a face is
(w_a + w_b - w_c) / 2 of the face's edge weights, so equal weights per edge
class make the arc counts on the two sides of every face agree: the matching
equations hold by construction. The enumeration shares no code with the
census; only connectivity is read from the census's disc-complex sweep.
"""

from itertools import product
from math import gcd

from tetspine.lens import build_Tpq
from tetspine.moves import random_pachner_walk
from tetspine.surfaces import NormalSurface, census, reconstruct
from tetspine.triangulation import EDGE_PAIRS

# quad type k separates the edge {0, k+1} from the opposite edge, so it
# misses both of them
QUAD_MISSING = {(0, 1): 0, (2, 3): 0, (0, 2): 1, (1, 3): 1, (0, 3): 2, (1, 2): 2}


def rows_and_weights(bound):
    """(row, weight of each edge slot) for every row within the bound."""
    quads = [(0, 0, 0)] + [
        tuple(count if j == k else 0 for j in range(3))
        for k in range(3)
        for count in range(1, bound + 1)
    ]
    out = []
    for tri, quad in product(product(range(bound + 1), repeat=4), quads):
        weights = tuple(
            tri[u] + tri[v] + sum(quad) - quad[QUAD_MISSING[(u, v)]] for u, v in EDGE_PAIRS
        )
        if max(weights) <= bound:
            out.append((tri + quad, weights))
    return out


def connected_surfaces_within(tr, bound):
    """Coordinates of the nonempty connected normal surfaces of tr with every
    edge weight at most bound."""
    rows = rows_and_weights(bound)
    classes = [[tr.edge_class_of(t, u, v) for u, v in EDGE_PAIRS] for t in range(tr.n)]
    weight = [None] * len(tr.edge_classes)
    chosen = []
    found = []

    def extend(t):
        if t == tr.n:
            found.append(tuple(c for row in chosen for c in row))
            return
        for row, weights in rows:
            fixed_here = []
            fits = True
            for cls, w in zip(classes[t], weights):
                if weight[cls] is None:
                    weight[cls] = w
                    fixed_here.append(cls)
                elif weight[cls] != w:
                    fits = False
                    break
            if fits:
                chosen.append(row)
                extend(t + 1)
                chosen.pop()
            for cls in fixed_here:
                weight[cls] = None

    extend(0)
    surfaces = set()
    for coords in found:
        if not any(coords):
            continue
        ns = NormalSurface(
            tr,
            [coords[i : i + 4] for i in range(0, len(coords), 7)],
            [coords[i + 4 : i + 7] for i in range(0, len(coords), 7)],
            ("external", 0),
        )
        if reconstruct(ns).connected:
            surfaces.add(coords)
    return surfaces


def slot_weights(coords):
    """The set of edge weights the surface meets, read slot by slot."""
    return {
        coords[t + u] + coords[t + v] + sum(coords[t + 4 : t + 7])
        - coords[t + 4 + QUAD_MISSING[(u, v)]]
        for t in range(0, len(coords), 7)
        for u, v in EDGE_PAIRS
    }


def test_census_is_every_connected_surface_of_edge_weight_at_most_2():
    # on the layered lens spaces the type I/II surfaces are exactly these
    total = 0
    for p in range(4, 13):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            tr = build_Tpq(p, q)
            expected = connected_surfaces_within(tr, 2)
            assert {e.surface.coords for e in census(tr)} == expected, (p, q)
            total += len(expected)
    assert total == 548


def test_census_lies_within_the_weight_2_surfaces_of_walk_descendants():
    # after Pachner moves the census can miss connected weight-2 surfaces;
    # every one it misses meets some edge once and some edge twice, and
    # their number is frozen per walk
    surplus = {}
    for p, q in ((7, 2), (8, 3), (12, 5)):
        for seed in range(3):
            tr = random_pachner_walk(build_Tpq(p, q), 8, seed=seed)
            within = connected_surfaces_within(tr, 2)
            found = {e.surface.coords for e in census(tr)}
            assert found <= within, (p, q, seed)
            for coords in within - found:
                assert {1, 2} <= slot_weights(coords), (p, q, seed, coords)
            surplus[(p, q, seed)] = len(within - found)
    assert surplus == {
        (7, 2, 0): 0, (7, 2, 1): 0, (7, 2, 2): 0,
        (8, 3, 0): 1, (8, 3, 1): 14, (8, 3, 2): 0,
        (12, 5, 0): 2, (12, 5, 1): 2, (12, 5, 2): 1,
    }
