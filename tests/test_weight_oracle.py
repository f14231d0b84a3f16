"""The census against normal surfaces found without spines.

The oracle enumerates normal surfaces of bounded edge weight straight from
the coordinates: per tetrahedron, every row with at most one quad type and
every edge weight within the bound, chosen tetrahedron by tetrahedron so that
each edge class sees one weight. An arc count on a face is
(w_a + w_b - w_c) / 2 of the face's edge weights, so equal weights per edge
class make the arc counts on the two sides of every face agree: the matching
equations hold by construction. The enumeration shares no code with the
census; only connectivity is read from the census's disc-complex sweep, and
the sweep's chi is checked against the linear formula on every surface found.
At edge weight 4 on the layered lens spaces with p <= 9, every connected
surface of chi >= 0 must be in the census or be a vertex link.
The converse runs on the 1- and 2-tetrahedron triangulations: the surface
checks, which compute no matching equation, accept a small vector exactly
when it satisfies the matching equations computed here.
"""

from itertools import product
from math import gcd

from fixtures_data import CUSPED, DOUBLE, RP2LINK, S3_ONE_TET, T41, T52
from tetspine.errors import MatchingViolationError
from tetspine.lens import build_Tpq
from tetspine.moves import random_pachner_walk
from tetspine.surfaces import NormalSurface, census, reconstruct
from tetspine.triangulation import EDGE_PAIRS, parse_triangulation

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


def surface(tr, coords):
    """An unchecked surface with these flat coordinates."""
    return NormalSurface(tr, coords, ("external", 0))


def arc_count(coords, t, f, v):
    """Normal arcs on face f of tetrahedron t cutting off corner v: the
    triangle at v and the quad separating {v, f} from the other corners."""
    return coords[7 * t + v] + coords[7 * t + 4 + QUAD_MISSING[(min(v, f), max(v, f))]]


def matching_equations_hold(tr, coords):
    """Every glued pair of faces sees the same arc count at each corner."""
    return all(
        arc_count(coords, *tc.rep, v) == arc_count(coords, *tc.other, tc.perm[v])
        for tc in tr.triangle_classes
        for v in range(4)
        if v != tc.rep[1]
    )


def linear_chi(tr, coords):
    """Sum of the edge weights - arcs + discs, straight off the coordinates."""
    weights = 0
    for ec in tr.edge_classes:
        slot = ec.slots[0]
        t, (u, v) = slot // 6, EDGE_PAIRS[slot % 6]
        row = coords[7 * t : 7 * t + 7]
        weights += row[u] + row[v] + sum(row[4:]) - row[4 + QUAD_MISSING[(u, v)]]
    arcs = sum(
        arc_count(coords, *tc.rep, v)
        for tc in tr.triangle_classes
        for v in range(4)
        if v != tc.rep[1]
    )
    return weights - arcs + sum(coords)


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
        report = reconstruct(surface(tr, coords))
        assert report.chi == linear_chi(tr, coords), coords
        if report.connected:
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


def test_every_surface_of_edge_weight_at_most_4_with_chi_at_least_0_is_in_the_census():
    # bounded evidence for the paper's count of chi >= 0 surfaces: on the
    # layered lens spaces with p <= 9, doubling the weight bound finds no
    # non-trivial connected chi >= 0 surface that the census misses
    connected = nonnegative = 0
    for p in range(4, 10):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            tr = build_Tpq(p, q)
            found = {e.surface.coords for e in census(tr)}
            links = set()
            for vc in tr.vertex_classes:
                coords = [0] * (7 * tr.n)
                for s in vc.slots:
                    coords[7 * (s // 4) + s % 4] = 1
                links.add(tuple(coords))
            within = connected_surfaces_within(tr, 4)
            connected += len(within)
            for coords in within:
                if linear_chi(tr, coords) >= 0:
                    assert coords in found or coords in links, (p, q, coords)
                    nonnegative += 1
    assert (connected, nonnegative) == (138, 84)


def test_the_surface_checks_accept_exactly_the_matching_solutions():
    # every vector with entries in {0, 1} and at most one quad type per
    # tetrahedron on the 1- and 2-tetrahedron triangulations: the checks run
    # no matching equations, since one weight per edge class implies them
    rows = [
        tri + quad
        for tri in product((0, 1), repeat=4)
        for quad in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    ]
    subjects = [parse_triangulation(t) for t in (T41, T52, S3_ONE_TET, DOUBLE, CUSPED, RP2LINK)]
    subjects += [build_Tpq(p, q) for p, q in ((5, 1), (7, 2), (8, 3))]
    valid = 0
    for tr in subjects:
        assert tr.n <= 2
        for choice in product(rows, repeat=tr.n):
            coords = sum(choice, ())
            try:
                reconstruct(surface(tr, coords))
                accepted = True
            except MatchingViolationError:
                accepted = False
            assert accepted == matching_equations_hold(tr, coords), coords
            valid += accepted
    assert valid >= 20
