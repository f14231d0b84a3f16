"""The union-find disc-complex sweep against the flood fill it replaced.

`flood_fill_complex` below is the earlier implementation of
`surfaces._disc_complex`: it pairs the arcs the same way, gives every disc a
list of neighbours with a parity bit, and finds the components and
orientability by a flood fill over the discs in index order. It reads its
own tables, `flood_fill_tables`, in the layout the sweep used then: per edge
slot, its class and the four coordinates summing to its weight, checked slot
by slot, and per triangle-class corner ten plain fields, from its own
quad tables and its own disc directions. So it shares no table, and no
orientation rule, with the sweep, which checks the matching corner by
corner. The sweep orients discs by another rule, so its arc parities may
differ from the flood fill's, by one flip per coordinate type. The sweep
must return the same summary, `parts` order included, or raise the same
error, on census surfaces, surfaces of two or more components, sums,
perturbations with negative entries and vectors whose arc counts differ at
exactly one triangle-class corner. Neither gated benchmark workload meets a
surface of two or more components, so this is what guards `parts`.

Type I and II surfaces skip `_disc_complex`: they are swept from their row
ids, with the arcs of each triangle class read from the memo `_JOINS`. The
summary they store must equal the flood fill's too, a key that fails the
matching must fail the same way each time it is met, and rows outside the
registry must never reach the memo.
"""

import random
import time
from itertools import accumulate
from math import gcd

from fixtures_data import CUSPED, DOUBLE, RP2LINK, S3_ONE_TET, T41
from test_triangulation import relabel
from tetspine.cli import main
from tetspine.errors import MatchingViolationError
from tetspine.lens import build_Tpq
from tetspine.moves import random_pachner_walk
from tetspine.spine import dual_spine, enumerate_simple_subpolyhedra, subpolyhedron
from tetspine.surfaces import (
    _ARC_RUNS,
    _JOINS,
    _OUTSIDE,
    _ROW_ID,
    NormalSurface,
    _arc_joins,
    _disc_complex,
    _Topology,
    census,
    type_I_surface,
    type_II_surface,
)
from tetspine.triangulation import (
    ALL_PERMS,
    EDGE_PAIRS,
    FACE_VERTS,
    TriangleClass,
    parse_triangulation,
)

# The flood fill's own quad tables, written out by hand: the quad type of
# each edge pair, and the two edge pairs each quad type separates, the first
# holding vertex 0.
QTYPE_OF_PAIR = {(0, 1): 0, (2, 3): 0, (0, 2): 1, (1, 3): 1, (0, 3): 2, (1, 2): 2}
QSEP = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


def flood_fill_directions():
    """The flood fill's disc directions, per (face, corner): the direction
    of the triangle at the corner, and the direction and order of the quad
    cutting it off."""
    tri_dir = {}
    for v in range(4):
        oa, ob, oc = (u for u in range(4) if u != v)
        tri_dir[(oc, v)] = tri_dir[(oa, v)] = 0
        tri_dir[(ob, v)] = 1
    quad_side = {}
    for (e0, e1), (e2, e3) in QSEP:
        quad_side[(e3, e2)] = (0, 1)
        quad_side[(e0, e1)] = (0, 0)
        quad_side[(e2, e3)] = (1, 1)
        quad_side[(e1, e0)] = (1, 0)
    return tri_dir, quad_side


TRI_DIR, QUAD_SIDE = flood_fill_directions()


def flood_fill_runs(tc):
    """The arc runs of the triangle class tc, one per corner of its
    representative side: (a, b, c, d) with arc count coords[a] + coords[b]
    on the representative side and coords[c] + coords[d] on the other, a and
    c triangles and b and d quads; then (triangle direction, quad direction,
    quad reversed) on the representative side and the same on the other,
    read in the representative labels."""

    def corner(f, v):
        return (v, 4 + QTYPE_OF_PAIR[tuple(sorted((v, f)))], TRI_DIR[(f, v)], *QUAD_SIDE[(f, v)])

    (t0, f0), (t1, f1) = tc.rep, tc.other
    phi = tc.perm
    runs = []
    for v in FACE_VERTS[f0]:
        ta, qa, tri_a, quad_a, rev_a = corner(f0, v)
        tb, qb, tri_b, quad_b, rev_b = corner(f1, phi[v])
        x0, y0 = (u for u in FACE_VERTS[f0] if u != v)
        flip = int(phi[x0] > phi[y0])
        runs.append((
            7 * t0 + ta, 7 * t0 + qa, 7 * t1 + tb, 7 * t1 + qb,
            tri_a, quad_a, rev_a, tri_b ^ flip, quad_b ^ flip, rev_b,
        ))
    return runs


def flood_fill_tables(tr):
    """(weight terms, arc runs) of tr.

    Weight terms: per edge slot, (edge class, four coordinate indices summing
    to its weight). Arc runs: those of each triangle class in turn (see
    flood_fill_runs).
    """
    weight_terms = []
    for slot, cls in enumerate(tr._edge_data[1]):
        u, v = EDGE_PAIRS[slot % 6]
        qt = QTYPE_OF_PAIR[(u, v)]
        base = 7 * (slot // 6)
        weight_terms.append(
            (cls, base + u, base + v, base + 4 + (qt + 1) % 3, base + 4 + (qt + 2) % 3)
        )
    arc_runs = [run for tc in tr.triangle_classes for run in flood_fill_runs(tc)]
    return weight_terms, arc_runs


def flood_fill_arcs(arc_runs, c):
    """Per arc, in run order: the discs bounding it on each side, numbered
    in coordinate order over all of c, and 1 when their directions agree,
    so their orientations disagree."""
    first = [0, *accumulate(c)]
    for ta, qa, tb, qb, da, ea, ra, db, eb, rb in arc_runs:
        ka, la, kb, lb = c[ta], c[qa], c[tb], c[qb]
        depth = ka + la
        # one weight per edge class makes the two sides' arc counts agree
        assert depth == kb + lb
        for j in range(depth):
            if j < ka:
                x = 2 * (first[ta] + j) + da
            else:
                x = 2 * (first[qa] + (la - 1 - (j - ka) if ra else j - ka)) + ea
            if j < kb:
                y = 2 * (first[tb] + j) + db
            else:
                y = 2 * (first[qb] + (lb - 1 - (j - kb) if rb else j - kb)) + eb
            yield x >> 1, y >> 1, (x ^ y ^ 1) & 1


def flood_fill_complex(ns):
    """Edge weights, chi, orientability and components by a flood fill."""
    weight_terms, arc_runs = flood_fill_tables(ns.triangulation)
    c = ns.coords
    if min(c, default=0) < 0:
        raise MatchingViolationError(f"negative normal coordinate in {c}")
    for t in range(ns.triangulation.n):
        if sum(k > 0 for k in c[7 * t + 4 : 7 * t + 7]) > 1:
            raise MatchingViolationError(
                f"tetrahedron {t} holds two quad types: {c[7 * t + 4 : 7 * t + 7]}"
            )

    weights = [None] * len(ns.triangulation.edge_classes)
    for cls, a, b, x, y in weight_terms:
        w = c[a] + c[b] + c[x] + c[y]
        if weights[cls] is None:
            weights[cls] = w
        elif weights[cls] != w:
            seen = {c[a] + c[b] + c[x] + c[y] for k, a, b, x, y in weight_terms if k == cls}
            raise MatchingViolationError(f"edge class {cls} sees weights {sorted(seen)}")

    first = [0, *accumulate(c)]
    discs = first[-1]
    nbrs = [[] for _ in range(discs)]  # per disc: 2 * neighbour + parity
    arcs = 0
    for x, y, parity in flood_fill_arcs(arc_runs, c):
        nbrs[x].append(2 * y | parity)
        nbrs[y].append(2 * x | parity)
        arcs += 1

    # label[x] = 2 * component + side of disc x, or -1 before the fill reaches it
    label = [-1] * discs
    components = 0
    orientable = True
    for x in range(discs):
        if label[x] >= 0:
            continue
        label[x] = 2 * components
        stack = [x]
        while stack:
            y = stack.pop()
            ly = label[y]
            for e in nbrs[y]:
                want = ly ^ (e & 1)
                lz = label[e >> 1]
                if lz < 0:
                    label[e >> 1] = want
                    stack.append(e >> 1)
                elif lz != want:
                    orientable = False
        components += 1

    parts = None
    if components > 1:
        rows = [[0] * len(c) for _ in range(components)]
        for i, k in enumerate(c):
            for x in range(first[i], first[i] + k):
                rows[label[x] >> 1][i] += 1
        parts = tuple(tuple(r) for r in rows)
    return _Topology(tuple(weights), sum(weights) - arcs + discs, orientable, components, parts)


def surface(tr, coords):
    """An unchecked surface with these flat coordinates."""
    return NormalSurface(tr, coords, ("external", 0))


def outcome(sweep, ns):
    try:
        return sweep(ns)
    except MatchingViolationError as exc:
        return str(exc)


def subjects():
    bases = [build_Tpq(p, q) for p, q in ((5, 1), (7, 2), (8, 3), (11, 3), (12, 5), (13, 5))]
    walks = [random_pachner_walk(base, 8, seed=s) for s, base in enumerate(bases[1:5])]
    fixtures = [parse_triangulation(t) for t in (T41, DOUBLE, S3_ONE_TET, RP2LINK, CUSPED)]
    return bases + walks + fixtures


def census_surfaces(tr):
    """Every type I and type II surface of tr, as built, before splitting."""
    out = []
    for q in enumerate_simple_subpolyhedra(dual_spine(tr)):
        if q.is_empty:
            continue
        if q.is_surface:
            out.append(type_I_surface(tr, q))
        out.append(type_II_surface(tr, q))
    return out


def vectors(tr, rng):
    """Coordinate vectors on tr: census surfaces, every type I/II surface
    before splitting, the surface with one triangle at every corner, sums,
    and +-1 perturbations, some with negative entries."""
    found = [e.surface.coords for e in census(tr)]
    found += [ns.coords for ns in census_surfaces(tr)]
    found.append(tuple([1, 1, 1, 1, 0, 0, 0] * tr.n))
    sums = [
        tuple(a + b for a, b in zip(rng.choice(found), rng.choice(found))) for _ in range(20)
    ]
    bumped = []
    for coords in rng.sample(found + sums, min(30, len(found + sums))):
        bump = list(coords)
        bump[rng.randrange(len(bump))] += rng.choice((-1, 1))
        bumped.append(tuple(bump))
    return found + sums + bumped


def test_sweep_agrees_with_the_flood_fill():
    rng = random.Random(5)
    tally = {"vectors": 0, "split": 0, "errors": 0, "negative": 0}
    for tr in subjects():
        for coords in vectors(tr, rng):
            want = outcome(flood_fill_complex, surface(tr, coords))
            assert outcome(_disc_complex, surface(tr, coords)) == want, coords
            tally["vectors"] += 1
            tally["split"] += not isinstance(want, str) and want.parts is not None
            tally["errors"] += isinstance(want, str)
            tally["negative"] += min(coords) < 0
    # every kind of vector is present in numbers, not just once
    assert tally["vectors"] > 1000, tally
    assert min(tally["split"], tally["errors"], tally["negative"]) >= 20, tally


def one_corner_breaks(tr):
    """Census surfaces and the vertex-link surface of tr, each with one
    coordinate moved by one, kept when no count is negative, no tetrahedron
    holds two quad types and the arc counts differ at exactly one
    triangle-class corner; with the index of that corner's arc run."""
    _, arc_runs = flood_fill_tables(tr)
    valid = [e.surface.coords for e in census(tr)] + [(1, 1, 1, 1, 0, 0, 0) * tr.n]
    out = []
    for coords in valid:
        for i in range(len(coords)):
            for step in (1, -1):
                c = list(coords)
                c[i] += step
                quads = c[7 * (i // 7) + 4 : 7 * (i // 7) + 7]
                if c[i] < 0 or sum(k > 0 for k in quads) > 1:
                    continue
                bad = [
                    r for r, (ta, qa, tb, qb, *_) in enumerate(arc_runs)
                    if c[ta] + c[qa] != c[tb] + c[qb]
                ]
                if len(bad) == 1:
                    out.append((tuple(c), bad[0]))
    return out


def test_a_break_at_one_corner_raises_the_flood_fills_error():
    # the sweep checks the matching corner by corner and names the edge
    # class the per-slot weights give; the flood fill checks slot by slot
    count = 0
    corners = set()  # (subject, arc run)
    where = set()  # how far into the sweep the break sits
    for k, tr in enumerate(subjects()):
        for coords, run in one_corner_breaks(tr):
            want = outcome(flood_fill_complex, surface(tr, coords))
            assert want.startswith("edge class"), coords
            assert outcome(_disc_complex, surface(tr, coords)) == want, coords
            count += 1
            corners.add((k, run))
            where.add(run / (6 * tr.n))
    # breaks at the very first corner, before any join, and late in the sweep
    assert count >= 200 and len(corners) >= 8, (count, corners)
    assert min(where) == 0 and max(where) > 0.75, where


def test_parts_keep_the_order_of_first_disc():
    # twice the type II surface of the full spine of the 4-vertex double
    # is eight spheres, each vertex link twice over
    tr = parse_triangulation(DOUBLE)
    full = subpolyhedron(dual_spine(tr), 0x3F)
    twice = tuple(2 * k for k in type_II_surface(tr, full).coords)
    topo = _disc_complex(surface(tr, twice))
    assert topo == flood_fill_complex(surface(tr, twice))
    assert topo.components == 8 and topo.chi == 16 and topo.orientable
    assert sum(map(sum, topo.parts)) == sum(twice)
    # each part's first disc comes after the previous part's
    firsts = [next(i for i, k in enumerate(part) if k) for part in topo.parts]
    assert firsts == sorted(firsts)
    # the vertex-link surfaces of the multi-vertex fixtures split by vertex class
    for text in (DOUBLE, S3_ONE_TET, RP2LINK):
        tr = parse_triangulation(text)
        links = surface(tr, (1, 1, 1, 1, 0, 0, 0) * tr.n)
        topo = _disc_complex(links)
        assert topo == flood_fill_complex(links)
        assert topo.components == len(tr.vertex_classes)


def test_sweep_of_a_large_surface_stays_fast():
    # five parallel vertex links of the 997-tetrahedron T_1000_1: 19,940
    # discs, 19,935 joins and five parts. The bound is about 100 times the
    # sweep's time on a 2-vCPU VM; a join that costs time linear in the disc
    # count would take minutes.
    tr = build_Tpq(1000, 1)
    tr._normal_tables
    links = surface(tr, (5, 5, 5, 5, 0, 0, 0) * tr.n)
    keys = len(_JOINS)
    start = time.perf_counter()
    topo = _disc_complex(links)
    elapsed = time.perf_counter() - start
    # the row is outside the registry, so its joins are not kept
    assert len(_JOINS) == keys
    assert sum(links.coords) == 19940
    assert (topo.components, topo.chi, topo.orientable) == (5, 10, True)
    assert topo.parts == ((1, 1, 1, 1, 0, 0, 0) * tr.n,) * 5
    assert elapsed < 2.0, elapsed


def relabeled_lens_spaces(rng):
    """Every coprime T_(p,q) with 4 <= p <= 9, its tetrahedra and vertices renamed."""
    for p in range(4, 10):
        for q in range(1, p):
            if gcd(p, q) == 1:
                tr = build_Tpq(p, q)
                tets = list(range(tr.n))
                rng.shuffle(tets)
                yield relabel(tr, tets, [rng.choice(ALL_PERMS) for _ in range(tr.n)])


def test_census_summaries_equal_the_flood_fill():
    # the summary type I and II surfaces store comes from their row ids and
    # the memo; the flood fill and _disc_complex read the coordinates alone
    fixtures = [parse_triangulation(t) for t in (CUSPED, DOUBLE, RP2LINK, S3_ONE_TET, T41)]
    count = 0
    for tr in fixtures + list(relabeled_lens_spaces(random.Random(3))):
        for ns in census_surfaces(tr):
            want = flood_fill_complex(surface(tr, ns.coords))
            assert ns._topology == want == _disc_complex(surface(tr, ns.coords)), ns.coords
            count += 1
    assert count >= 150, count


def test_arc_joins_equal_the_flood_fill_on_every_template_and_row_pair():
    # every gluing template against every pair of registry rows, most of
    # which no triangulation here reaches: _arc_joins must fail exactly where
    # some corner's two sides differ in arc count, and otherwise pair the
    # same discs in the same order as the flood fill's own runs. The two
    # orient the discs by different rules, so their parities may differ, but
    # only by one orientation flip per coordinate type; a flip that is the
    # same in every tetrahedron leaves every cycle's parity as it is.
    start = time.perf_counter()
    rows = list(_ROW_ID)
    differ = set()  # (coordinate type of x, of y, parity difference)
    counts = {"None": 0, "arcs": 0}
    for template, runs in enumerate(_ARC_RUNS):
        f, p = divmod(template, 24)
        phi = ALL_PERMS[p]
        ff_runs = flood_fill_runs(TriangleClass(0, (0, f), (1, phi[f]), phi))
        for row_a in rows:
            types_a = [i for i, k in enumerate(row_a) for _ in range(k)]
            for row_b in rows:
                c = row_a + row_b
                got = _arc_joins(runs, row_a, row_b)
                if any(c[ta] + c[qa] != c[tb] + c[qb] for ta, qa, tb, qb, *_ in ff_runs):
                    assert got is None, (template, row_a, row_b)
                    counts["None"] += 1
                    continue
                types_b = [i for i, k in enumerate(row_b) for _ in range(k)]
                want = [(x, y - len(types_a), s) for x, y, s in flood_fill_arcs(ff_runs, c)]
                assert [(x, y) for x, y, _ in got] == [(x, y) for x, y, _ in want]
                for (x, y, s), (_, _, t) in zip(got, want):
                    differ.add((types_a[x], types_b[y], s ^ t))
                counts["arcs"] += len(got)
    # one flip bit per coordinate type that explains every difference
    flips = [
        flip for flip in range(128)
        if all((flip >> a ^ flip >> b ^ d) & 1 == 0 for a, b, d in differ)
    ]
    # the flips are fixed up to turning every disc over at once
    assert len(flips) == 2 and flips[0] ^ flips[1] == 127, (flips, sorted(differ))
    assert counts["None"] > 1000 and counts["arcs"] > 10000, counts
    assert time.perf_counter() - start < 2.0


def first_failing_key(tr, coords):
    """The memo key of the first triangle class, in sweep order, whose two
    sides differ in arc count, read from the flood fill's own tables."""
    _, arc_runs = flood_fill_tables(tr)
    run = next(
        r for r, (ta, qa, tb, qb, *_) in enumerate(arc_runs)
        if coords[ta] + coords[qa] != coords[tb] + coords[qb]
    )
    a, b, template = tr._normal_tables.triangle_templates[run // 3]
    ra = _ROW_ID[coords[7 * a : 7 * a + 7]]
    rb = _ROW_ID[coords[7 * b : 7 * b + 7]]
    return template << 16 | ra << 8 | rb


def test_a_key_that_fails_the_matching_fails_the_same_way_again():
    # a census surface with one tetrahedron's row swapped for another
    # registry row: the memo records the failing key as None on the first
    # lookup, and the lookup that finds the None raises the same error
    count = 0
    for tr in (build_Tpq(7, 2), random_pachner_walk(build_Tpq(8, 3), 6, seed=2)):
        for ns in census_surfaces(tr)[:12]:
            for t in range(tr.n):
                for row in _ROW_ID:
                    coords = ns.coords[: 7 * t] + row + ns.coords[7 * t + 7 :]
                    want = outcome(flood_fill_complex, surface(tr, coords))
                    if not isinstance(want, str):
                        continue
                    assert want.startswith("edge class"), coords
                    key = first_failing_key(tr, coords)
                    _JOINS.pop(key, None)
                    assert outcome(_disc_complex, surface(tr, coords)) == want, coords
                    assert _JOINS[key] is None
                    assert outcome(_disc_complex, surface(tr, coords)) == want, coords
                    count += 1
    assert count >= 100, count


def test_rows_outside_the_registry_add_no_memo_key():
    # census surfaces twice and three times over: only triangle classes
    # between two registry rows (the empty row, or twice a lone triangle or
    # quad) may add keys
    rng = random.Random(7)
    subjects = [build_Tpq(7, 2), build_Tpq(11, 3), parse_triangulation(DOUBLE)]
    count = 0
    for tr in subjects:
        found = census_surfaces(tr)
        for ns in rng.sample(found, min(15, len(found))):
            for k in (2, 3):
                coords = tuple(k * x for x in ns.coords)
                ids = [_ROW_ID.get(coords[i : i + 7], _OUTSIDE) for i in range(0, len(coords), 7)]
                allowed = {
                    template << 16 | ids[a] << 8 | ids[b]
                    for a, b, template in tr._normal_tables.triangle_templates
                    if _OUTSIDE not in (ids[a], ids[b])
                }
                before = set(_JOINS)
                topo = _disc_complex(surface(tr, coords))
                assert topo == flood_fill_complex(surface(tr, coords)), coords
                assert set(_JOINS) - before <= allowed
                count += _OUTSIDE in ids
    assert count >= 30, count
    assert all(_OUTSIDE not in (key >> 8 & 255, key & 255) for key in _JOINS)


def test_the_memo_stays_within_its_bound(capsys):
    assert main(["verify", "existence", "--seeds", "5"]) == 0
    capsys.readouterr()
    rows = len(_ROW_ID)
    assert 0 < len(_JOINS) <= 96 * rows**2
    assert all(key >> 16 < 96 and key >> 8 & 255 < rows and key & 255 < rows for key in _JOINS)
