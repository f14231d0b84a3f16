import dataclasses
import hashlib
import random
from collections import Counter
from math import gcd

import pytest

from fixtures_data import CUSPED, DOUBLE, RP2LINK, S3_ONE_TET, T41, T52, TWO_KLEIN
from spine_oracles import quad_free_tetrahedra, universal_subpolyhedron
from test_disc_complex import QSEP
from test_weight_oracle import arc_count
from tetspine.errors import InternalLinkError, MatchingViolationError, NotASurfaceError
from tetspine.lens import build_Tpq
from tetspine.moves import SplitMix64, iter_pachner_walk, random_pachner_walk
from tetspine.spine import (
    _HAS_ONE_GERM_FACE,
    _HAS_THREE_GERM_FACE,
    dual_spine,
    enumerate_simple_subpolyhedra,
    subpolyhedron,
)
from tetspine import surfaces
from tetspine.surfaces import (
    _OUTSIDE,
    _ROW_DISCS,
    _ROW_ID,
    _TYPE_I_IDS,
    _TYPE_I_ROWS,
    _TYPE_II_IDS,
    _TYPE_II_ROWS,
    QTYPE_OF_PAIR,
    NormalSurface,
    _row_registry,
    census,
    reconstruct,
    split_components,
    type_I_surface,
    type_II_surface,
)
from tetspine.triangulation import EDGE_PAIRS, FACE_EDGE_OFFSETS, parse_triangulation


def corpus():
    return {
        "T41": parse_triangulation(T41),
        "T52": parse_triangulation(T52),
        "S3_ONE_TET": parse_triangulation(S3_ONE_TET),
        "DOUBLE": parse_triangulation(DOUBLE),
        "T51": build_Tpq(5, 1),
        "T72": build_Tpq(7, 2),
        "T83": build_Tpq(8, 3),
        "T125": build_Tpq(12, 5),
        "WALKED": random_pachner_walk(build_Tpq(7, 2), 6, seed=4),
    }


def test_quad_tables_are_consistent():
    # the flood fill's own QSEP against the package's QTYPE_OF_PAIR
    for pair, qt in QTYPE_OF_PAIR.items():
        a, b = QSEP[qt]
        assert set(pair) in (set(a), set(b))
    for qt, (first, second) in enumerate(QSEP):
        assert 0 in first
        assert set(first) | set(second) == {0, 1, 2, 3}
        assert QTYPE_OF_PAIR[first] == qt and QTYPE_OF_PAIR[second] == qt


# The type II row of each admissible germ pattern (bit p: edge slot p) and
# each type I row, frozen from the table of named link shapes (empty, cone,
# band, theta, full) that the complement rule replaced.
ADMISSIBLE_TYPE_II_ROWS = {
    0: (0, 0, 0, 0, 0, 0, 0),
    7: (2, 0, 0, 0, 0, 0, 0),
    25: (0, 2, 0, 0, 0, 0, 0),
    30: (0, 0, 0, 0, 2, 0, 0),
    31: (1, 1, 0, 0, 1, 0, 0),
    42: (0, 0, 2, 0, 0, 0, 0),
    45: (0, 0, 0, 0, 0, 2, 0),
    47: (1, 0, 1, 0, 0, 1, 0),
    51: (0, 0, 0, 0, 0, 0, 2),
    52: (0, 0, 0, 2, 0, 0, 0),
    55: (1, 0, 0, 1, 0, 0, 1),
    59: (0, 1, 1, 0, 0, 0, 1),
    61: (0, 1, 0, 1, 0, 1, 0),
    62: (0, 0, 1, 1, 1, 0, 0),
    63: (1, 1, 1, 1, 0, 0, 0),
}
TYPE_I_ROWS = {
    0: (0, 0, 0, 0, 0, 0, 0),
    7: (1, 0, 0, 0, 0, 0, 0),
    25: (0, 1, 0, 0, 0, 0, 0),
    30: (0, 0, 0, 0, 1, 0, 0),
    42: (0, 0, 1, 0, 0, 0, 0),
    45: (0, 0, 0, 0, 0, 1, 0),
    51: (0, 0, 0, 0, 0, 0, 1),
    52: (0, 0, 0, 1, 0, 0, 0),
}


def test_germ_pattern_tables_are_frozen():
    assert len(_TYPE_II_ROWS) == len(_TYPE_I_ROWS) == 64
    # rows are 7 bytes, empty for a pattern with no row
    assert {p: tuple(r) for p, r in enumerate(_TYPE_II_ROWS) if r} == ADMISSIBLE_TYPE_II_ROWS
    assert {p: tuple(r) for p, r in enumerate(_TYPE_I_ROWS) if r} == TYPE_I_ROWS


def test_germ_rules_agree_with_a_count_of_germs_per_face():
    # the germs of each face of a tetrahedron, counted here for all 64
    # patterns: spine's tables mark a face of one and of three germs, a
    # pattern has no type II row exactly when a face holds one germ, and a
    # row with an odd entry exactly when a face holds three and none one
    for pattern in range(64):
        counts = [sum(pattern >> p & 1 for p in offsets) for offsets in FACE_EDGE_OFFSETS]
        one, three = 1 in counts, 3 in counts
        assert (_HAS_ONE_GERM_FACE[pattern], _HAS_THREE_GERM_FACE[pattern]) == (one, three)
        row = _TYPE_II_ROWS[pattern]
        assert (not row, any(k % 2 for k in row)) == (one, three and not one), pattern
        assert bool(_TYPE_I_ROWS[pattern]) == (not one and not three), pattern
    assert sum(map(bool, _TYPE_II_ROWS)) == 15 and sum(map(bool, _TYPE_I_ROWS)) == 8


def test_row_registry_numbers_every_row_once():
    # the registry holds each nonempty row of the two tables once, checked at
    # import: no negative count, at most one quad type; none has more than 4 discs
    rows = set(ADMISSIBLE_TYPE_II_ROWS.values()) | set(TYPE_I_ROWS.values())
    assert set(_ROW_ID) == rows and len(rows) == 22
    assert sorted(_ROW_ID.values()) == list(range(len(rows)))
    for row, k in _ROW_ID.items():
        assert min(row) >= 0 and sum(n > 0 for n in row[4:]) <= 1
        assert _ROW_DISCS[k] == sum(row) <= 4
    for table, ids in ((_TYPE_I_ROWS, _TYPE_I_IDS), (_TYPE_II_ROWS, _TYPE_II_IDS)):
        assert len(ids) == 256
        for pattern, row in enumerate(table):
            assert ids[pattern] == (_ROW_ID[tuple(row)] if row else _OUTSIDE)


def test_row_registry_refuses_a_row_no_normal_surface_has():
    with pytest.raises(ValueError, match="not a normal surface"):
        _row_registry([[bytes((0, 0, 0, 0, 1, 1, 0))]])
    with pytest.raises(ValueError, match="not a normal surface"):
        _row_registry([[(1, 0, 0, 0, 0, 0, 0)], [(0, 1, 0, 0, 0, 1, 1)]])
    with pytest.raises(ValueError, match="not a normal surface"):
        _row_registry([[(0, -1, 0, 0, 0, 0, 0)]])


def test_type_I_refuses_a_germ_count_of_3_on_a_surface_flag():
    # T_{5,1}: subpolyhedron 0x5 shows a theta pattern in tetrahedron 1; a
    # hand-made copy that claims to be a surface passes the first check and
    # must be stopped by the rows
    tri = build_Tpq(5, 1)
    q = dataclasses.replace(subpolyhedron(dual_spine(tri), 0x5), is_surface=True)
    with pytest.raises(InternalLinkError, match="germ count of 3 in tetrahedron 1"):
        type_I_surface(tri, q)


def test_type_II_refuses_a_pattern_with_no_link_shape():
    # T_{7,2}: a hand-made copy of the empty subpolyhedron holding face 0
    # alone is not simple; the first tetrahedron with no type II row holds
    # that face at its edge slot 0 alone
    tri = build_Tpq(7, 2)
    q = dataclasses.replace(subpolyhedron(dual_spine(tri), 0), faces=0x1, is_empty=False)
    with pytest.raises(InternalLinkError, match=r"^germ slots \[0\] form no admissible link shape$"):
        type_II_surface(tri, q)


# ---- coordinates --------------------------------------------------------------------


def trivial_sphere_t52():
    entries = census(parse_triangulation(T52))
    assert len(entries) == 1
    return entries[0]


def test_t52_census_is_one_trivial_sphere():
    entry = trivial_sphere_t52()
    ns, rep = entry.surface, entry.report
    assert ns.coords == (1, 1, 1, 1, 0, 0, 0)
    assert ns.provenance == ("II", 0x3)
    assert ns.is_trivial and any(ns.coords)
    assert rep.classification == "sphere" and rep.trivial
    assert rep.connected and rep.components == 1
    assert rep.chi == 2 and rep.orientable
    assert rep.max_edge_weight == 2


def slot_weight(coords, t, u, v):
    """Intersection points with the edge {u, v} of tetrahedron t: the two
    triangles at its ends and the two quads that separate u from v."""
    skip = QTYPE_OF_PAIR[(u, v)]
    row = coords[7 * t : 7 * t + 7]
    return row[u] + row[v] + sum(row[4 + k] for k in range(3) if k != skip)


def test_arc_and_slot_counts_of_vertex_link():
    ns = trivial_sphere_t52().surface
    for f in range(4):
        for v in range(4):
            if v == f:
                continue
            assert arc_count(ns.coords, 0, f, v) == 1
    for u, v in EDGE_PAIRS:
        assert slot_weight(ns.coords, 0, u, v) == 2
    assert ns._topology.weights == (2, 2)


def test_matching_violation_detection():
    tri = parse_triangulation(T52)
    bad = NormalSurface(tri, (1, 0, 1, 1, 0, 0, 0), ("external", 0))
    with pytest.raises(MatchingViolationError, match="sees weights"):
        reconstruct(bad)


def test_two_quad_types_per_tet_rejected():
    tri = parse_triangulation(T52)
    bad = NormalSurface(tri, (0, 0, 0, 0, 1, 1, 0), ("external", 0))
    with pytest.raises(MatchingViolationError, match="two quad types"):
        reconstruct(bad)


# ---- type I and type II -------------------------------------------------------------


def test_klein_and_torus_in_t41():
    tri = parse_triangulation(T41)
    sp = dual_spine(tri)
    q = subpolyhedron(sp, 0x1)
    assert q.is_surface

    one = type_I_surface(tri, q)
    assert one.coords == (0, 0, 0, 0, 0, 1, 0)
    rep1 = reconstruct(one)
    assert rep1.classification == "klein"
    assert rep1.chi == 0 and not rep1.orientable
    assert rep1.max_edge_weight == 1

    two = type_II_surface(tri, q)
    assert two.coords == (0, 0, 0, 0, 0, 2, 0)
    rep2 = reconstruct(two)
    # the double cover of the Klein bottle along the spine face is a torus
    assert rep2.classification == "torus"
    assert rep2.chi == 0 and rep2.orientable
    assert rep2.chi == 2 * q.chi


def test_type_I_rejects_non_surfaces_and_empty():
    tri = parse_triangulation(T41)
    sp = dual_spine(tri)
    with pytest.raises(NotASurfaceError):
        type_I_surface(tri, subpolyhedron(sp, (1 << sp.num_faces) - 1))  # germ count 3
    with pytest.raises(NotASurfaceError):
        type_I_surface(tri, subpolyhedron(sp, 0))
    with pytest.raises(ValueError):
        type_II_surface(tri, subpolyhedron(sp, 0))


def test_theta_configuration_type_II():
    # T_{5,1}: subpolyhedron 0x5 shows a theta link in the second tet
    tri = build_Tpq(5, 1)
    sp = dual_spine(tri)
    q = subpolyhedron(sp, 0x5)
    assert not q.is_surface
    with pytest.raises(NotASurfaceError):
        type_I_surface(tri, q)
    two = type_II_surface(tri, q)
    assert two.tri == ((0, 0, 0, 0), (0, 0, 1, 1))
    assert two.quad == ((0, 2, 0), (1, 0, 0))
    rep = reconstruct(two)
    assert rep.classification == "torus"
    assert rep.chi == 2 * q.chi == 0
    assert rep.max_edge_weight == 2


def test_weight_bounds():
    # type I surfaces meet each edge at most once, type II at most twice
    for name, tr in corpus().items():
        sp = dual_spine(tr)
        for q in enumerate_simple_subpolyhedra(sp):
            if q.is_empty:
                continue
            two = type_II_surface(tr, q)
            assert reconstruct(two).max_edge_weight <= 2, name
            if q.is_surface:
                one = type_I_surface(tr, q)
                assert reconstruct(one).max_edge_weight <= 1, name


def test_euler_cross_checks():
    for name, tr in corpus().items():
        sp = dual_spine(tr)
        for q in enumerate_simple_subpolyhedra(sp):
            if q.is_empty:
                continue
            assert reconstruct(type_II_surface(tr, q)).chi == 2 * q.chi, name
            if q.is_surface:
                assert reconstruct(type_I_surface(tr, q)).chi == q.chi, name


def test_every_construction_is_valid_and_weights_agree():
    for name, tr in corpus().items():
        sp = dual_spine(tr)
        for q in enumerate_simple_subpolyhedra(sp):
            if q.is_empty:
                continue
            ns = type_II_surface(tr, q)
            w = ns._topology.weights
            for ec in tr.edge_classes:
                for slot in ec.slots:
                    t, pair = slot // 6, EDGE_PAIRS[slot % 6]
                    assert slot_weight(ns.coords, t, *pair) == w[ec.index], name


# ---- components and reconstruction --------------------------------------------------


def test_double_type_II_of_full_spine_splits_into_vertex_links():
    tri = parse_triangulation(DOUBLE)
    sp = dual_spine(tri)
    full = subpolyhedron(sp, (1 << sp.num_faces) - 1)
    ns = type_II_surface(tri, full)
    rep = reconstruct(ns)
    assert rep.components == 4
    assert not rep.connected
    assert rep.chi == 8
    assert rep.classification == "other(8)"
    parts = split_components(ns)
    assert len(parts) == 4
    for part in parts:
        sub = reconstruct(part)
        assert sub.classification == "sphere"
        assert part.is_trivial


def test_whole_spine_type_II_surface_is_the_vertex_links():
    # germ pattern 63 everywhere: a triangle at every corner, whose
    # components hold the vertex classes' slots
    fixtures = [parse_triangulation(text) for text in (CUSPED, RP2LINK, TWO_KLEIN)]
    for name, tri in [*corpus().items(), *zip(("CUSPED", "RP2LINK", "TWO_KLEIN"), fixtures)]:
        sp = dual_spine(tri)
        whole = type_II_surface(tri, subpolyhedron(sp, (1 << sp.num_faces) - 1))
        assert whole.coords == (1, 1, 1, 1, 0, 0, 0) * tri.n, name
        slots = [
            tuple(4 * t + v for t, row in enumerate(part.tri) for v in range(4) if row[v])
            for part in split_components(whole)
        ]
        assert slots == [vc.slots for vc in tri.vertex_classes], name


def test_census_entries_have_no_dict_and_refuse_assignment():
    entry = trivial_sphere_t52()
    assert not hasattr(entry, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.report = None
    # a new name has no slot; frozen slotted dataclasses refuse it with a
    # TypeError on some Python versions and a FrozenInstanceError on others
    with pytest.raises((AttributeError, TypeError)):
        entry.other = None


def test_split_components_on_connected_surface_is_identity():
    entry = trivial_sphere_t52()
    parts = split_components(entry.surface)
    assert len(parts) == 1
    assert parts[0].coords == entry.surface.coords


def test_omega_torus_in_two_vertex_sphere():
    tri = parse_triangulation(S3_ONE_TET)
    om = universal_subpolyhedron(tri)
    rep = reconstruct(type_I_surface(tri, om))
    assert rep.classification == "torus"
    assert rep.components == 1


# ---- census -------------------------------------------------------------------------


def test_t41_census():
    entries = census(parse_triangulation(T41))
    got = [(e.surface.coords, e.surface.provenance, e.report.classification) for e in entries]
    assert got == [
        ((0, 0, 0, 0, 0, 1, 0), ("I", 0x1), "klein"),
        ((0, 0, 0, 0, 0, 2, 0), ("II", 0x1), "torus"),
        ((1, 1, 1, 1, 0, 0, 0), ("II", 0x3), "sphere"),
    ]
    assert sum(1 for e in entries if e.report.classification == "torus") == 1
    assert sum(1 for e in entries if e.report.classification == "klein") == 1


def test_double_census():
    entries = census(parse_triangulation(DOUBLE))
    assert len(entries) == 7
    assert all(e.report.classification == "sphere" for e in entries)
    trivial = [e for e in entries if e.report.trivial]
    quady = [e for e in entries if not e.report.trivial]
    assert len(trivial) == 4 and len(quady) == 3
    for e in quady:
        assert sum(e.surface.coords) == 2  # one quad on each side
        assert quad_free_tetrahedra(e.surface) == 0
    for e in trivial:
        assert quad_free_tetrahedra(e.surface) == 2


def test_s3_one_tet_census():
    entries = census(parse_triangulation(S3_ONE_TET))
    kinds = [(e.report.classification, e.report.trivial) for e in entries]
    assert sorted(kinds) == [("sphere", True), ("sphere", True), ("torus", False)]


def test_census_is_deduplicated_sorted_and_connected():
    for name, tr in corpus().items():
        if not tr.is_closed:
            continue
        entries = census(tr)
        coords = [e.surface.coords for e in entries]
        assert coords == sorted(coords), name
        assert len(set(coords)) == len(coords), name
        for e in entries:
            assert e.report.connected, name
            assert reconstruct(e.surface) == e.report, name


def test_vertex_bound_after_cut():
    for name, tr in corpus().items():
        if not tr.is_closed:
            continue
        for e in census(tr):
            bound = quad_free_tetrahedra(e.surface)
            assert bound <= tr.n, name
            assert (bound == tr.n) == e.report.trivial, name


def test_trivial_census_entries_are_the_vertex_links():
    for name, tr in corpus().items():
        if not tr.is_closed:
            continue
        trivial = [e for e in census(tr) if e.report.trivial]
        assert len(trivial) == len(tr.vertex_classes), name
        assert all(e.report.classification == "sphere" for e in trivial), name


def test_is_trivial_reads_the_quad_coordinates():
    quad_types = set()  # the quad types some nontrivial surface uses
    for name, tr in corpus().items():
        for e in census(tr):
            ns = e.surface
            assert ns.is_trivial == (not any(any(qs) for qs in ns.quad)), name
            quad_types.update(k for qs in ns.quad for k in range(3) if qs[k])
        links = NormalSurface(tr, (1, 1, 1, 1, 0, 0, 0) * tr.n, ("external", 0))
        assert links.is_trivial, name
    assert quad_types == {0, 1, 2}


def test_split_components_runs_the_complex_checks_itself():
    # neither surface has been summarised before: the disc complex must refuse it
    tri = parse_triangulation(T52)
    uneven = NormalSurface(tri, (0, 0, 0, 0, 0, 0, 1), ("external", 0))
    with pytest.raises(MatchingViolationError, match="edge class 1 sees weights"):
        split_components(uneven)
    # the weights agree, and the arc counts with them, but a count is negative
    unpaired = NormalSurface(tri, (0, 0, 1, 1, 0, 1, -1), ("external", 0))
    with pytest.raises(MatchingViolationError, match="negative normal coordinate"):
        split_components(unpaired)
    with pytest.raises(MatchingViolationError, match="negative normal coordinate"):
        reconstruct(unpaired)


def test_topology_readers_reject_a_negative_coordinate():
    # the class weights agree ([-1, 0]) and there are no discs to pair, so
    # only the check for negative counts can refuse it
    ns = NormalSurface(build_Tpq(4, 1), (0, 0, 0, 0, 0, -1, 0), ("external", 0))
    for reader in (split_components, reconstruct):
        with pytest.raises(MatchingViolationError, match="negative normal coordinate"):
            reader(ns)


def test_topology_readers_reject_a_vector_of_other_than_7n_entries():
    # on the one-tetrahedron T_5_2 the vertex link twice over would sweep as
    # a surface, and a 6-entry vector would index past its end
    tri = build_Tpq(5, 2)
    for coords in ((1, 1, 1, 1, 0, 0, 0) * 2, (1, 1, 1, 1, 0, 0), (0, -1, 0, 0, 0, 0)):
        ns = NormalSurface(tri, coords, ("external", 0))
        for reader in (split_components, reconstruct):
            with pytest.raises(MatchingViolationError, match=f"{len(coords)} normal coordinates"):
                reader(ns)


def test_type_I_and_II_refuse_a_mask_outside_the_spine():
    # hand-made subpolyhedra of the 2-face spine of T_5_2 whose mask is
    # negative or holds a third face
    tri = parse_triangulation(T52)
    q = subpolyhedron(dual_spine(tri), 0x3)
    for faces in (-1, 0x4, 0x7):
        bad = dataclasses.replace(q, faces=faces, is_surface=True)
        for build in (type_I_surface, type_II_surface):
            with pytest.raises(ValueError, match=f"mask {faces:#x} is not a subset of 2 faces"):
                build(tri, bad)


def eager_census(tr):
    """The census with every part of every type I/II surface summarised as
    it is split: the reference for a census that summarises only the parts
    it keeps."""
    seen = {}
    for q in enumerate_simple_subpolyhedra(dual_spine(tr)):
        if q.is_empty:
            continue
        for ns in ([type_I_surface(tr, q)] if q.is_surface else []) + [type_II_surface(tr, q)]:
            for part in split_components(ns):
                seen.setdefault(part.coords, (part.provenance, reconstruct(part)))
    return [(coords, *seen[coords]) for coords in sorted(seen)]


# per fixture: its census's sweeps, one per type I/II surface built plus one
# per kept part of a surface of two or more components, and its entries;
# summarising every part as it was split took 57, 8, 13 and 7 sweeps
CENSUS_SWEEPS = {
    "DOUBLE": (DOUBLE, 21, 7),
    "RP2LINK": (RP2LINK, 5, 3),
    "S3_ONE_TET": (S3_ONE_TET, 7, 3),
    "TWO_KLEIN": (TWO_KLEIN, 4, 2),
}


@pytest.mark.parametrize("name", sorted(CENSUS_SWEEPS))
def test_census_sweeps_a_part_only_when_it_keeps_it(name, monkeypatch):
    text, want_sweeps, want_entries = CENSUS_SWEEPS[name]
    tr = parse_triangulation(text)
    want = eager_census(tr)
    # the vertex links and the spine's enumeration are built and kept before counting
    tr.vertex_links
    enumerate_simple_subpolyhedra(dual_spine(tr))
    sweeps = []
    sweep = surfaces._sweep

    def counted(*args):
        sweeps.append(args)
        return sweep(*args)

    monkeypatch.setattr(surfaces, "_sweep", counted)
    entries = census(tr)
    assert (len(sweeps), len(entries)) == (want_sweeps, want_entries)
    assert [(e.surface.coords, e.surface.provenance, e.report) for e in entries] == want


def test_census_reports_survive_relabeling():
    from test_triangulation import relabel

    rng = random.Random(11)
    subjects = [
        build_Tpq(7, 2),
        build_Tpq(8, 3),
        build_Tpq(12, 5),
        random_pachner_walk(build_Tpq(7, 2), 6, seed=4),
        random_pachner_walk(build_Tpq(5, 1), 5, seed=1),
    ]
    for tr in subjects:
        want = Counter(e.report for e in census(tr))
        for _ in range(2):
            tets = list(range(tr.n))
            rng.shuffle(tets)
            verts = [tuple(rng.sample(range(4), 4)) for _ in range(tr.n)]
            moved = relabel(tr, tets, verts)
            assert Counter(e.report for e in census(moved)) == want


def test_type_II_surfaces_of_orientable_closed_manifolds_are_orientable():
    # the boundary of a regular neighbourhood in an orientable manifold is two-sided
    for name, tr in corpus().items():
        if not tr.is_closed:
            continue
        sp = dual_spine(tr)
        for q in enumerate_simple_subpolyhedra(sp):
            if not q.is_empty:
                assert reconstruct(type_II_surface(tr, q)).orientable, (name, q.faces)


def test_frozen_lens_census():
    # sha256 of every census row (coordinates, provenance, report) of the
    # layered T_(p,q), coprime 4 <= p <= 12
    h = hashlib.sha256()
    for p in range(4, 13):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            for e in census(build_Tpq(p, q)):
                r = e.report
                row = (p, q, e.surface.coords, e.surface.provenance, r.chi, r.orientable,
                       r.connected, r.components, r.classification, r.trivial, r.max_edge_weight)
                h.update(repr(row).encode())
    assert h.hexdigest() == "5572f987deed682ffaf3f1fbea938e2576472fc6ce047e338947a680904c4088"


def external_path_subjects():
    """The six fixtures of the text-format tests, every coprime T_(p,q) with
    4 <= p <= 12, and the states `verify existence --seeds 1 --steps 3`
    walks: its bases, in order, each walked 3 steps with the next seed of
    SplitMix64(0)."""
    subjects = [parse_triangulation(text) for text in (T41, T52, S3_ONE_TET, DOUBLE, CUSPED, RP2LINK)]
    subjects += [build_Tpq(p, q) for p in range(4, 13) for q in range(1, p) if gcd(p, q) == 1]
    master = SplitMix64(0)
    for p, q in ((4, 1), (5, 1), (5, 2), (7, 2)):
        subjects += iter_pachner_walk(build_Tpq(p, q), 3, master.next())
    return subjects


def test_census_entries_agree_with_their_coordinates_given_from_outside():
    # the census keeps its coordinates as bytes and shares its reports; the
    # same coordinates given as ints take the tuple path and the disc
    # complex's own checks, and must give an equal report and equal views
    entries = 0
    for tr in external_path_subjects():
        previous = ()
        for e in census(tr):
            ns = e.surface
            coords = ns.coords
            assert type(coords) is tuple and all(type(k) is int for k in coords)
            assert previous < coords
            previous = coords
            outside = NormalSurface(tr, coords, ns.provenance)
            assert reconstruct(outside) == e.report, coords
            assert (outside.tri, outside.quad, outside.is_trivial) == (ns.tri, ns.quad, ns.is_trivial)
            entries += 1
    assert entries == 605


def test_coordinates_above_255_from_outside_get_their_summary():
    # 300 copies of the vertex link of the one-tetrahedron T_5_2: counts
    # that no byte holds
    coords = (300, 300, 300, 300, 0, 0, 0)
    ns = NormalSurface(build_Tpq(5, 2), coords, ("external", 0))
    assert ns.coords == coords
    report = reconstruct(ns)
    assert (report.components, report.chi, report.max_edge_weight) == (300, 600, 600)
    assert (report.classification, report.trivial) == ("other(600)", True)
    assert [part.coords for part in split_components(ns)] == [(1, 1, 1, 1, 0, 0, 0)] * 300
