import dataclasses
import gc
import hashlib
import itertools
import random
import weakref
from math import gcd

import pytest

from fixtures_data import CUSPED, DOUBLE, RP2LINK, S3_ONE_TET, T41, T52, TWO_KLEIN
from spine_oracles import surface_space_nullity, universal_subpolyhedron
from tetspine.errors import EnumerationBudgetError, NotSimpleError
from tetspine.golden import EPS, GoldenInt, ONE, divexact
from tetspine.homology import h1
from tetspine.lens import build_Tpq
from tetspine.moves import SplitMix64, iter_pachner_walk, random_pachner_walk
from tetspine.spine import (
    DEFAULT_FACE_BUDGET,
    SubPolyhedron,
    dual_spine,
    enumerate_simple_subpolyhedra,
    germ_patterns,
    subpolyhedron,
    t_manifold,
    t_spine,
)
from tetspine.surfaces import census
from tetspine.triangulation import parse_triangulation


def corpus():
    out = {
        "T41": parse_triangulation(T41),
        "T52": parse_triangulation(T52),
        "S3_ONE_TET": parse_triangulation(S3_ONE_TET),
        "DOUBLE": parse_triangulation(DOUBLE),
        "CUSPED": parse_triangulation(CUSPED),
        "RP2LINK": parse_triangulation(RP2LINK),
        "T72": build_Tpq(7, 2),
        "T83": build_Tpq(8, 3),
        "T125": build_Tpq(12, 5),
        "T214": build_Tpq(21, 4),
        "WALKED": random_pachner_walk(build_Tpq(7, 2), 8, seed=2),
    }
    return out


def test_dual_spine_shapes():
    tri = parse_triangulation(T52)
    sp = dual_spine(tri)
    assert sp.num_vertices == 1
    assert len(sp.edge_germs) == 2  # one per triangle class
    assert sp.num_faces == 2  # one per edge class
    assert all(len(g) == 3 for g in sp.edge_germs)
    assert sp.face_degrees == tuple(ec.degree for ec in tri.edge_classes)

    t214 = build_Tpq(21, 4)
    sp214 = dual_spine(t214)
    assert sp214.num_vertices == 6
    assert sp214.num_faces == 7


def test_degree_one_face_flag():
    assert dual_spine(parse_triangulation(S3_ONE_TET)).has_degree_one_face
    assert dual_spine(parse_triangulation(CUSPED)).has_degree_one_face
    assert not dual_spine(parse_triangulation(DOUBLE)).has_degree_one_face
    assert not dual_spine(build_Tpq(7, 2)).has_degree_one_face


# ---- enumeration --------------------------------------------------------------------


def brute_force_masks(spine):
    """Reference enumeration: filter all subsets by the germ-count rule."""
    out = []
    for mask in range(1 << spine.num_faces):
        ok = True
        for germs in spine.edge_germs:
            cnt = sum(1 for g in germs if mask >> g & 1)
            if cnt == 1:
                ok = False
                break
        if ok:
            out.append(mask)
    return out


@pytest.mark.parametrize("name", ["T41", "T52", "S3_ONE_TET", "DOUBLE", "CUSPED", "RP2LINK", "T72", "T83", "T125", "T214", "WALKED"])
def test_enumeration_matches_brute_force(name):
    sp = dual_spine(corpus()[name])
    assert sp.num_faces <= 16, "fixture grew beyond brute-force reach"
    got = [q.faces for q in enumerate_simple_subpolyhedra(sp)]
    assert got == brute_force_masks(sp)


def test_frozen_subpolyhedron_lattices():
    assert [q.faces for q in enumerate_simple_subpolyhedra(dual_spine(parse_triangulation(T52)))] == [0x0, 0x3]
    assert [q.faces for q in enumerate_simple_subpolyhedra(dual_spine(parse_triangulation(T41)))] == [0x0, 0x1, 0x3]
    assert [q.faces for q in enumerate_simple_subpolyhedra(dual_spine(parse_triangulation(S3_ONE_TET)))] == [0x0, 0x2, 0x3, 0x6, 0x7]


def test_t52_has_no_proper_nonempty_simple_subpolyhedron():
    subs = enumerate_simple_subpolyhedra(dual_spine(parse_triangulation(T52)))
    assert [q.faces for q in subs] == [0x0, 0x3]


def test_subpolyhedron_invariants_revalidate():
    for name, tri in corpus().items():
        sp = dual_spine(tri)
        for q in enumerate_simple_subpolyhedra(sp):
            again = subpolyhedron(sp, q.faces)
            assert again == q, name


def reference_subpolyhedron(tri, faces):
    """subpolyhedron() read directly off the incidence tables: one germ
    count per spine edge, and one slot count per spine vertex, from the
    edge class (spine face) of each of its tetrahedron's six edge slots."""
    spine = dual_spine(tri)
    class_of = tri._edge_data[1]
    bad = []
    edges_in = 0
    surface = True
    for e, germs in enumerate(spine.edge_germs):
        cnt = sum(1 for g in germs if faces >> g & 1)
        if cnt == 1:
            bad.append(e)
        elif cnt >= 2:
            edges_in += 1
            if cnt == 3:
                surface = False
    if bad:
        raise NotSimpleError(tuple(bad))
    touched = 0
    v_q = 0
    for t in range(tri.n):
        germs6 = class_of[6 * t : 6 * t + 6]
        hits = sum(1 for g in germs6 if faces >> g & 1)
        if hits:
            touched += 1
            if hits == 6:
                v_q += 1
    return SubPolyhedron(
        faces=faces,
        v_q=v_q,
        chi=touched - edges_in + faces.bit_count(),
        is_surface=surface,
        is_empty=faces == 0,
    )


def outcome(sub, subject, faces):
    try:
        return sub(subject, faces)
    except NotSimpleError as exc:
        return exc.edges


def test_subpolyhedron_matches_the_per_edge_reference():
    # every mask of the corpus spines and of TWO_KLEIN; enumerated and random
    # masks of walk descendants up to the 24-face spine of T_21_4
    rng = random.Random(3)
    tris = [*corpus().values(), parse_triangulation(TWO_KLEIN)]
    walks = [random_pachner_walk(build_Tpq(12, 5), 8, seed=s) for s in range(3)]
    walks.append(random_pachner_walk(build_Tpq(21, 4), 25, seed=5))
    rejected = 0
    for tri in tris:
        sp = dual_spine(tri)
        for mask in range(1 << sp.num_faces):
            want = outcome(reference_subpolyhedron, tri, mask)
            assert outcome(subpolyhedron, sp, mask) == want, mask
            rejected += isinstance(want, tuple)
    for tri in walks:
        sp = dual_spine(tri)
        masks = [q.faces for q in enumerate_simple_subpolyhedra(sp)][:2000]
        masks += [rng.getrandbits(sp.num_faces) for _ in range(2000)]
        for mask in masks:
            want = outcome(reference_subpolyhedron, tri, mask)
            assert outcome(subpolyhedron, sp, mask) == want, mask
            rejected += isinstance(want, tuple)
    assert rejected > 1000


def test_subpolyhedron_rejects_non_simple():
    sp = dual_spine(parse_triangulation(T52))
    for mask in (0x1, 0x2):
        with pytest.raises(NotSimpleError) as exc:
            subpolyhedron(sp, mask)
        assert exc.value.edges  # the offending spine edges are reported
    with pytest.raises(ValueError):
        subpolyhedron(sp, 0x4)
    with pytest.raises(ValueError):
        subpolyhedron(sp, -1)


def test_dual_spine_is_kept_on_its_triangulation():
    tri = build_Tpq(7, 2)
    assert dual_spine(tri) is dual_spine(tri)


def test_triangulation_is_freed_without_the_cycle_collector():
    # the spine and its cached enumeration are kept on the triangulation and
    # do not point back to it, so dropping the last reference frees it
    gc.disable()
    try:
        tri = build_Tpq(7, 2)
        census(tri)
        t_manifold(tri)
        universal_subpolyhedron(tri)
        assert tri._spine is not None
        ref = weakref.ref(tri)
        del tri
        assert ref() is None
    finally:
        gc.enable()


def test_enumeration_budget(monkeypatch):
    # the budget is checked before the cached enumeration is read
    sp = dual_spine(build_Tpq(8, 3))
    monkeypatch.setenv("SPINE_FACE_BUDGET", "3")
    assert enumerate_simple_subpolyhedra(sp)
    monkeypatch.setenv("SPINE_FACE_BUDGET", "2")
    with pytest.raises(EnumerationBudgetError):
        enumerate_simple_subpolyhedra(sp)


def test_enumeration_budget_env(monkeypatch):
    sp = dual_spine(build_Tpq(8, 3))
    monkeypatch.setenv("SPINE_FACE_BUDGET", "2")
    with pytest.raises(EnumerationBudgetError):
        enumerate_simple_subpolyhedra(sp)
    monkeypatch.setenv("SPINE_FACE_BUDGET", "3")
    assert enumerate_simple_subpolyhedra(sp)
    monkeypatch.delenv("SPINE_FACE_BUDGET")
    assert DEFAULT_FACE_BUDGET == 40


# ---- surface counting ---------------------------------------------------------------


def test_surface_count_is_two_to_the_nullity():
    for name, tri in corpus().items():
        sp = dual_spine(tri)
        surfaces = [q for q in enumerate_simple_subpolyhedra(sp) if q.is_surface]
        assert len(surfaces) == 2 ** surface_space_nullity(sp), name


def test_frozen_nullities():
    assert surface_space_nullity(dual_spine(parse_triangulation(T52))) == 0
    assert surface_space_nullity(dual_spine(parse_triangulation(T41))) == 1
    assert surface_space_nullity(dual_spine(parse_triangulation(DOUBLE))) == 3
    assert surface_space_nullity(dual_spine(parse_triangulation(S3_ONE_TET))) == 1


# ---- t invariant --------------------------------------------------------------------


def eps_power(k):
    # e^k for k < 0 by exact division, not by the e^-1 = e - 1 of t_spine
    return EPS**k if k >= 0 else divexact(ONE, EPS**-k)


def term(q):
    value = eps_power(q.chi - q.v_q)
    return -value if q.v_q % 2 else value


def test_t_spine_frozen_values():
    assert t_spine(dual_spine(parse_triangulation(T52))) == GoldenInt(0)
    assert t_spine(dual_spine(parse_triangulation(T41))) == ONE
    assert t_spine(dual_spine(parse_triangulation(DOUBLE))) == GoldenInt(15, 20)
    assert t_spine(dual_spine(parse_triangulation(DOUBLE))) == GoldenInt(2, 1) ** 3
    assert t_spine(dual_spine(parse_triangulation(S3_ONE_TET))) == GoldenInt(2, 1)
    assert t_spine(dual_spine(parse_triangulation(CUSPED))) == ONE
    assert t_spine(dual_spine(parse_triangulation(RP2LINK))) == GoldenInt(1, 1)


def test_t_spine_equals_term_sum():
    for name, tri in corpus().items():
        sp = dual_spine(tri)
        subs = enumerate_simple_subpolyhedra(sp)
        assert t_spine(sp) == sum((term(q) for q in subs), GoldenInt(0)), name


def test_t_spine_closed_form_for_lonely_spines():
    # closed, one vertex class, no proper nonempty simple subpolyhedron:
    # the sum collapses to the empty term plus the full term
    tri = parse_triangulation(T52)
    sp = dual_spine(tri)
    n = tri.n
    assert t_spine(sp) == ONE + (-1) ** n * eps_power(1 - n)


def test_t_manifold_frozen_values():
    assert t_manifold(parse_triangulation(T52)) == GoldenInt(0)
    assert t_manifold(parse_triangulation(T41)) == ONE
    assert t_manifold(parse_triangulation(DOUBLE)) == ONE  # (2+e)^3 / (2+e)^3
    assert t_manifold(parse_triangulation(S3_ONE_TET)) == ONE
    assert t_manifold(parse_triangulation(CUSPED)) == ONE  # ideal: no division
    assert str(t_manifold(build_Tpq(7, 2))) == "1+e"
    assert str(t_manifold(build_Tpq(5, 1))) == "2+e"


def invariant_subjects():
    """331 triangulations: the 124 coprime T_(p,q) with 4 <= p <= 20, the 7
    fixtures, and the 200 walk descendants that `verify existence --seeds 5
    --steps 10` visits (its bases, in order, each walked with the next seed
    of SplitMix64(0))."""
    subjects = [build_Tpq(p, q) for p in range(4, 21) for q in range(1, p) if gcd(p, q) == 1]
    subjects += [
        parse_triangulation(text)
        for text in (T41, T52, S3_ONE_TET, DOUBLE, CUSPED, RP2LINK, TWO_KLEIN)
    ]
    master = SplitMix64(0)
    for p, q in ((4, 1), (5, 1), (5, 2), (7, 2)):
        base = build_Tpq(p, q)
        for _ in range(5):
            subjects += iter_pachner_walk(base, 10, master.next())
    return subjects


def test_surface_nullity_is_the_z2_homology_of_the_punctured_manifold():
    # Poincare duality for M minus its v vertex balls: the surface
    # subpolyhedra number 2^(dim H1(M; Z/2) + v - 1). h1 is an integer Smith
    # form on the triangulation, the nullity a GF(2) rank on the spine, and
    # dim H1(M; Z/2) is the Betti number plus the even torsion factors
    closed = 0
    for tri in invariant_subjects():
        if tri.is_closed:
            betti, torsion = h1(tri)
            z2 = betti + sum(d % 2 == 0 for d in torsion)
            assert surface_space_nullity(dual_spine(tri)) == z2 + len(tri.vertex_classes) - 1
            closed += 1
    assert closed == 328


def test_frozen_invariants_of_331_subjects():
    # t of the spine, t of the manifold and, when closed, H1, in subject order
    digest = hashlib.sha256()
    subjects = invariant_subjects()
    assert len(subjects) == 331
    for tri in subjects:
        digest.update(f"{t_spine(dual_spine(tri))}\0{t_manifold(tri)}\0".encode())
        if tri.is_closed:
            digest.update(f"{h1(tri)}\0".encode())
    assert digest.hexdigest() == (
        "79a541e592b554d8943f411249f5e05115b0f0eaffd928526cb3ee7952d2ede2"
    )


def test_subpolyhedra_keep_the_germ_patterns_of_their_mask():
    # the census reads its rows from the kept patterns, so every cached
    # subpolyhedron of the pinned subjects must hold its own mask's; the
    # patterns take no part in equality, hashing or repr
    count = 0
    for tri in invariant_subjects():
        spine = dual_spine(tri)
        for q in enumerate_simple_subpolyhedra(spine):
            assert q.patterns == germ_patterns(spine, q.faces), q.faces
            count += 1
        bare = dataclasses.replace(q, patterns=b"")
        assert (bare, hash(bare), repr(bare)) == (q, hash(q), repr(q))
    assert count == 25745


def test_kernel_subpolyhedra_equal_the_validating_path():
    # the kernel hands subpolyhedron() the germ patterns it gathered on its
    # stack, and subpolyhedron() then neither recomputes them nor rechecks
    # simplicity; this oracle stands in for that check: every enumerated Q
    # equals the one a mask from outside gives, patterns included, and a
    # mask from outside that is not simple is still refused with the spine
    # edges of germ count 1, recounted here from the edge germs
    rng = random.Random(36)
    masks = refused = 0
    for tri in invariant_subjects():
        spine = dual_spine(tri)
        found = enumerate_simple_subpolyhedra(spine)
        for q in found:
            outside = subpolyhedron(spine, q.faces)
            assert outside == q and outside.patterns == q.patterns, q.faces
            masks += 1
        simple = {q.faces for q in found}
        for _ in range(4):
            mask = rng.getrandbits(spine.num_faces)
            ones = tuple(
                e for e, edge in enumerate(spine.edge_germs) if sum(mask >> f & 1 for f in edge) == 1
            )
            assert (not ones) == (mask in simple), mask
            if ones:
                with pytest.raises(NotSimpleError) as exc:
                    subpolyhedron(spine, mask)
                assert exc.value.edges == ones
                refused += 1
    assert (masks, refused) == (25745, 879)


def test_census_edge_weights_are_at_most_two():
    # a triangulation edge meets the spine once, in its dual face, so a type
    # I surface meets it 0 or 1 times and a type II surface 0 or 2 times, and
    # a component no more often than its surface. So the second failure of
    # cli._existence_check, "no non-trivial surface with edge weights <= 2",
    # cannot occur on a real census; the branch stays, and only a test that
    # replaces the census reaches it
    entries = type_I = 0
    for tri in invariant_subjects():
        for e in census(tri):
            bound = 1 if e.surface.provenance[0] == "I" else 2
            assert e.report.max_edge_weight <= bound, e.surface.coords
            entries += 1
            type_I += bound == 1
    assert (entries, type_I) == (25501, 105)


def test_frozen_lattice_and_census_of_331_subjects():
    # (faces, v_Q, chi, is_surface) of every simple subpolyhedron of the 331
    # subjects, then every census row (coordinates, provenance, report) of
    # the 207 that are not layered lens triangulations, in subject order
    subjects = invariant_subjects()
    digest = hashlib.sha256()
    masks = 0
    for tri in subjects:
        for q in enumerate_simple_subpolyhedra(dual_spine(tri)):
            digest.update(f"{q.faces} {q.v_q} {q.chi} {q.is_surface}\0".encode())
            masks += 1
        digest.update(b"\1")
    entries = 0
    for tri in subjects[124:]:
        for e in census(tri):
            r = e.report
            row = (e.surface.coords, e.surface.provenance, r.chi, r.orientable, r.connected,
                   r.components, r.classification, r.trivial, r.max_edge_weight)
            digest.update(repr(row).encode())
            entries += 1
        digest.update(b"\1")
    assert (masks, entries) == (25745, 2821)
    assert digest.hexdigest() == (
        "35cacd447276aadb8f07e4f94c31c9a3700d6e5b25374232d6a805dd217c77f0"
    )


def test_t_spine_stable_under_relabeling():
    from test_triangulation import relabel

    tri = parse_triangulation(T41)
    moved = relabel(tri, (0,), ((2, 0, 3, 1),))
    assert t_spine(dual_spine(moved)) == t_spine(dual_spine(tri))
    dbl = parse_triangulation(DOUBLE)
    moved = relabel(dbl, (1, 0), ((1, 2, 3, 0), (3, 2, 1, 0)))
    assert t_spine(dual_spine(moved)) == t_spine(dual_spine(dbl))


# ---- universal subpolyhedron --------------------------------------------------------


def omega_components(spine, omega):
    """Faces of omega grouped by spine-edge adjacency."""
    faces = [f for f in range(spine.num_faces) if omega.faces >> f & 1]
    parent = {f: f for f in faces}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for germs in spine.edge_germs:
        ins = [g for g in germs if omega.faces >> g & 1]
        for a, b in zip(ins, ins[1:]):
            parent[find(a)] = find(b)
    groups = {}
    for f in faces:
        groups.setdefault(find(f), 0)
        groups[find(f)] |= 1 << f
    return sorted(groups.values())


def test_universal_subpolyhedron_masks():
    assert universal_subpolyhedron(parse_triangulation(T52)).is_empty
    assert universal_subpolyhedron(parse_triangulation(CUSPED)).is_empty
    om = universal_subpolyhedron(parse_triangulation(S3_ONE_TET))
    assert om.faces == 0x2 and om.is_surface and not om.is_empty
    om2 = universal_subpolyhedron(parse_triangulation(RP2LINK))
    assert om2.faces == 0x6 and om2.is_surface
    # the identity-glued double has every dual edge joining distinct classes
    omd = universal_subpolyhedron(parse_triangulation(DOUBLE))
    assert omd.faces == 0x3F == (1 << dual_spine(parse_triangulation(DOUBLE)).num_faces) - 1


def test_omega_component_count_is_classes_minus_one():
    # both 2-class fixtures carry a connected omega
    for text in (S3_ONE_TET, RP2LINK):
        tri = parse_triangulation(text)
        sp = dual_spine(tri)
        om = universal_subpolyhedron(tri)
        comps = omega_components(sp, om)
        assert len(comps) == len(tri.vertex_classes) - 1


def test_omega_subsum_is_product_over_components():
    # the partial t sum over subpolyhedra inside omega factors through
    # omega's components: sum = prod over components (1 + eps^chi(comp))
    for text in (S3_ONE_TET, RP2LINK, DOUBLE):
        tri = parse_triangulation(text)
        sp = dual_spine(tri)
        om = universal_subpolyhedron(tri)
        if not om.is_surface:
            continue
        inside = [
            q
            for q in enumerate_simple_subpolyhedra(sp)
            if q.faces & ~om.faces == 0
        ]
        total = sum((term(q) for q in inside), GoldenInt(0))
        prod = ONE
        for comp_mask in omega_components(sp, om):
            prod = prod * (ONE + eps_power(subpolyhedron(sp, comp_mask).chi))
        assert total == prod, text


def test_omega_only_identity_when_hypothesis_holds():
    # when the only proper nonempty simple subpolyhedra are unions of
    # omega's components, the t sum splits as the full-spine term plus the
    # omega product; no subject of the corpus meets the hypothesis, so the
    # scan adds TWO_KLEIN, which does and is not closed
    subjects = corpus()
    subjects["TWO_KLEIN"] = parse_triangulation(TWO_KLEIN)
    checked = []
    for name, tri in subjects.items():
        om = universal_subpolyhedron(tri)
        sp = dual_spine(tri)
        full_mask = (1 << sp.num_faces) - 1
        if om.is_empty or not om.is_surface or om.faces == full_mask:
            continue
        subs = enumerate_simple_subpolyhedra(sp)
        proper = [q for q in subs if not q.is_empty and q.faces != full_mask]
        if any(q.faces & ~om.faces for q in proper):
            continue
        n = sp.num_vertices
        full = subpolyhedron(sp, full_mask)
        prod = ONE
        for comp_mask in omega_components(sp, om):
            prod = prod * (ONE + eps_power(subpolyhedron(sp, comp_mask).chi))
        assert t_spine(sp) == (-1) ** (full.v_q % 2) * eps_power(full.chi - full.v_q) + prod, name
        checked.append(name)
    assert "TWO_KLEIN" in checked


def test_chi_of_lens_spines_is_one():
    for p, q in ((4, 1), (5, 2), (7, 2), (21, 4)):
        sp = dual_spine(build_Tpq(p, q))
        assert sp.num_faces - sp.num_vertices == 1
