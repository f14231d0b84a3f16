import hashlib
from collections import Counter
from math import gcd

import pytest

import fixtures_data
from fixtures_data import CUSPED, DOUBLE, T41, T52
from tetspine.errors import MoveNotApplicableError, TetspineError
from tetspine.homology import h1
from tetspine.lens import build_Tpq
from tetspine.moves import (
    SplitMix64,
    applicable_moves,
    iter_pachner_walk,
    pachner_23,
    pachner_32,
    random_pachner_walk,
)
from tetspine.spine import t_manifold
from tetspine.triangulation import (
    EDGE_PAIRS,
    FACE_VERTS,
    parse_triangulation,
    serialize_triangulation,
)


def test_splitmix_reference_stream():
    rng = SplitMix64(0)
    assert rng.next() == 0xE220A8397B1DCDAF
    assert rng.next() == 0x6E789E6AA1B965F4
    assert rng.next() == 0x06C45D188009454F
    assert rng.next() == 0xF88BB8A8724C81EC
    rng = SplitMix64(1234567)
    first = [rng.next() for _ in range(5)]
    again = SplitMix64(1234567)
    assert [again.next() for _ in range(5)] == first
    assert all(0 <= x < 2**64 for x in first)


def test_splitmix_below():
    rng = SplitMix64(9)
    vals = [rng.below(7) for _ in range(200)]
    assert all(0 <= v < 7 for v in vals)
    assert len(set(vals)) == 7


def test_applicable_moves_on_one_tet():
    # all triangle classes of a 1-tet triangulation are same-tet, and no
    # edge class spreads over 3 distinct tets, so nothing is legal
    tri = parse_triangulation(T52)
    assert applicable_moves(tri) == []
    walked = random_pachner_walk(tri, 5, seed=3)
    assert walked == tri  # every step yields unchanged


def test_applicable_moves_on_double():
    tri = parse_triangulation(DOUBLE)
    moves = applicable_moves(tri)
    assert moves, "identity-glued double has cross-tet triangles"
    assert all(kind == "23" for kind, _ in moves)  # all edges have degree 2


def test_pachner_23_counts():
    tri = parse_triangulation(DOUBLE)
    kind, idx = applicable_moves(tri)[0]
    assert kind == "23"
    out = pachner_23(tri, idx)
    assert out.n == tri.n + 1
    assert len(out.vertex_classes) == len(tri.vertex_classes)
    assert out.is_closed == tri.is_closed


def test_pachner_23_rejects_same_tet_triangle():
    tri = parse_triangulation(T52)
    with pytest.raises(MoveNotApplicableError):
        pachner_23(tri, 0)


def test_pachner_32_rejects_wrong_degree():
    tri = parse_triangulation(T52)
    for ec in tri.edge_classes:
        with pytest.raises(MoveNotApplicableError):
            pachner_32(tri, ec.index)


def test_23_then_32_returns_original():
    for text_or_build in (parse_triangulation(DOUBLE), build_Tpq(7, 2), build_Tpq(9, 2)):
        tri = text_or_build
        move23 = [i for k, i in applicable_moves(tri) if k == "23"]
        assert move23
        bigger = pachner_23(tri, move23[0])
        assert bigger.n == tri.n + 1
        undone = []
        for kind, idx in applicable_moves(bigger):
            if kind != "32":
                continue
            shrunk = pachner_32(bigger, idx)
            if shrunk.is_isomorphic_to(tri):
                undone.append(idx)
        assert undone, "the inverse 3-2 move along the central edge must exist"


def test_moves_preserve_homology_and_vertices():
    tri = build_Tpq(7, 2)
    want_h1 = h1(tri)
    want_v = len(tri.vertex_classes)
    for cur in iter_pachner_walk(tri, 12, seed=11):
        assert h1(cur) == want_h1
        assert len(cur.vertex_classes) == want_v
        assert cur.is_closed


def test_moves_preserve_t_invariant():
    # T_4_1 has one tet and no legal moves, so it checks the idle path;
    # T_7_2 actually wanders
    for p, q, expect_motion in ((7, 2, True), (4, 1, False)):
        tri = build_Tpq(p, q)
        want = t_manifold(tri)
        seen_sizes = set()
        for cur in iter_pachner_walk(tri, 10, seed=5):
            assert t_manifold(cur) == want
            seen_sizes.add(cur.n)
        assert (len(seen_sizes) > 1) == expect_motion


def test_walk_determinism():
    tri = parse_triangulation(DOUBLE)
    a = [serialize_triangulation(t) for t in iter_pachner_walk(tri, 6, seed=42)]
    b = [serialize_triangulation(t) for t in iter_pachner_walk(tri, 6, seed=42)]
    assert a == b
    c = random_pachner_walk(tri, 6, seed=42)
    assert serialize_triangulation(c) == a[-1]
    d = [serialize_triangulation(t) for t in iter_pachner_walk(tri, 6, seed=43)]
    assert a != d


def test_walk_yields_each_step():
    tri = parse_triangulation(DOUBLE)
    states = list(iter_pachner_walk(tri, 4, seed=0))
    assert len(states) == 4
    for prev, cur in zip([tri] + states, states):
        assert abs(cur.n - prev.n) <= 1


@pytest.fixture(scope="module")
def move_subjects():
    """The fixtures in file order, the coprime T_(p,q) with 4 <= p <= 9, and
    eight walk descendants each of DOUBLE, CUSPED and T_7_2 at seeds 1-3."""
    subjects = [
        parse_triangulation(text)
        for name, text in vars(fixtures_data).items()
        if name.isupper() and isinstance(text, str)
    ]
    subjects += [build_Tpq(p, q) for p in range(4, 10) for q in range(1, p) if gcd(p, q) == 1]
    for base in (parse_triangulation(DOUBLE), parse_triangulation(CUSPED), build_Tpq(7, 2)):
        for seed in (1, 2, 3):
            subjects.extend(iter_pachner_walk(base, 8, seed))
    return subjects


def test_move_outputs_are_frozen(move_subjects):
    # every 2-3 move at every triangle class, then every 3-2 move at every
    # edge class, of each subject: the serialized table, or the refusal's
    # type and message. A change to any move's output must be deliberate,
    # and must update the digest with it
    results = []
    for tri in move_subjects:
        attempts = [(pachner_23, i) for i in range(len(tri.triangle_classes))]
        attempts += [(pachner_32, i) for i in range(len(tri.edge_classes))]
        for move, idx in attempts:
            try:
                results.append(serialize_triangulation(move(tri, idx)))
            except TetspineError as exc:
                results.append(f"{type(exc).__name__}: {exc}")
    refused = sum(not r.startswith("tets:") for r in results)
    assert (len(move_subjects), len(results), refused) == (103, 1524, 630)
    digest = hashlib.sha256("\0".join(results).encode()).hexdigest()
    assert digest == "c2b9397970b473fe9283a259af0c43212dcee899a41685bb9f32f30e52dd9138"


def expected_degrees(tri, kind, idx):
    """(removed tetrahedra, {edge class: twice its degree after the move},
    degree of the class the move adds or 0), read off the input's edge
    classes alone: a 2-3 move takes one tetrahedron from each edge of its
    triangle, adds one to each of the six edges from the triangle to an apex
    and makes the apex-apex edge of degree 3; a 3-2 move removes its degree-3
    edge, adds one to each of the three edges opposite it and takes one from
    each of the six edges from an end of it to the equator, each of which
    the three tetrahedra hold twice."""
    deg2 = {ec.index: 2 * ec.degree for ec in tri.edge_classes}
    cls = tri.edge_class_of
    if kind == "23":
        tc = tri.triangle_classes[idx]
        (t0, f0), (t1, f1) = tc.rep, tc.other
        a, b, c = FACE_VERTS[f0]
        for u, v in ((a, b), (a, c), (b, c)):
            deg2[cls(t0, u, v)] -= 2
        for t, f in ((t0, f0), (t1, f1)):
            for v in FACE_VERTS[f]:
                deg2[cls(t, f, v)] += 2
        return {t0, t1}, deg2, 3
    central = tri.edge_classes[idx]
    for slot in central.slots:
        t = slot // 6
        u, w = EDGE_PAIRS[slot % 6]
        x, y = (v for v in range(4) if v not in (u, w))
        deg2[cls(t, x, y)] += 2
        for end in (u, w):
            for v in (x, y):
                deg2[cls(t, end, v)] -= 1
    del deg2[idx]
    return {slot // 6 for slot in central.slots}, deg2, 0


def test_moves_change_edge_degrees_and_keep_vertex_links(move_subjects):
    # an oracle that knows only the input's edge classes and vertex links:
    # the output's edge degrees, as a multiset and slot by slot on every
    # surviving tetrahedron (survivors keep their order), and its multiset of
    # vertex links
    done = Counter()
    for tri in move_subjects:
        links = Counter((lk.chi, lk.orientable) for lk in tri.vertex_links)
        for kind, idx in applicable_moves(tri):
            move = pachner_23 if kind == "23" else pachner_32
            out = move(tri, idx)
            removed, deg2, added = expected_degrees(tri, kind, idx)
            assert all(d % 2 == 0 and d > 0 for d in deg2.values())
            want = sorted([d // 2 for d in deg2.values()] + [added] * (added > 0))
            assert sorted(ec.degree for ec in out.edge_classes) == want
            survivors = [t for t in range(tri.n) if t not in removed]
            assert out.n == len(survivors) + (3 if kind == "23" else 2)
            for s, t in enumerate(survivors):
                for u, v in EDGE_PAIRS:
                    got = out.edge_classes[out.edge_class_of(s, u, v)].degree
                    assert 2 * got == deg2[tri.edge_class_of(t, u, v)]
            assert Counter((lk.chi, lk.orientable) for lk in out.vertex_links) == links
            done[kind] += 1
    assert done == {"23": 782, "32": 112}
