"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run pytest with -s to see them all;
a FAIL line always surfaces through the assertion message). The corpus used
for the structural checks is declared in corpus() below: the layered lens
triangulations for coprime 4 <= p <= 12, the hand-built fixtures, and a few
random bistellar descendants.
"""

import random
import time
from math import gcd

from fixtures_data import DOUBLE, RP2LINK, S3_ONE_TET, T41, T52
from spine_oracles import quad_free_tetrahedra, surface_space_nullity
from tetspine.cli import main
from tetspine.golden import GoldenInt, divexact
from tetspine.lens import build_Tpq, t_expected
from tetspine.moves import iter_pachner_walk, random_pachner_walk
from tetspine.spine import (
    dual_spine,
    enumerate_simple_subpolyhedra,
    t_manifold,
)
from tetspine.surfaces import (
    census,
    reconstruct,
    type_I_surface,
    type_II_surface,
)
from tetspine.triangulation import parse_triangulation


def check(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {num}: {label}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, line


def corpus():
    members = {
        "T41": parse_triangulation(T41),
        "T52": parse_triangulation(T52),
        "S3_ONE_TET": parse_triangulation(S3_ONE_TET),
        "DOUBLE": parse_triangulation(DOUBLE),
        "RP2LINK": parse_triangulation(RP2LINK),
    }
    for p in range(4, 13):
        for q in range(1, p):
            if gcd(p, q) == 1:
                members[f"T_{p}_{q}"] = build_Tpq(p, q)
    members["WALK_72"] = random_pachner_walk(build_Tpq(7, 2), 10, seed=1)
    members["WALK_125"] = random_pachner_walk(build_Tpq(12, 5), 8, seed=2)
    members["WALK_DOUBLE"] = random_pachner_walk(parse_triangulation(DOUBLE), 6, seed=3)
    return members


def test_criterion_1_lens_verification_suite():
    start = time.perf_counter()
    code = main(["verify", "lens", "--pmax", "20"])
    elapsed = time.perf_counter() - start
    check(
        1,
        "verify lens --pmax 20 all ok in under 60 s",
        code == 0 and elapsed < 60.0,
        f"exit {code}, {elapsed:.1f} s",
    )


def test_criterion_2_minimal_52_lens_space():
    tri = build_Tpq(5, 2)
    sp = dual_spine(tri)
    full_mask = (1 << sp.num_faces) - 1
    proper = [
        q for q in enumerate_simple_subpolyhedra(sp) if not q.is_empty and q.faces != full_mask
    ]
    entries = census(tri)
    ok = (
        tri.n == 1
        and proper == []
        and t_manifold(tri) == GoldenInt(0, 0)
        and len(entries) == 1
        and entries[0].report.trivial
        and entries[0].report.classification == "sphere"
    )
    check(2, "the one-tetrahedron (5,2) lens space is singular", ok)


def test_criterion_3_existence_suite():
    start = time.perf_counter()
    code = main(["verify", "existence", "--seeds", "5", "--steps", "10"])
    elapsed = time.perf_counter() - start
    check(
        3,
        "verify existence --seeds 5 --steps 10 ok in under 5 min",
        code == 0 and elapsed < 300.0,
        f"exit {code}, {elapsed:.1f} s",
    )


def test_criterion_4_lens_invariant_values_and_move_invariance():
    bad = []
    for p in range(4, 21):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            value = t_manifold(build_Tpq(p, q))
            if value != t_expected(p, q):
                bad.append((p, q, str(value)))
    base = build_Tpq(7, 2)
    base_t = t_manifold(base)
    for seed in range(5):
        for step, tri in enumerate(iter_pachner_walk(base, 20, seed=seed)):
            if t_manifold(tri) != base_t:
                bad.append(("walk", seed, step))
    check(
        4,
        "lens invariants match their closed form and survive 20-step walks",
        not bad,
        str(bad[:4]),
    )


def test_criterion_5_surface_subpolyhedra_count_is_two_to_the_nullity():
    bad = []
    for name, tri in corpus().items():
        sp = dual_spine(tri)
        surfaces = [q for q in enumerate_simple_subpolyhedra(sp) if q.is_surface]
        if len(surfaces) != 2 ** surface_space_nullity(sp):
            bad.append(name)
    check(5, "surface subpolyhedra counts equal 2^nullity across the corpus", not bad, str(bad))


def test_criterion_6_reconstruction_euler_characteristics():
    bad = []
    for name, tri in corpus().items():
        sp = dual_spine(tri)
        for q in enumerate_simple_subpolyhedra(sp):
            if q.is_empty:
                continue
            if reconstruct(type_II_surface(tri, q)).chi != 2 * q.chi:
                bad.append((name, q.faces, "II"))
            if q.is_surface and reconstruct(type_I_surface(tri, q)).chi != q.chi:
                bad.append((name, q.faces, "I"))
    check(
        6,
        "type I doubles nothing, type II doubles chi, across the corpus",
        not bad,
        str(bad[:4]),
    )


def test_criterion_7_vertex_bound_after_cut():
    bad = []
    for name, tri in corpus().items():
        if not tri.is_closed:
            continue
        for entry in census(tri):
            bound = quad_free_tetrahedra(entry.surface)
            if bound > tri.n or (bound == tri.n) != entry.report.trivial:
                bad.append((name, entry.surface.coords))
    check(
        7,
        "cutting bound is at most n with equality exactly for vertex links",
        not bad,
        str(bad[:4]),
    )


def test_criterion_8_golden_ring_division():
    rng = random.Random(97)
    bad = 0
    divisible = 0
    for _ in range(10_000):
        x = GoldenInt(rng.randint(-50, 50), rng.randint(-50, 50))
        y = GoldenInt(rng.randint(-50, 50), rng.randint(-50, 50))
        if y == GoldenInt(0, 0):
            continue
        q = divexact(x * y, y)
        if q != x:
            bad += 1
        if divexact(x, y) is not None:
            divisible += 1
    unit_ok = divexact(GoldenInt(1), GoldenInt(2, 1)) is None
    check(
        8,
        "exact division holds on 10^4 random pairs and 2+e is not a unit",
        bad == 0 and unit_ok,
        f"{bad} failures, divisible {divisible}",
    )
