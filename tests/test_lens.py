import hashlib
import random
import time
from math import gcd

import pytest

from tetspine.errors import ConstructionInvariantError, InvalidParamsError
from tetspine.golden import GoldenInt
from tetspine.homology import h1
from tetspine.lens import (
    S_MAX,
    LensParams,
    apply_word,
    build_Tpq,
    kappa_expected,
    lens_params,
    t_expected,
    tau_expected,
)
from tetspine.spine import dual_spine, enumerate_simple_subpolyhedra, t_manifold
from tetspine.triangulation import serialize_triangulation


def test_params_frozen_cases():
    lp = lens_params(21, 4)
    assert lp == LensParams(p=21, q=4, cf=(5, 4), S=9, word="rrrrlll")
    assert lens_params(4, 1).word == "rr"
    assert lens_params(5, 2) == LensParams(5, 2, (2, 2), 4, "rl")
    assert lens_params(8, 3).cf == (2, 1, 2)
    assert lens_params(12, 5).word == "rllr"


def test_word_recovers_slope_for_all_small_params():
    # the word acts on column vectors; reading it back must reproduce (q, p-q)
    for p in range(4, 201):
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            lp = lens_params(p, q)
            assert len(lp.word) == lp.S - 2
            assert apply_word(lp.word) == (q, p - q), (p, q)
            assert lp.S == lens_params(p, p - q).S


def test_invalid_params():
    for p, q in [(3, 1), (2, 1), (1, 1), (0, 1), (5, 0), (5, 5), (6, 2), (9, 3), (-4, 1)]:
        with pytest.raises(InvalidParamsError):
            lens_params(p, q)
        with pytest.raises(InvalidParamsError):
            build_Tpq(p, q)


def test_tau_expected():
    # q = 1 or p-1 uses the shorter estimate
    assert tau_expected(4, 1) == 1
    assert tau_expected(4, 3) == 1
    assert tau_expected(7, 1) == 4
    assert tau_expected(7, 6) == 4
    assert tau_expected(5, 2) == 0
    assert tau_expected(7, 2) == 1
    assert tau_expected(21, 4) == 5


def test_kappa_expected():
    assert kappa_expected(4, 1) == 1
    assert kappa_expected(8, 3) == 1
    assert kappa_expected(8, 5) == 1
    assert kappa_expected(12, 5) == 1
    assert kappa_expected(12, 7) == 1
    assert kappa_expected(7, 2) == 0
    assert kappa_expected(8, 1) == 0
    assert kappa_expected(21, 4) == 0


def coprime_pairs(pmax):
    for p in range(4, pmax + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield p, q


def test_build_battery():
    for p, q in coprime_pairs(12):
        tr = build_Tpq(p, q)
        lp = lens_params(p, q)
        assert tr.n == lp.S - 3, (p, q)
        assert tr.is_closed, (p, q)
        assert len(tr.vertex_classes) == 1, (p, q)
        assert len(tr.edge_classes) == lp.S - 2, (p, q)
        assert h1(tr) == (0, [p]), (p, q)


def test_build_52_is_single_tet_with_vanishing_t():
    tr = build_Tpq(5, 2)
    assert tr.n == 1
    sp = dual_spine(tr)
    subs = enumerate_simple_subpolyhedra(sp)
    assert [q.faces for q in subs] == [0x0, (1 << sp.num_faces) - 1]
    assert t_manifold(tr) == GoldenInt(0, 0)


def test_mirror_builds_agree_on_h1():
    for p, q in [(7, 2), (7, 5), (9, 2), (9, 7)]:
        assert h1(build_Tpq(p, q)) == (0, [p])


def test_isomorphism_follows_the_lens_space_classification():
    # L(p, q) and L(p, q') are homeomorphic exactly when q' = +-q^(+-1) mod p
    # (Reidemeister, Brody). The layered triangulations must be isomorphic
    # exactly then, and homeomorphic pairs must agree on t and H1.
    pairs = 0
    for p in range(4, 21):
        units = [q for q in range(1, p) if gcd(p, q) == 1]
        tris = {q: build_Tpq(p, q) for q in units}
        for i, q in enumerate(units):
            inv = pow(q, -1, p)
            homeomorphic = {q, p - q, inv, p - inv}
            for q2 in units[i + 1 :]:
                pairs += 1
                same = q2 in homeomorphic
                assert tris[q].is_isomorphic_to(tris[q2]) == same, (p, q, q2)
                assert tris[q2].is_isomorphic_to(tris[q]) == same, (p, q2, q)
                if same and p <= 14:
                    assert t_manifold(tris[q]) == t_manifold(tris[q2]), (p, q, q2)
                    assert h1(tris[q]) == h1(tris[q2]), (p, q, q2)
    assert pairs == 554


def test_frozen_gluings():
    # pins the exact labeling of every layered triangulation, not just its
    # invariants: sha256 over the serialized T_(p,q), p-then-q order
    digest = hashlib.sha256()
    for p in range(4, 26):
        for q in range(1, p):
            if gcd(p, q) == 1:
                digest.update(serialize_triangulation(build_Tpq(p, q)).encode())
    assert digest.hexdigest() == (
        "b5462961e548733a75b1a81e3b0982b60f55d6abedf6c4ae8f5ce0db8f5f8d2b"
    )


def test_frozen_gluings_past_25():
    # the same pin past p = 25: every coprime (p, q) with 26 <= p <= 60, in
    # p-then-q order, then three subjects of a few hundred tetrahedra
    pairs = [(p, q) for p in range(26, 61) for q in range(1, p) if gcd(p, q) == 1]
    pairs += [(401, 1), (401, 150), (400, 171)]
    digest = hashlib.sha256()
    for p, q in pairs:
        digest.update(serialize_triangulation(build_Tpq(p, q)).encode())
    assert digest.hexdigest() == (
        "3a76ded51166ee109804ec08c14fe70aa83f700631c8b0ca3833c338130a53d1"
    )


def large_build_sample():
    """200 coprime (p, q) with 61 <= p <= 1000, drawn by a seeded random():
    q is within 9 of 1 or p in every fourth draw, for long words, and uniform
    in the rest; then the two subjects with S = S_MAX."""
    rng = random.Random(21)
    pairs = []
    while len(pairs) < 200:
        p = 61 + int(rng.random() * 940)
        if len(pairs) % 4 == 3:
            q = 1 + int(rng.random() * 9)
            q = q if rng.random() < 0.5 else p - q
        else:
            q = 1 + int(rng.random() * (p - 1))
        if gcd(p, q) == 1 and (p, q) not in pairs and lens_params(p, q).S <= S_MAX:
            pairs.append((p, q))
    return pairs + [(S_MAX, 1), (S_MAX, S_MAX - 1)]


def test_frozen_gluings_of_large_builds():
    # the same pin on the sample, in its order
    digest = hashlib.sha256()
    for p, q in large_build_sample():
        digest.update(serialize_triangulation(build_Tpq(p, q)).encode())
    assert digest.hexdigest() == (
        "eda2be7234c9c3510a4697f1e78b567200a094d73743d917c970b5145eebf5b5"
    )


@pytest.mark.parametrize("p", [401, S_MAX])
def test_long_layered_builds_pass_the_battery(p):
    # S = p when q = 1, so T_(S_MAX, 1) is the largest build accepted
    lp = lens_params(p, 1)
    assert lp.S == p
    tr = build_Tpq(p, 1)
    assert tr.n == lp.S - 3
    assert len(tr.vertex_classes) == 1
    assert len(tr.edge_classes) == lp.S - 2
    assert h1(tr) == (0, [p])


def test_lens_params_refuse_an_S_above_the_cap_at_once():
    # S comes from the continued fraction, so a huge p fails before its
    # word of S - 2 letters is built
    start = time.perf_counter()
    with pytest.raises(InvalidParamsError, match="S = 1000000000001; at most S = 1000"):
        lens_params(10**12 + 1, 1)
    assert time.perf_counter() - start < 0.5
    assert lens_params(S_MAX, 1).S == S_MAX
    assert lens_params(S_MAX, S_MAX - 1).S == S_MAX
    for p, q in [(S_MAX + 1, 1), (S_MAX + 1, S_MAX), (2 * S_MAX + 1, 2)]:
        with pytest.raises(InvalidParamsError, match=f"at most S = {S_MAX}"):
            lens_params(p, q)
        with pytest.raises(InvalidParamsError):
            build_Tpq(p, q)
        with pytest.raises(InvalidParamsError):
            t_expected(p, q)


def test_word_check_survives_optimized_mode(monkeypatch):
    # the check is a raise, not an assert, so python -O keeps it
    import tetspine.lens as lens

    monkeypatch.setattr(lens, "apply_word", lambda word, start=(1, 1): (0, 0))
    with pytest.raises(ConstructionInvariantError, match="does not carry"):
        lens_params(7, 2)


def test_t_expected_matches_t_manifold():
    for p, q in coprime_pairs(14):
        assert t_manifold(build_Tpq(p, q)) == t_expected(p, q), (p, q)
    assert [str(t_expected(p, q)) for p, q in [(6, 1), (7, 2), (5, 1), (5, 2), (10, 3), (10, 1)]] == [
        "1", "1+e", "2+e", "0", "0", "2+e"
    ]
    with pytest.raises(InvalidParamsError):
        t_expected(6, 3)
