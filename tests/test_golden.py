import random

import pytest

from tetspine.golden import EPS, ONE, ZERO, GoldenInt, divexact


def rand_elt(rng, span=10**6):
    return GoldenInt(rng.randint(-span, span), rng.randint(-span, span))


def test_defining_relation():
    assert EPS * EPS == ONE + EPS
    assert EPS**2 == GoldenInt(1, 1)


def test_frozen_products():
    assert GoldenInt(2, 1) ** 3 == GoldenInt(15, 20)
    assert GoldenInt(1, 1) * GoldenInt(1, -1) == GoldenInt(0, -1) * GoldenInt(0, 1) + 1
    # eps^n = F(n-1) + F(n) eps
    assert EPS**5 == GoldenInt(3, 5)
    assert EPS**10 == GoldenInt(34, 55)


def test_str_forms():
    cases = [
        (GoldenInt(0, 0), "0"),
        (GoldenInt(1, 0), "1"),
        (GoldenInt(0, 1), "e"),
        (GoldenInt(0, -1), "-e"),
        (GoldenInt(1, 1), "1+e"),
        (GoldenInt(2, 1), "2+e"),
        (GoldenInt(-1, 1), "-1+e"),
        (GoldenInt(1, -2), "1-2*e"),
        (GoldenInt(15, 20), "15+20*e"),
    ]
    for x, s in cases:
        assert str(x) == s
    assert repr(GoldenInt(2, 1)) == "GoldenInt(2, 1)"


def test_ring_axioms_randomized():
    rng = random.Random(0xA5)
    for _ in range(500):
        x, y, z = (rand_elt(rng) for _ in range(3))
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x
        assert x * ONE == x
        assert x + (-x) == ZERO


def test_norm_and_conjugate():
    rng = random.Random(0xB7)
    for _ in range(500):
        x, y = rand_elt(rng), rand_elt(rng)
        assert (x * y).norm() == x.norm() * y.norm()
        assert x * x.conj() == GoldenInt(x.norm(), 0)
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()


def test_units():
    # e^-1 = e - 1, the identity t_spine takes negative powers through
    assert EPS * (EPS - 1) == ONE
    with pytest.raises(ValueError):
        EPS**-1


def test_non_unit_has_no_inverse():
    two_plus_eps = GoldenInt(2, 1)
    assert two_plus_eps.norm() == 5
    # no x with x*(2+e) == 1 exists, as divexact confirms
    assert divexact(ONE, two_plus_eps) is None


def test_divexact_random_round_trips():
    rng = random.Random(0xC1)
    checked_nondiv = 0
    for _ in range(10_000):
        x = rand_elt(rng, span=10**4)
        y = rand_elt(rng, span=10**4)
        if not y:
            continue
        assert divexact(x * y, y) == x
        q = divexact(x, y)
        if q is None:
            checked_nondiv += 1
        else:
            assert q * y == x
    assert checked_nondiv > 5000  # random pairs are rarely exact multiples


def test_divexact_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        divexact(ONE, ZERO)
    assert divexact(ZERO, GoldenInt(3, 7)) == ZERO


def test_int_mixing():
    assert GoldenInt(2, 3) + 1 == GoldenInt(3, 3)
    assert 1 + GoldenInt(2, 3) == GoldenInt(3, 3)
    assert 5 - GoldenInt(2, 3) == GoldenInt(3, -3)
    assert GoldenInt(2, 3) * 4 == GoldenInt(8, 12)
    assert GoldenInt(7, 0) == 7
    assert GoldenInt(7, 1) != 7
    assert bool(ZERO) is False and bool(EPS) is True


def test_hashable():
    seen = {ZERO, ONE, EPS, GoldenInt(1, 1)}
    assert GoldenInt(0, 1) in seen
    assert GoldenInt(1, 2) not in seen
