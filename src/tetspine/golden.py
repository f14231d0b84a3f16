"""Exact arithmetic in Z[e] where e is a root of x^2 = x + 1: sums,
products, nonnegative powers, norms and exact division."""

from __future__ import annotations


class GoldenInt:
    """Integer combination a + b*e with e^2 = e + 1."""

    __slots__ = ("_a", "_b")

    def __init__(self, a: int, b: int = 0) -> None:
        self._a = a
        self._b = b

    @property
    def a(self) -> int:
        return self._a

    @property
    def b(self) -> int:
        return self._b

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = GoldenInt(other)
        if not isinstance(other, GoldenInt):
            return NotImplemented
        return self._a == other._a and self._b == other._b

    def __hash__(self) -> int:
        return hash((self._a, self._b))

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __neg__(self) -> GoldenInt:
        return GoldenInt(-self._a, -self._b)

    def __add__(self, other: GoldenInt | int) -> GoldenInt:
        if isinstance(other, int):
            other = GoldenInt(other)
        if not isinstance(other, GoldenInt):
            return NotImplemented
        return GoldenInt(self._a + other._a, self._b + other._b)

    __radd__ = __add__

    def __sub__(self, other: GoldenInt | int) -> GoldenInt:
        if isinstance(other, int):
            other = GoldenInt(other)
        if not isinstance(other, GoldenInt):
            return NotImplemented
        return GoldenInt(self._a - other._a, self._b - other._b)

    def __rsub__(self, other: GoldenInt | int) -> GoldenInt:
        return -self + other

    def __mul__(self, other: GoldenInt | int) -> GoldenInt:
        if isinstance(other, int):
            other = GoldenInt(other)
        if not isinstance(other, GoldenInt):
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        # e^2 = e + 1 folds the cross term back into both coordinates
        return GoldenInt(a1 * a2 + b1 * b2, a1 * b2 + a2 * b1 + b1 * b2)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> GoldenInt:
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            # refused up front: -1 >> 1 == -1, so the loop below would not end
            raise ValueError(f"negative power {k}; divide with divexact")
        base = self
        result = GoldenInt(1)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def norm(self) -> int:
        """Multiplicative norm a^2 + a*b - b^2."""
        return self._a * self._a + self._a * self._b - self._b * self._b

    def conj(self) -> GoldenInt:
        """Image under e -> 1 - e, the nontrivial ring automorphism."""
        return GoldenInt(self._a + self._b, -self._b)

    def __str__(self) -> str:
        a, b = self._a, self._b
        if b == 0:
            return str(a)
        if b == 1:
            eterm = "e"
        elif b == -1:
            eterm = "-e"
        else:
            eterm = f"{b}*e"
        if a == 0:
            return eterm
        sign = "+" if b > 0 else "-"
        mag = eterm.lstrip("-")
        return f"{a}{sign}{mag}"

    def __repr__(self) -> str:
        return f"GoldenInt({self._a}, {self._b})"


ZERO = GoldenInt(0)
ONE = GoldenInt(1)
EPS = GoldenInt(0, 1)


def divexact(x: GoldenInt, y: GoldenInt) -> GoldenInt | None:
    """Exact quotient x / y in Z[e], or None when y does not divide x."""
    if not y:
        raise ZeroDivisionError("division by zero")
    num = x * y.conj()
    d = y.norm()
    if num.a % d or num.b % d:
        return None
    return GoldenInt(num.a // d, num.b // d)
