"""Reference values the benchmark checks results against.

Nothing here calls into tetspine: the closed forms are computed from (p, q)
alone, and surface properties are read straight off normal coordinates.
"""

from __future__ import annotations

import math

# Vertex pairs of a tetrahedron's six edges, and the quad type that separates
# each pair from the opposite edge (type k separates {0, k+1}).
_QUAD_SEPARATING = {(0, 1): 0, (2, 3): 0, (0, 2): 1, (1, 3): 1, (0, 3): 2, (1, 2): 2}


def cf_sum(p: int, q: int) -> int:
    """Sum S of the partial quotients of the continued fraction of p/q."""
    total = 0
    while q:
        total += p // q
        p, q = q, p % q
    return total


def coprime_pairs(pmin: int, pmax: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(pmin, pmax + 1) for q in range(1, p) if math.gcd(p, q) == 1]


def lens_tets(p: int, q: int) -> int:
    return cf_sum(p, q) - 3


def lens_tori(p: int, q: int) -> int:
    """Tori in the census of the layered T_{p,q}: S - 3 for q = 1 or p - 1, else S - 4."""
    return cf_sum(p, q) - (3 if q in (1, p - 1) else 4)


def lens_klein(p: int, q: int) -> int:
    """Klein bottles in the census: 1 exactly when p = 4n and q = 2n +- 1."""
    return int(p % 4 == 0 and q in (p // 2 - 1, p // 2 + 1))


def lens_t(p: int, q: int) -> tuple[int, int]:
    """t-invariant of L(p, q) as (a, b) in a + b*e, from p and q mod 5."""
    pr, qr = p % 5, q % 5
    if pr in (1, 4):
        return (1, 0)
    if pr in (2, 3):
        return (1, 1)
    return (2, 1) if qr in (1, 4) else (0, 0)


def is_vertex_linking(surface) -> bool:
    """A normal surface with no quadrilaterals is a union of vertex links."""
    return not any(any(row) for row in surface.quad)


def max_edge_weight(surface) -> int:
    """Largest number of points in which the surface meets one tetrahedron edge."""
    best = 0
    for tri, quad in zip(surface.tri, surface.quad):
        for (u, v), skip in _QUAD_SEPARATING.items():
            weight = tri[u] + tri[v] + sum(x for k, x in enumerate(quad) if k != skip)
            best = max(best, weight)
    return best


def has_small_essential_surface(entries) -> bool:
    """Some census surface other than a vertex link meets every edge at most twice."""
    return any(
        not is_vertex_linking(e.surface) and max_edge_weight(e.surface) <= 2 for e in entries
    )
