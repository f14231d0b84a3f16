"""Lens-space triangulations built by layering along a continued fraction.

p/q expands as a regular continued fraction whose partial quotients sum
to S. A word over {r, l} with S - 2 letters carries (1, 1) to (q, p - q)
under r(a, b) = (a, a + b) and l(a, b) = (a + b, b), rightmost letter
applied first. The triangulation spends S - 3 tetrahedra: a folded
one-tetrahedron block realizes the first applied letter, every further
letter except the final one layers a tetrahedron across an edge of the
two-triangle boundary torus, and the final letter folds the two
remaining boundary triangles onto each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    ConstructionInvariantError,
    InvalidParamsError,
    TetspineError,
)
from .golden import GoldenInt
from .homology import h1
from .triangulation import (
    FACE_EDGES,
    FACE_VERTS,
    SignedEdgeUnion,
    Triangulation,
    edge_slot,
    perm_inverse,
)

Pair = tuple[int, int]

# The largest sum S of partial quotients lens_params accepts. T_(p,q) has
# S - 3 tetrahedra and its build takes time linear in S; a larger S is
# refused before any word or table is built.
S_MAX = 1000


@dataclass(frozen=True)
class LensParams:
    p: int
    q: int
    cf: tuple[int, ...]
    S: int
    word: str


def apply_word(word: str, start: Pair = (1, 1)) -> Pair:
    """Apply the letters of the word to a pair, rightmost letter first."""
    x, y = start
    for ch in reversed(word):
        if ch == "r":
            y = x + y
        elif ch == "l":
            x = x + y
        else:
            raise InvalidParamsError(f"word letter must be r or l, got {ch!r}")
    return (x, y)


def lens_params(p: int, q: int) -> LensParams:
    """The continued fraction of p/q, its sum S and the word of T_(p,q).

    Raises InvalidParamsError unless p >= 4, 0 < q < p, gcd(p, q) = 1 and
    S <= S_MAX; S is checked from the continued fraction, in O(log p) steps,
    before the S - 2 letter word is built.
    """
    if p < 4:
        raise InvalidParamsError(f"p must be at least 4, got {p}")
    if not 0 < q < p:
        raise InvalidParamsError(f"q must satisfy 0 < q < p, got {q}")
    if math.gcd(p, q) != 1:
        raise InvalidParamsError(f"p and q must be coprime, got ({p}, {q})")
    cf = []
    a, b = p, q
    while b:
        cf.append(a // b)
        a, b = b, a % b
    S = sum(cf)
    if S > S_MAX:
        raise InvalidParamsError(
            f"the partial quotients of {p}/{q} sum to S = {S}; at most S = {S_MAX} is supported"
        )
    # walk back from (q, p-q) to (1, 1); letters come out last-applied first
    letters = []
    x, y = q, p - q
    while (x, y) != (1, 1):
        if x < y:
            letters.append("r")
            y -= x
        else:
            letters.append("l")
            x -= y
    word = "".join(letters)
    if len(word) != S - 2 or apply_word(word) != (q, p - q):
        raise ConstructionInvariantError(
            f"word {word!r} of ({p}, {q}) does not carry (1, 1) to"
            f" ({q}, {p - q}) in S - 2 letters"
        )
    return LensParams(p=p, q=q, cf=tuple(cf), S=S, word=word)


def tau_expected(p: int, q: int) -> int:
    """Count of tori the surface census should find on the layered model.

    S - 3 when the word is a single repeated letter (q = 1 or q = p - 1,
    where two spine faces that meet an edge twice coincide), S - 4 for
    every mixed word.
    """
    params = lens_params(p, q)
    return params.S - 3 if q in (1, p - 1) else params.S - 4


def kappa_expected(p: int, q: int) -> int:
    """Count of Klein bottles the census should find: 1 iff p = 4n, q = 2n +- 1."""
    lens_params(p, q)
    if p % 4 == 0:
        half = p // 2
        if q in (half - 1, half + 1):
            return 1
    return 0


def t_expected(p: int, q: int) -> GoldenInt:
    """The t-invariant of L(p, q), in closed form from p and q mod 5.

    1 when p = +-1 (mod 5), 1+e when p = +-2; when 5 divides p, 2+e when
    q = +-1 (mod 5) and 0 when q = +-2. This agrees with the r = 5
    Turaev-Viro invariant.
    """
    lens_params(p, q)
    if p % 5 in (1, 4):
        return GoldenInt(1)
    if p % 5 in (2, 3):
        return GoldenInt(1, 1)
    return GoldenInt(2, 1) if q % 5 in (1, 4) else GoldenInt(0)


# ---- layered construction --------------------------------------------------------


# The labeling choices for the folds and layers are not free: they were
# fixed once by searching the whole choice space (which faces the first fold
# joins and by which permutation, which free face starts as boundary slot A,
# the x/y roles, the endpoint labeling of each layer, which fresh face becomes
# the new slot A, and the closing corner map) for the assignment under which
# the finished triangulations pass the self-check battery (tetrahedron count,
# single vertex, first homology, census counts) on a spread of (p, q) inputs.
_INIT_PERM = (1, 2, 3, 0)  # folds face 0 of tetrahedron 0 onto face 1
_ROLES_R = (1, 2)  # (x, y) edge indices on slot A when the first letter is r
# corner images of the closing fold, keyed by the last-applied letter word[0]
_CLOSE_RULE = {
    "r": {"xy": "yd", "xd": "xd", "yd": "xy"},
    "l": {"xy": "xd", "xd": "xy", "yd": "yd"},
}


def _resolve_roles(
    union: SignedEdgeUnion,
    slot: tuple[int, int],
    role_x: tuple[int, int, int],
    role_y: tuple[int, int, int],
) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """The x-role, y-role, and diagonal edge of one boundary triangle."""
    t, f = slot
    rx = union.find(edge_slot(*role_x))[0]
    ry = union.find(edge_slot(*role_y))[0]
    ex = ey = ed = None
    for (u, v) in FACE_EDGES[f]:
        r = union.find(edge_slot(t, u, v))[0]
        if r == rx:
            ex = (u, v)
        elif r == ry:
            ey = (u, v)
        else:
            ed = (u, v)
    if ex is None or ey is None or ed is None:
        raise ConstructionInvariantError(
            "boundary triangle does not meet all three torus edge classes"
        )
    return ex, ey, ed


def _build_layered(params: LensParams) -> Triangulation:
    word = params.word
    gluings: dict = {}
    # the edge classes of the layers glued so far, kept across all layers
    union = SignedEdgeUnion(1)

    def glue(ta: int, fa: int, tb: int, fb: int, perm: tuple) -> None:
        gluings[(ta, fa)] = (tb, fb, perm)
        gluings[(tb, fb)] = (ta, fa, perm_inverse(perm))
        union.glue(ta, fa, tb, perm)

    # initial block: one tetrahedron with two faces folded together
    glue(0, 0, 0, 1, _INIT_PERM)
    sa, sb = (0, 2), (0, 3)
    n = 1

    first = word[-1]
    edges_sa = FACE_EDGES[sa[1]]
    ix, iy = _ROLES_R if first == "r" else (_ROLES_R[1], _ROLES_R[0])
    role_x = (sa[0], *edges_sa[ix])
    role_y = (sa[0], *edges_sa[iy])

    # middle letters, one layered tetrahedron each, right to left
    for ch in reversed(word[1:-1]):
        exa, eya, eda = _resolve_roles(union, sa, role_x, role_y)
        exb, eyb, _ = _resolve_roles(union, sb, role_x, role_y)
        bury_a, bury_b = (eya, eyb) if ch == "r" else (exa, exb)
        ta, fa = sa
        tb, fb = sb
        third_a = next(v for v in FACE_VERTS[fa] if v not in bury_a)
        third_b = next(v for v in FACE_VERTS[fb] if v not in bury_b)
        # both buried edges lie in one class; b's endpoints are swapped when
        # its ascending order runs against a's
        if union.find(edge_slot(ta, *bury_a))[1] == union.find(edge_slot(tb, *bury_b))[1]:
            b_pair = bury_b
        else:
            b_pair = (bury_b[1], bury_b[0])
        union.add_tetrahedron()
        glue(n, 3, ta, fa, (bury_a[0], bury_a[1], third_a, fa))
        glue(n, 2, tb, fb, (b_pair[0], b_pair[1], fb, third_b))
        if ch == "r":
            role_y = (ta, *eda)
        else:
            role_x = (ta, *eda)
        sa, sb = (n, 0), (n, 1)
        n += 1

    # final letter: fold the two boundary triangles onto each other
    exa, eya, eda = _resolve_roles(union, sa, role_x, role_y)
    exb, eyb, edb = _resolve_roles(union, sb, role_x, role_y)
    corners_a = {
        "xy": (set(exa) & set(eya)).pop(),
        "xd": (set(exa) & set(eda)).pop(),
        "yd": (set(eya) & set(eda)).pop(),
    }
    corners_b = {
        "xy": (set(exb) & set(eyb)).pop(),
        "xd": (set(exb) & set(edb)).pop(),
        "yd": (set(eyb) & set(edb)).pop(),
    }
    rule = _CLOSE_RULE[word[0]]
    vmap = {corners_a[name]: corners_b[rule[name]] for name in ("xy", "xd", "yd")}
    vmap[sa[1]] = sb[1]
    glue(sa[0], sa[1], sb[0], sb[1], tuple(vmap[k] for k in range(4)))
    return Triangulation(n, gluings)


def build_Tpq(p: int, q: int) -> Triangulation:
    """Closed 1-vertex triangulation of the (p, q) lens space, S - 3 tetrahedra."""
    params = lens_params(p, q)
    try:
        tri = _build_layered(params)
    except TetspineError as exc:
        raise ConstructionInvariantError(
            f"building T_({p},{q}) failed: {exc}"
        ) from exc
    problems = []
    if tri.n != params.S - 3:
        problems.append(f"tetrahedron count {tri.n}, expected {params.S - 3}")
    if not tri.is_closed:
        problems.append("triangulation is not closed")
    if len(tri.vertex_classes) != 1:
        problems.append(f"{len(tri.vertex_classes)} vertices, expected 1")
    if len(tri.edge_classes) != params.S - 2:
        problems.append(
            f"{len(tri.edge_classes)} edge classes, expected {params.S - 2}"
        )
    homology = h1(tri)
    if homology != (0, [p]):
        problems.append(f"H1 is {homology}, expected (0, [{p}])")
    if problems:
        raise ConstructionInvariantError(
            f"T_({p},{q}) self-check failed: " + "; ".join(problems)
        )
    return tri
