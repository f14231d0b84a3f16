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
from .triangulation import Triangulation, perm_inverse

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
# joins and by which permutation, which free face starts as boundary triangle
# A, the x/y roles, the endpoint labeling of each layer, which fresh face
# becomes the new triangle A, and the closing corner map) for the assignment
# under which the finished triangulations pass the self-check battery
# (tetrahedron count, single vertex, first homology, census counts) on a
# spread of (p, q) inputs. The first two are the constants below, the rest
# are written out in _build_layered.
_INIT_PERM = (1, 2, 3, 0)  # folds face 0 of tetrahedron 0 onto face 1
# the x, y and d edges of boundary triangles A = face 2 and B = face 3 of the
# folded tetrahedron when the first letter is r, as vertex pairs on A and on
# B: the fold carries edge (1, 2) onto (2, 3), that onto (3, 0), and (1, 3)
# onto (2, 0)
_INIT_ROLES = (((0, 3), (2, 1)), ((1, 3), (2, 0)), ((0, 1), (0, 1)))
# the role a letter buries: y for r, x for l
_BURY = {"r": 1, "l": 0}


def _build_layered(params: LensParams) -> Triangulation:
    """Glue the layers of T_(p,q), tracking only the two boundary triangles.

    Each boundary triangle holds its x, y and d edges (roles 0, 1, 2) as
    vertex pairs, each running the same way as its copy on the other
    triangle. A layer buries the letter's role k: the new tetrahedron's edge
    (0, 1) is glued along it, its face 3 onto A and its face 2 onto B. The
    other two roles carry over through the inverse gluings, onto the new
    tetrahedron's edges to vertex 2 (from A) or to vertex 3 (from B). Its
    face 0 becomes the new A and takes the carried edges that hold vertex 1,
    and its face 1 the new B and those that hold vertex 0. The other of x
    and y keeps its role, the old d takes role k, and (2, 3) is the new d on
    both.

    The two carried edges of a new face have different roles, so no check
    is needed. The boundary torus has one vertex, and around it an edge end
    lies in one corner of A and one of B, next to ends of the other two
    edges, one in each corner. Vertex 0 of the new tetrahedron is the tail
    of the buried edge on both triangles, and vertex 1 its head, so the
    edges carried to either come from the two corners there: one from each
    of the other two roles.
    """
    word = params.word
    gluings: dict = {}

    def glue(ta: int, fa: int, tb: int, fb: int, perm: tuple) -> None:
        gluings[(ta, fa)] = (tb, fb, perm)
        gluings[(tb, fb)] = (ta, fa, perm_inverse(perm))

    # initial block: one tetrahedron with two faces folded together
    glue(0, 0, 0, 1, _INIT_PERM)
    (ta, fa), (tb, fb) = (0, 2), (0, 3)
    x, y, d = _INIT_ROLES
    roles = [x, y, d] if word[-1] == "r" else [y, x, d]
    n = 1

    # middle letters, one layered tetrahedron each, right to left; the
    # vertices of face f sum to 6 - f, so its vertex off edge (u, v) is
    # 6 - f - u - v
    for ch in reversed(word[1:-1]):
        k = _BURY[ch]
        (ua, va), (ub, vb) = roles[k]
        bury_a, b_pair = ((ua, va), (ub, vb)) if ua < va else ((va, ua), (vb, ub))
        perm_a = (*bury_a, 6 - fa - ua - va, fa)
        perm_b = (*b_pair, fb, 6 - fb - ub - vb)
        glue(n, 3, ta, fa, perm_a)
        glue(n, 2, tb, fb, perm_b)
        inv_a, inv_b = perm_inverse(perm_a), perm_inverse(perm_b)
        carried = [[None, None], [None, None], [(2, 3), (2, 3)]]
        for j, role in ((1 - k, 1 - k), (2, k)):
            (pa, qa), (pb, qb) = roles[j]
            for u, v in ((inv_a[pa], inv_a[qa]), (inv_b[pb], inv_b[qb])):
                carried[role][0 if 1 in (u, v) else 1] = (u, v)
        roles = carried
        (ta, fa), (tb, fb) = (n, 0), (n, 1)
        n += 1

    # final letter: fold A onto B. The corner opposite each role on A goes to
    # the corner opposite its image on B; the letter's role k is its own
    # image, and the other two roles swap.
    k = _BURY[word[0]]
    vmap = [0, 0, 0, 0]
    vmap[fa] = fb
    for i, (pair_a, _) in enumerate(roles):
        pair_b = roles[k if i == k else 3 - k - i][1]
        vmap[6 - fa - sum(pair_a)] = 6 - fb - sum(pair_b)
    glue(ta, fa, tb, fb, tuple(vmap))
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
