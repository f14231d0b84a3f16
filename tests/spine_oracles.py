"""Theory checks on dual spines and their surfaces that no command runs,
kept as test oracles.

`surface_space_nullity` counts the surface subpolyhedra by linear algebra
over GF(2), apart from the enumeration it checks. `universal_subpolyhedron`
is the paper's Omega for triangulations with several vertex classes.
`quad_free_tetrahedra` is the cutting bound of a normal surface.
"""

from tetspine.spine import SpecialSpine, SubPolyhedron, dual_spine, subpolyhedron
from tetspine.triangulation import EDGE_PAIRS, Triangulation


def surface_space_nullity(spine: SpecialSpine) -> int:
    """GF(2) nullity of the map (face subsets) -> (edge germ parities).

    The kernel consists exactly of the face subsets that are closed
    surfaces, so 2**nullity counts them.
    """
    rank = 0
    basis: dict[int, int] = {}
    for germs in spine.edge_germs:
        row = 0
        for f in germs:
            row ^= 1 << f
        while row:
            h = row.bit_length() - 1
            if h in basis:
                row ^= basis[h]
            else:
                basis[h] = row
                rank += 1
                break
    return spine.num_faces - rank


def universal_subpolyhedron(tri: Triangulation) -> SubPolyhedron:
    """Faces of the dual spine touching two distinct complement components.

    The components of the spine complement correspond to vertex classes, so
    the mask collects the faces whose dual edge joins two distinct vertex
    classes. Empty when the triangulation has a single vertex class.
    """
    class_of = {s: vc.index for vc in tri.vertex_classes for s in vc.slots}
    mask = 0
    for f, ec in enumerate(tri.edge_classes):
        t, (u, v) = ec.rep // 6, EDGE_PAIRS[ec.rep % 6]
        if class_of[4 * t + u] != class_of[4 * t + v]:
            mask |= 1 << f
    return subpolyhedron(dual_spine(tri), mask)


def quad_free_tetrahedra(ns) -> int:
    """Tetrahedra where the normal surface has no quad: bounds the
    complexity after cutting along it."""
    return sum(1 for qs in ns.quad if not any(qs))
