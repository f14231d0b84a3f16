"""Frozen triangulation files shared across the test suite.

All of these were produced by exhaustive search over small face pairings
(or by serialize_triangulation on a layered lens build) and then frozen as
text, so the tests exercise the parser on every path.
"""

# 1 tet, closed, 1 vertex, H1 = Z/4; the spine face set carries a Klein bottle
T41 = """\
tets: 1
g 0 0 0 1 1230
g 0 1 0 0 3012
g 0 2 0 3 1230
g 0 3 0 2 3012
"""

# 1 tet, closed, 1 vertex, H1 = Z/5; spine has no proper nonempty simple part
T52 = """\
tets: 1
g 0 0 0 1 1230
g 0 1 0 0 3012
g 0 2 0 3 2031
g 0 3 0 2 1302
"""

# 1 tet, closed, 2 vertex classes, H1 = 0 (a 3-sphere with an extra vertex)
S3_ONE_TET = """\
tets: 1
g 0 0 0 1 1023
g 0 1 0 0 1023
g 0 2 0 3 0132
g 0 3 0 2 0132
"""

# 2 tets glued by the identity on all 4 faces: S^3 as a doubled ball,
# 4 vertex classes, 6 edge classes of degree 2
DOUBLE = """\
tets: 2
g 0 0 1 0 0123
g 0 1 1 1 0123
g 0 2 1 2 0123
g 0 3 1 3 0123
g 1 0 0 0 0123
g 1 1 0 1 0123
g 1 2 0 2 0123
g 1 3 0 3 0123
"""

# 2 tets, 1 vertex class whose link is a torus (an ideal triangulation)
CUSPED = """\
tets: 2
g 0 0 0 1 1023
g 0 1 0 0 1023
g 0 2 1 0 1203
g 0 3 1 1 0231
g 1 0 0 2 2013
g 1 1 0 3 0312
g 1 2 1 3 1230
g 1 3 1 2 3012
"""

# 2 tets, both vertex links are projective planes
RP2LINK = """\
tets: 2
g 0 0 0 1 1023
g 0 1 0 0 1023
g 0 2 1 0 1203
g 0 3 1 1 3201
g 1 0 0 2 2013
g 1 1 0 3 2310
g 1 2 1 3 0231
g 1 3 1 2 0312
"""

# 2 tets, 2 vertex classes whose links are Klein bottles (so not a closed
# manifold); Omega is face 0, and the only simple subpolyhedra are the empty
# set, Omega and the whole spine. Found by a seeded scan of random
# 2-tetrahedron tables, as a subject for the Omega-only identity in test_spine
TWO_KLEIN = """\
tets: 2
g 0 0 1 2 2130
g 0 1 1 1 3120
g 0 2 1 0 3102
g 0 3 1 3 2103
g 1 0 0 2 2130
g 1 1 0 1 3120
g 1 2 0 0 3102
g 1 3 0 3 2103
"""
