"""Exact combinatorics of triangulated 3-manifolds.

Triangulations with face gluings, their dual special spines, simple
subpolyhedron enumeration, a golden-ring invariant, normal surfaces of
types I and II, Pachner moves, and layered lens-space triangulations.
"""

from .errors import (
    ConstructionInvariantError,
    EnumerationBudgetError,
    GluingError,
    InternalLinkError,
    InvalidBudgetError,
    InvalidParamsError,
    InvariantDivisionError,
    MatchingViolationError,
    MoveNotApplicableError,
    NotASurfaceError,
    NotClosedError,
    NotSimpleError,
    ParseError,
    TetspineError,
    UngluedFaceError,
)
from .golden import EPS, ONE, ZERO, GoldenInt, divexact
from .homology import h1, smith_diagonal
from .lens import (
    LensParams,
    apply_word,
    build_Tpq,
    kappa_expected,
    lens_params,
    t_expected,
    tau_expected,
)
from .moves import (
    SplitMix64,
    applicable_moves,
    iter_pachner_walk,
    pachner_23,
    pachner_32,
    random_pachner_walk,
)
from .spine import (
    SpecialSpine,
    SubPolyhedron,
    dual_spine,
    enumerate_simple_subpolyhedra,
    subpolyhedron,
    t_manifold,
    t_spine,
)
from .surfaces import (
    CensusEntry,
    NormalSurface,
    SurfaceReport,
    census,
    reconstruct,
    split_components,
    type_I_surface,
    type_II_surface,
)
from .triangulation import (
    Triangulation,
    parse_triangulation,
    serialize_triangulation,
)

__version__ = "1.0.0"
