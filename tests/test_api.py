import types

import tetspine

# Every public name the package exports; adding or removing one is an API change.
EXPORTS = {
    "CensusEntry", "ConstructionInvariantError", "EPS", "EnumerationBudgetError", "GluingError",
    "GoldenInt", "InternalLinkError", "InvalidBudgetError", "InvalidParamsError",
    "InvariantDivisionError", "LensParams", "MatchingViolationError", "MoveNotApplicableError",
    "NormalSurface", "NotASurfaceError", "NotClosedError", "NotSimpleError",
    "ONE", "ParseError", "SpecialSpine", "SplitMix64", "SubPolyhedron", "SurfaceReport",
    "TetspineError", "Triangulation", "UngluedFaceError", "ZERO", "applicable_moves", "apply_word",
    "build_Tpq", "census", "divexact", "dual_spine", "enumerate_simple_subpolyhedra", "h1",
    "iter_pachner_walk", "kappa_expected", "lens_params", "pachner_23", "pachner_32",
    "parse_triangulation", "random_pachner_walk", "reconstruct", "serialize_triangulation",
    "smith_diagonal", "split_components", "subpolyhedron", "t_expected", "t_manifold", "t_spine",
    "tau_expected", "type_II_surface", "type_I_surface",
}


def test_public_names_are_listed():
    # submodules are attributes of the package too, but not exports
    public = {
        name
        for name, value in vars(tetspine).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == EXPORTS
