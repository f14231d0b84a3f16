"""Command-line driver.

Exit codes: 0 success, 1 verification failure or write error, 2 usage or
parse error (a bad SPINE_FACE_BUDGET included), 3 enumeration budget
exceeded. A command returns 0, or 1 when a verification fails; when an
exception ends it, `main` prints the one error line and chooses the exit
code from one table. Data goes to stdout (TSV by default, JSON with
--format json); progress and warnings go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from collections import Counter

from .errors import (
    EnumerationBudgetError,
    GluingError,
    InvalidBudgetError,
    InvalidParamsError,
    MoveNotApplicableError,
    NotClosedError,
    ParseError,
    TetspineError,
)
from .homology import h1
from .lens import S_MAX, build_Tpq, kappa_expected, lens_params, t_expected, tau_expected
from .moves import SplitMix64, iter_pachner_walk, pachner_23, pachner_32
from .spine import dual_spine, enumerate_simple_subpolyhedra, t_manifold
from .surfaces import census
from .triangulation import Triangulation, parse_triangulation, serialize_triangulation


class _UsageError(TetspineError):
    """A command-line value the command refuses."""


# the exit code of each refusal, looked up along the exception's classes
# from the most derived; any other OSError or TetspineError exits 1
_EXIT_CODES = {
    EnumerationBudgetError: 3,
    _UsageError: 2,
    ParseError: 2,
    GluingError: 2,
    NotClosedError: 2,
    InvalidParamsError: 2,
    InvalidBudgetError: 2,
}

# the columns of each table, in the order of its row tuples
_SURFACE_COLUMNS = (
    "coords",
    "chi",
    "orientable",
    "connected",
    "classification",
    "trivial",
    "max_edge_weight",
    "provenance",
)
_SUBPOLYHEDRON_COLUMNS = ("faces", "v_q", "chi", "is_surface")
_LENS_COLUMNS = (
    "subject",
    "tets",
    "tets_expected",
    "h1_order",
    "h1_expected",
    "tau",
    "tau_expected",
    "kappa",
    "kappa_expected",
    "rp2",
    "nontrivial_spheres",
    "t",
    "status",
)
_EXISTENCE_COLUMNS = ("subject", "steps", "t", "status", "detail")


def _load(path: str) -> Triangulation:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end as parse_triangulation ends them, and the column counts
        # characters as it does: the bytes before exc.start are valid UTF-8
        lines = re.split(rb"\r\n|\r|\n", data[: exc.start])
        col = len(lines[-1].decode("utf-8")) + 1
        raise ParseError(
            f"byte {data[exc.start]:#04x} is not UTF-8 text", len(lines), col
        ) from None
    return parse_triangulation(text)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(columns: tuple[str, ...], rows: list[tuple], fmt: str) -> None:
    if fmt == "json":
        json.dump([dict(zip(columns, row)) for row in rows], sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        print("\t".join(columns))
        for row in rows:
            print("\t".join(map(_cell, row)))


def _coords_text(surface) -> str:
    c = surface.coords
    return ";".join(",".join(map(str, c[i : i + 7])) for i in range(0, len(c), 7))


# ---- commands ---------------------------------------------------------------------


def cmd_lens_build(args) -> int:
    params = lens_params(args.p, args.q)
    tri = build_Tpq(args.p, args.q)
    path = args.out or f"T_{args.p}_{args.q}.txt"
    text = serialize_triangulation(tri, comment=f"lens space ({args.p},{args.q})")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"S = {params.S}")
    print(f"tets = {tri.n}")
    print(f"word = {params.word}")
    print(f"wrote {path}")
    return 0


def cmd_invariant(args) -> int:
    tri = _load(args.file)
    value = t_manifold(tri)
    nonor = sum(1 for link in tri.vertex_links if not link.orientable)
    if nonor:
        print(f"warning: {nonor} non-orientable vertex link(s)", file=sys.stderr)
    print(f"t = {value}")
    print(f"vertices = {len(tri.vertex_classes)}")
    print(f"chi = {tri.euler_characteristic()}")
    print(f"kind = {tri.kind}")
    return 0


def cmd_surfaces(args) -> int:
    tri = _load(args.file)
    rows = []
    for entry in census(tri):
        rep = entry.report
        if rep.chi < args.chi_min:
            continue
        if args.nontrivial_only and rep.trivial:
            continue
        kind, faces = entry.surface.provenance
        rows.append(
            (
                _coords_text(entry.surface),
                rep.chi,
                rep.orientable,
                rep.connected,
                rep.classification,
                rep.trivial,
                rep.max_edge_weight,
                f"{kind}:{faces:#x}",
            )
        )
    _emit(_SURFACE_COLUMNS, rows, args.format)
    return 0


def cmd_subpolyhedra(args) -> int:
    tri = _load(args.file)
    spine = dual_spine(tri)
    if spine.has_degree_one_face:
        print(
            "warning: spine has a degree-1 edge class; faces may be non-cellular",
            file=sys.stderr,
        )
    rows = [
        (f"{q.faces:#x}", q.v_q, q.chi, q.is_surface)
        for q in enumerate_simple_subpolyhedra(spine)
    ]
    _emit(_SUBPOLYHEDRON_COLUMNS, rows, args.format)
    return 0


def cmd_pachner(args) -> int:
    tri = _load(args.file)
    kind, _, idx_text = args.move.partition(":")
    try:
        # ASCII digits only: "١" passes isdigit() and int() reads it as 1
        idx = int(idx_text) if idx_text.isascii() and idx_text.isdigit() else -1
    except ValueError:  # more than 4300 digits
        idx = -1
    if kind not in ("23", "32") or idx < 0:
        raise _UsageError(f"--move must be 23:<face> or 32:<edge>, got {args.move!r}")
    try:
        out = pachner_23(tri, idx) if kind == "23" else pachner_32(tri, idx)
    except MoveNotApplicableError as exc:
        # only here, where the command line names the move, is it a usage error
        raise _UsageError(str(exc)) from exc
    sys.stdout.write(serialize_triangulation(out, comment=f"after move {args.move}"))
    return 0


def cmd_verify_lens(args) -> int:
    if args.pmax < 4:
        raise _UsageError("--pmax must be at least 4")
    if args.pmax > S_MAX:
        # T_(pmax,1) has S = pmax
        raise _UsageError(f"--pmax must be at most {S_MAX}")
    rows = []
    for p in range(4, args.pmax + 1):
        print(f"verifying p = {p}", file=sys.stderr)
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            params = lens_params(p, q)
            tri = build_Tpq(p, q)
            # the trivial spheres are the only entries left out
            counts = Counter(
                rep.classification
                for rep in (e.report for e in census(tri))
                if not (rep.trivial and rep.classification == "sphere")
            )
            tau, kappa, rp2, bad_spheres = (counts[c] for c in ("torus", "klein", "rp2", "sphere"))
            betti, torsion = h1(tri)
            h1_order = torsion[0] if (betti, len(torsion)) == (0, 1) else f"({betti},{torsion})"
            t = t_manifold(tri)
            tau_want = tau_expected(p, q)
            kappa_want = kappa_expected(p, q)
            ok = (
                tri.n == params.S - 3
                and h1_order == p
                and tau == tau_want
                and kappa == kappa_want
                and rp2 == 0
                and bad_spheres == 0
                and t == t_expected(p, q)
            )
            rows.append(
                (
                    f"T_{p}_{q}",
                    tri.n,
                    params.S - 3,
                    h1_order,
                    p,
                    tau,
                    tau_want,
                    kappa,
                    kappa_want,
                    rp2,
                    bad_spheres,
                    str(t),
                    "ok" if ok else "fail",
                )
            )
            if not ok:
                _emit(_LENS_COLUMNS, rows, args.format)
                print(f"error: first failing subject is T_{p}_{q}", file=sys.stderr)
                return 1
    _emit(_LENS_COLUMNS, rows, args.format)
    return 0


_EXISTENCE_BASES = ((4, 1), (5, 1), (5, 2), (7, 2))


def _existence_check(tri: Triangulation, t: str) -> str | None:
    """None when the triangulation, of t-invariant t, has the existence property.
    T_5_2 passes: its copies are the closed one-tetrahedron tables with t = 0."""
    if tri.n == 1 and t == "0":
        return None
    nontrivial = [e for e in census(tri) if not e.report.trivial]
    if not nontrivial:
        return "no non-trivial normal surface"
    if not any(e.report.max_edge_weight <= 2 for e in nontrivial):
        return "no non-trivial surface with edge weights <= 2"
    return None


def cmd_verify_existence(args) -> int:
    if args.seeds < 1:
        raise _UsageError("--seeds must be at least 1")
    if args.steps < 0:
        raise _UsageError("--steps must be at least 0")
    master = SplitMix64(args.seed)
    rows = []
    failed = False
    for (p, q) in _EXISTENCE_BASES:
        base = build_Tpq(p, q)
        base_t = str(t_manifold(base))
        base_problem = _existence_check(base, base_t)
        for k in range(args.seeds):
            walk_seed = master.next()
            subject = f"T_{p}_{q}/seed{k}"
            print(f"walking {subject} (seed {walk_seed:#x})", file=sys.stderr)
            problem = base_problem
            if problem is None:
                for step, cur in enumerate(iter_pachner_walk(base, args.steps, walk_seed)):
                    cur_t = str(t_manifold(cur))
                    if cur_t != base_t:
                        problem = f"t changed at step {step + 1}: {base_t} -> {cur_t}"
                        break
                    problem = _existence_check(cur, cur_t)
                    if problem is not None:
                        problem = f"step {step + 1}: {problem}"
                        break
            failed = failed or problem is not None
            status = "ok" if problem is None else "fail"
            rows.append((subject, args.steps, base_t, status, problem or ""))
    _emit(_EXISTENCE_COLUMNS, rows, args.format)
    return 1 if failed else 0


# ---- parser -----------------------------------------------------------------------


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tetspine",
        description="Triangulated 3-manifolds: spines, invariants, normal surfaces.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lens-build", help="write the layered (p,q) lens triangulation")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.add_argument("-o", "--out", help="output path (default T_<p>_<q>.txt)")
    p.set_defaults(func=cmd_lens_build)

    p = sub.add_parser("invariant", help="golden-ring invariant and basic data")
    p.add_argument("file")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("surfaces", help="normal surface census")
    p.add_argument("file")
    p.add_argument("--chi-min", type=int, default=-(10**9))
    p.add_argument("--connected-only", action="store_true", help="no effect: entries are connected")
    p.add_argument("--nontrivial-only", action="store_true")
    _add_format(p)
    p.set_defaults(func=cmd_surfaces)

    p = sub.add_parser("subpolyhedra", help="simple subpolyhedra of the dual spine")
    p.add_argument("file")
    _add_format(p)
    p.set_defaults(func=cmd_subpolyhedra)

    p = sub.add_parser("pachner", help="apply one bistellar move")
    p.add_argument("file")
    p.add_argument("--move", required=True, metavar="23:<face>|32:<edge>")
    p.set_defaults(func=cmd_pachner)

    v = sub.add_parser("verify", help="verification suites")
    vsub = v.add_subparsers(dest="suite", required=True)

    p = vsub.add_parser("lens", help="lens census against expected counts")
    p.add_argument("--pmax", type=int, required=True)
    _add_format(p)
    p.set_defaults(func=cmd_verify_lens)

    p = vsub.add_parser("existence", help="non-trivial surfaces along random walks")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="master seed for the walk-seed stream")
    _add_format(p)
    p.set_defaults(func=cmd_verify_existence)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, TetspineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES), 1)


if __name__ == "__main__":
    sys.exit(main())
