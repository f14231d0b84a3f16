"""The benchmark's workloads: seeded inputs, one subject at a time, and checks.

Every workload draws its inputs from the workload seed through one relabeling
stream: each subject triangulation gets its tetrahedra and the vertices of
each tetrahedron renamed, and seed 0 keeps every label. Relabeling changes the
order in which the pipeline meets faces and surfaces, not the amount of work,
so runs with different seeds measure the same work. The Pachner walks
themselves come from a fixed SplitMix64 stream (master seed 0, the default of
`tetspine verify existence`): the cost of a walk descendant of a given width
varies about tenfold from walk to walk (816 to 8518 simple subpolyhedra at 20
faces), which would swamp any bound on run-to-run spread.

Calls go through the `tetspine` module attributes at call time, so the
timing wrappers installed by `tracing.install` see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import tetspine as ts
from tetspine import cli

import oracles

_MASK64 = (1 << 64) - 1
_EDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
WALK_MASTER_SEED = 0


class SetupError(Exception):
    """Generated inputs failed their self-check."""


class Stream:
    """SplitMix64 words for the relabelings, kept apart from tetspine's own."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def perm(self, n: int) -> tuple[int, ...]:
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.next() % (i + 1)
            out[i], out[j] = out[j], out[i]
        return tuple(out)


def label_stream(seed: int) -> Stream | None:
    """None, meaning identity labels, for seed 0."""
    return None if seed == 0 else Stream(seed)


def make_labels(rng: Stream | None, n: int) -> tuple:
    """(tetrahedron permutation, vertex permutation of each old tetrahedron)."""
    if rng is None:
        return tuple(range(n)), ((0, 1, 2, 3),) * n
    return rng.perm(n), tuple(rng.perm(4) for _ in range(n))


def relabel_table(tri, labels) -> dict:
    """Gluing table of tri with tetrahedron t renamed tet_perm[t] and its
    vertex v renamed vert_perms[t][v]."""
    tet_perm, vert_perms = labels
    table = {}
    for t in range(tri.n):
        s = vert_perms[t]
        for f in range(4):
            t2, f2, perm = tri.gluing(t, f)
            s2 = vert_perms[t2]
            new = [0, 0, 0, 0]
            for v in range(4):
                new[s[v]] = s2[perm[v]]
            table[(tet_perm[t], s[f])] = (tet_perm[t2], s2[f2], tuple(new))
    return table


@dataclass(frozen=True)
class Subject:
    name: str
    p: int  # the lens space L(p, q) the triangulation carries
    q: int
    labels: tuple | None = None  # lens-census: applied to a fresh build
    n: int = 0
    table: dict | None = None  # walk workloads: relabeled gluing table
    move: tuple[str, int] | None = None  # walk-existence: applied in the pass


class Check:
    """Collects the oracle failures of one subject, each naming where it happened."""

    def __init__(self, workload: str, subject: str) -> None:
        self.where = f"{workload} {subject}"
        self.stage = "start"
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(f"{self.where} [{self.stage}] {what}")


def _t_pair(t) -> tuple[int, int]:
    return (t.a, t.b)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _compare_cli_t(argv, rows_key, library: dict[str, str]) -> list[str]:
    code, text = run_cli(argv)
    if code != 0:
        return [f"cli {' '.join(argv)} exited {code}"]
    problems = []
    rows = json.loads(text)
    if not rows:
        problems.append(f"cli {' '.join(argv)} printed no rows")
    for row in rows:
        key = rows_key(row["subject"])
        if library.get(key) != row["t"]:
            problems.append(f"cli {' '.join(argv)}: t of {row['subject']} is {row['t']}, library gives {library.get(key)}")
    return problems


def _relabeled(name, tri, p, q, rng, reference, move=None) -> Subject:
    """Relabel tri and translate the move; check the result against reference."""
    labels = make_labels(rng, tri.n)
    table = relabel_table(tri, labels)
    moved = ts.Triangulation(tri.n, table)
    result = moved
    if move is not None:
        kind, idx = move
        tet_perm, vert_perms = labels
        if kind == "23":
            t, f = tri.triangle_classes[idx].rep
            move = ("23", moved.triangle_class_of(tet_perm[t], vert_perms[t][f]))
            result = ts.pachner_23(moved, move[1])
        else:
            slot = tri.edge_classes[idx].rep
            t, (u, v) = slot // 6, _EDGE_PAIRS[slot % 6]
            s = vert_perms[t]
            move = ("32", moved.edge_class_of(tet_perm[t], s[u], s[v]))
            result = ts.pachner_32(moved, move[1])
    if not result.is_isomorphic_to(reference):
        raise SetupError(f"{name}: relabeled input is not isomorphic to its source")
    return Subject(name, p, q, n=tri.n, table=table, move=move)


class LensCensus:
    name = "lens-census"
    why = "the verify-lens loop over every coprime T_(p,q), p <= 14: census-bound, few large censuses"
    PMAX = 14
    CLI_PMAX = 7

    def setup(self, seed: int) -> list[Subject]:
        rng = label_stream(seed)
        subjects = []
        for p, q in oracles.coprime_pairs(4, self.PMAX):
            built = ts.build_Tpq(p, q)
            labels = make_labels(rng, built.n)
            if not ts.Triangulation(built.n, relabel_table(built, labels)).is_isomorphic_to(built):
                raise SetupError(f"T_{p}_{q}: relabeled input is not isomorphic to its source")
            subjects.append(Subject(f"T_{p}_{q}", p, q, labels=labels))
        return subjects

    def begin_pass(self):
        return None

    def run(self, s: Subject, state, chk: Check):
        p, q = s.p, s.q
        chk.stage = "build"
        built = ts.build_Tpq(p, q)
        tri = ts.Triangulation(built.n, relabel_table(built, s.labels))
        chk.expect(tri.n == oracles.lens_tets(p, q), f"{tri.n} tetrahedra, expected {oracles.lens_tets(p, q)}")
        chk.stage = "census"
        entries = ts.census(tri)
        kinds = Counter(e.report.classification for e in entries)
        chk.expect(kinds["torus"] == oracles.lens_tori(p, q), f"{kinds['torus']} tori, expected {oracles.lens_tori(p, q)}")
        chk.expect(kinds["klein"] == oracles.lens_klein(p, q), f"{kinds['klein']} Klein bottles, expected {oracles.lens_klein(p, q)}")
        chk.expect(kinds["rp2"] == 0, f"{kinds['rp2']} projective planes, expected 0")
        spheres = sum(
            1 for e in entries if e.report.classification == "sphere" and not oracles.is_vertex_linking(e.surface)
        )
        chk.expect(spheres == 0, f"{spheres} non-trivial spheres, expected 0")
        chk.stage = "h1"
        betti, torsion = ts.h1(tri)
        chk.expect(betti == 0 and math.prod(torsion) == p, f"H1 = ({betti}, {torsion}), expected order {p}")
        chk.stage = "t"
        t = ts.t_manifold(tri)
        chk.expect(_t_pair(t) == oracles.lens_t(p, q), f"t = {t}, expected {oracles.lens_t(p, q)}")
        return (s.name, str(t), len(entries))

    def cli_check(self, subjects, digest, out_dir: Path) -> list[str]:
        library = {name: t for name, t, _ in digest}
        argv = ["verify", "lens", "--pmax", str(self.CLI_PMAX), "--format", "json"]
        return _compare_cli_t(argv, lambda subject: subject, library)


class WalkInvariant:
    name = "walk-invariant"
    why = "t_manifold on 20-face walk descendants of T_21_4: enumeration and state sum only, no census"
    BASE = (21, 4)
    WIDTH = 20  # spine faces; about 0.1-0.3 s per subject, so a pass takes a few seconds
    SUBJECTS = 20
    MAX_STEPS = 200

    def setup(self, seed: int) -> list[Subject]:
        rng = label_stream(seed)
        p, q = self.BASE
        base = ts.build_Tpq(p, q)
        master = ts.SplitMix64(WALK_MASTER_SEED)
        subjects = []
        for k in range(self.SUBJECTS):
            for cur in ts.iter_pachner_walk(base, self.MAX_STEPS, master.next()):
                if len(cur.edge_classes) == self.WIDTH:
                    break
            else:
                raise SetupError(f"walk {k} reached no {self.WIDTH}-face spine in {self.MAX_STEPS} steps")
            subjects.append(_relabeled(f"T_{p}_{q}/walk{k}/{self.WIDTH}f", cur, p, q, rng, cur))
        return subjects

    def begin_pass(self):
        return None

    def run(self, s: Subject, state, chk: Check):
        chk.stage = "load"
        tri = ts.Triangulation(s.n, s.table)
        chk.stage = "t"
        t = ts.t_manifold(tri)
        chk.expect(_t_pair(t) == oracles.lens_t(s.p, s.q), f"t = {t}, expected {oracles.lens_t(s.p, s.q)} as for the base")
        return (s.name, str(t), None)

    def cli_check(self, subjects, digest, out_dir: Path) -> list[str]:
        s = subjects[0]
        path = out_dir / "walk-invariant-subject.txt"
        path.write_text(ts.serialize_triangulation(ts.Triangulation(s.n, s.table)), encoding="utf-8")
        code, text = run_cli(["invariant", str(path)])
        if code != 0:
            return [f"cli invariant exited {code}"]
        cli_t = next((line[4:] for line in text.splitlines() if line.startswith("t = ")), None)
        if cli_t != digest[0][1]:
            return [f"cli invariant: t of {s.name} is {cli_t}, library gives {digest[0][1]}"]
        return []


class WalkExistence:
    name = "walk-existence"
    why = "the verify-existence loop, 4 bases x 5 walks x 10 steps: moves, isomorphism and many small censuses"
    BASES = ((4, 1), (5, 1), (5, 2), (7, 2))
    WALKS = 5
    STEPS = 10

    def setup(self, seed: int) -> list[Subject]:
        rng = label_stream(seed)
        master = ts.SplitMix64(WALK_MASTER_SEED)
        subjects = []
        for p, q in self.BASES:
            base = ts.build_Tpq(p, q)
            subjects.append(_relabeled(f"T_{p}_{q}/base", base, p, q, rng, base))
            for k in range(self.WALKS):
                walk_seed = master.next()
                choice = ts.SplitMix64(walk_seed)
                cur = base
                for step, reference in enumerate(ts.iter_pachner_walk(base, self.STEPS, walk_seed), 1):
                    moves = ts.applicable_moves(cur)
                    move = moves[choice.below(len(moves))] if moves else None
                    name = f"T_{p}_{q}/seed{k}/step{step}"
                    subjects.append(_relabeled(name, cur, p, q, rng, reference, move))
                    cur = reference
        return subjects

    def begin_pass(self):
        return {"t52": ts.build_Tpq(5, 2), "base_t": {}}

    def run(self, s: Subject, state, chk: Check):
        chk.stage = "move"
        cur = ts.Triangulation(s.n, s.table)
        if s.move is not None:
            kind, idx = s.move
            chk.expect(s.move in ts.applicable_moves(cur), f"move {kind}:{idx} is not applicable")
            cur = ts.pachner_23(cur, idx) if kind == "23" else ts.pachner_32(cur, idx)
        chk.stage = "t"
        t = ts.t_manifold(cur)
        base_t = state["base_t"].setdefault((s.p, s.q), str(t))
        chk.expect(str(t) == base_t, f"t changed along the walk: {base_t} -> {t}")
        chk.expect(_t_pair(t) == oracles.lens_t(s.p, s.q), f"t = {t}, expected {oracles.lens_t(s.p, s.q)}")
        chk.stage = "existence"
        if cur.n == 1 and cur.is_isomorphic_to(state["t52"]):
            return (s.name, str(t), None)
        entries = ts.census(cur)
        chk.expect(
            oracles.has_small_essential_surface(entries),
            "no census surface other than a vertex link meets every edge at most twice",
        )
        return (s.name, str(t), len(entries))

    def cli_check(self, subjects, digest, out_dir: Path) -> list[str]:
        library = {name.split("/")[0]: t for name, t, _ in digest if name.endswith("/base")}
        argv = ["verify", "existence", "--seeds", "1", "--steps", "3", "--format", "json"]
        return _compare_cli_t(argv, lambda subject: subject.split("/")[0], library)


WORKLOADS = {w.name: w for w in (LensCensus(), WalkInvariant(), WalkExistence())}
