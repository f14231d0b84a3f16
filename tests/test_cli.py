import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from types import SimpleNamespace

import pytest

from fixtures_data import CUSPED, DOUBLE, RP2LINK, S3_ONE_TET, T41, T52
from tetspine import cli, errors
from tetspine.cli import main
from tetspine.homology import h1
from tetspine.errors import GluingError
from tetspine.lens import S_MAX, build_Tpq
from tetspine.moves import applicable_moves
from tetspine.spine import t_manifold
from tetspine.triangulation import ALL_PERMS, Triangulation, parse_triangulation, perm_inverse


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_lens_build_round_trip(tmp_path, capsys):
    out = str(tmp_path / "lens.txt")
    assert main(["lens-build", "-p", "7", "-q", "2", "-o", out]) == 0
    stdout = capsys.readouterr().out
    assert "S = 5" in stdout
    assert "tets = 2" in stdout
    assert "word = rrl" in stdout
    assert f"wrote {out}" in stdout
    tri = parse_triangulation((tmp_path / "lens.txt").read_text())
    assert tri.n == 2
    assert h1(tri) == (0, [7])


def test_lens_build_default_filename(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["lens-build", "-p", "4", "-q", "1"]) == 0
    assert (tmp_path / "T_4_1.txt").exists()


def test_lens_build_rejects_bad_params(capsys):
    assert main(["lens-build", "-p", "3", "-q", "1", "-o", "/dev/null"]) == 2
    assert "error:" in capsys.readouterr().err


def test_lens_build_above_the_cap_fails_fast(tmp_path):
    # p = 10^6 would need a word of 999,998 letters and as many tetrahedra
    out = tmp_path / "T.txt"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "tetspine.cli", "lens-build", "-p", "1000000", "-q", "1",
         "-o", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: the partial quotients of 1000000/1 sum to S = 1000000; at most S = {S_MAX}"
        " is supported\n"
    )
    assert not out.exists()
    assert elapsed < 1.0


def test_verify_lens_refuses_a_pmax_above_the_cap_up_front(capsys):
    assert main(["verify", "lens", "--pmax", str(S_MAX + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --pmax must be at most {S_MAX}\n"
    assert captured.out == ""


def test_invariant_output(tmp_path, capsys):
    path = write(tmp_path, "t52.txt", T52)
    assert main(["invariant", path]) == 0
    stdout = capsys.readouterr().out
    assert "t = 0" in stdout
    assert "vertices = 1" in stdout
    assert "kind = closed" in stdout


def test_missing_file_is_io_error(capsys):
    assert main(["invariant", "/nonexistent/path.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_corrupt_file_is_parse_error(tmp_path, capsys):
    # "²" passes str.isdigit() but int() refuses it; int() reads the
    # Arabic-Indic digits, which the format refuses
    for text in (
        "tets: x\n",
        T52.replace("1230", "012\u00b2"),
        T52.replace("tets: 1", "tets: \u0661"),
        T52.replace("g 0 0 0 1 1230", "g \u0660 0 0 1 1230"),
    ):
        path = write(tmp_path, "bad.txt", text)
        assert main(["invariant", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_surfaces_tsv(tmp_path, capsys):
    path = write(tmp_path, "t41.txt", T41)
    assert main(["surfaces", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t")[0] == "coords"
    assert len(lines) == 4
    klein = lines[1].split("\t")
    assert klein[0] == "0,0,0,0,0,1,0"
    assert klein[4] == "klein"
    assert klein[5] == "false"
    assert klein[7] == "I:0x1"


def test_surfaces_json_and_filters(tmp_path, capsys):
    path = write(tmp_path, "t41.txt", T41)
    assert main(["surfaces", path, "--format", "json", "--nontrivial-only"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["classification"] for r in rows] == ["klein", "torus"]
    assert all(isinstance(r["orientable"], bool) for r in rows)

    assert main(["surfaces", path, "--chi-min", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and "sphere" in lines[1]

    path52 = write(tmp_path, "t52.txt", T52)
    assert main(["surfaces", path52, "--nontrivial-only"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1  # header only


def test_connected_only_changes_nothing(tmp_path, capsys):
    # the census of the 4-vertex DOUBLE splits surfaces into components and
    # keeps only the components, so the flag has nothing to drop
    path = write(tmp_path, "double.txt", DOUBLE)
    assert main(["surfaces", path, "--format", "json"]) == 0
    plain = capsys.readouterr().out
    assert main(["surfaces", path, "--format", "json", "--connected-only"]) == 0
    assert capsys.readouterr().out == plain
    rows = json.loads(plain)
    assert rows and all(r["connected"] is True for r in rows)


def test_subpolyhedra_listing(tmp_path, capsys):
    path = write(tmp_path, "t41.txt", T41)
    assert main(["subpolyhedra", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "faces\tv_q\tchi\tis_surface"
    table = {row.split("\t")[0]: row.split("\t") for row in lines[1:]}
    assert set(table) == {"0x0", "0x1", "0x3"}
    assert table["0x1"][3] == "true"


def test_pachner_apply_and_parse(tmp_path, capsys):
    path = write(tmp_path, "t72.txt", open_lens_text())
    tri = parse_triangulation(open_lens_text())
    moves = applicable_moves(tri)
    kind, idx = moves[0]
    assert main(["pachner", path, "--move", f"{kind}:{idx}"]) == 0
    out = capsys.readouterr().out
    child = parse_triangulation(out)
    assert child.n == tri.n + (1 if kind == "23" else -1)
    assert f"after move {kind}:{idx}" in out


def open_lens_text():
    from tetspine.lens import build_Tpq
    from tetspine.triangulation import serialize_triangulation

    return serialize_triangulation(build_Tpq(7, 2))


def test_pachner_rejections(tmp_path, capsys):
    path = write(tmp_path, "t52.txt", T52)
    assert main(["pachner", path, "--move", "banana"]) == 2
    capsys.readouterr()
    assert main(["pachner", path, "--move", "23:99"]) == 2
    assert "no triangle class 99" in capsys.readouterr().err
    assert main(["pachner", path, "--move", "32:99"]) == 2
    assert "no edge class 99" in capsys.readouterr().err
    # T_{5,2} has one tet, so no 2-3 move applies anywhere
    assert main(["pachner", path, "--move", "23:0"]) == 2
    capsys.readouterr()
    # both pass str.isdigit(); int() refuses "²" and more than 4300 digits
    for move in ("23:\u00b2", "32:" + "1" * 5000):
        assert main(["pachner", path, "--move", move]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --move must be") and err.count("\n") == 1


def test_verify_lens(capsys):
    assert main(["verify", "lens", "--pmax", "3"]) == 2
    capsys.readouterr()
    assert main(["verify", "lens", "--pmax", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("subject\t")
    rows = [line.split("\t") for line in lines[1:]]
    assert [r[0] for r in rows] == ["T_4_1", "T_4_3", "T_5_1", "T_5_2", "T_5_3", "T_5_4"]
    assert all(r[-1] == "ok" for r in rows)


def test_verify_existence(capsys):
    assert main(["verify", "existence", "--seeds", "1", "--steps", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [line.split("\t") for line in lines[1:]]
    assert all(r[3] == "ok" for r in rows)
    assert [r[0] for r in rows] == ["T_4_1/seed0", "T_5_1/seed0", "T_5_2/seed0", "T_7_2/seed0"]
    assert [r[2] for r in rows] == ["1", "2+e", "0", "1+e"]


def test_t_zero_on_one_tetrahedron_is_t52():
    # verify existence skips the census of a one-tetrahedron state with
    # t = 0, as T_5_2 has no surface to find; that stands for T_5_2 because,
    # of all 108 one-tetrahedron tables (3 face matchings, 6 x 6 gluings),
    # the copies of T_5_2 are the only closed ones with t = 0
    t52 = build_Tpq(5, 2)
    kinds = Counter()
    for (a, b), (c, d) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        for p in [p for p in ALL_PERMS if p[a] == b]:
            for q in [q for q in ALL_PERMS if q[c] == d]:
                g = {(0, a): (0, b, p), (0, b): (0, a, perm_inverse(p))}
                g.update({(0, c): (0, d, q), (0, d): (0, c, perm_inverse(q))})
                try:
                    tri = Triangulation(1, g)
                except GluingError:
                    kinds["refused"] += 1
                    continue
                kinds[tri.is_closed, str(t_manifold(tri)), tri.is_isomorphic_to(t52)] += 1
    assert kinds == {
        "refused": 69,
        (True, "0", True): 6,
        (True, "1", False): 21,
        (False, "2-e", False): 12,
    }


@pytest.mark.parametrize(
    "counts", [["--seeds", "0"], ["--seeds", "-1"], ["--steps", "-2"]]
)
def test_verify_existence_rejects_counts_that_check_nothing(capsys, counts):
    assert main(["verify", "existence", *counts]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


EXISTENCE_HEADER = "subject\tsteps\tt\tstatus\tdetail"
WALKING = (
    "walking T_4_1/seed0 (seed 0xe220a8397b1dcdaf)\n"
    "walking T_5_1/seed0 (seed 0x6e789e6aa1b965f4)\n"
    "walking T_5_2/seed0 (seed 0x6c45d188009454f)\n"
    "walking T_7_2/seed0 (seed 0xf88bb8a8724c81ec)\n"
)


def test_verify_lens_stops_at_the_first_failing_subject(capsys, monkeypatch):
    # T_5_2 has t = 0; expecting T_4_1's t = 1 there makes it fail
    t_expected = cli.t_expected
    monkeypatch.setattr(
        cli, "t_expected", lambda p, q: t_expected(4, 1) if (p, q) == (5, 2) else t_expected(p, q)
    )
    assert main(["verify", "lens", "--pmax", "6"]) == 1
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("subject\t")
    assert [line.split("\t")[0] for line in lines[1:]] == ["T_4_1", "T_4_3", "T_5_1", "T_5_2"]
    assert lines[-1] == "T_5_2\t1\t1\t5\t5\t0\t0\t0\t0\t0\t0\t0\tfail"
    assert err == "verifying p = 4\nverifying p = 5\nerror: first failing subject is T_5_2\n"


def test_verify_existence_names_a_base_without_surfaces(capsys, monkeypatch):
    # T_5_2 passes without a census: its copies are the one-tetrahedron
    # tables with t = 0
    monkeypatch.setattr(cli, "census", lambda tri: [])
    assert main(["verify", "existence", "--seeds", "1", "--steps", "2"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        EXISTENCE_HEADER,
        "T_4_1/seed0\t2\t1\tfail\tno non-trivial normal surface",
        "T_5_1/seed0\t2\t2+e\tfail\tno non-trivial normal surface",
        "T_5_2/seed0\t2\t0\tok\t",
        "T_7_2/seed0\t2\t1+e\tfail\tno non-trivial normal surface",
    ]
    assert err == WALKING


def test_verify_existence_names_the_step_without_light_surfaces(capsys, monkeypatch):
    # each walk takes one step to an equal copy of its base, whose census
    # has one non-trivial surface, of edge weight 3
    walked = []

    def walk(base, steps, seed):
        copy = Triangulation(
            base.n, {(t, f): base.gluing(t, f) for t in range(base.n) for f in range(4)}
        )
        walked.append(copy)
        yield copy

    heavy = [SimpleNamespace(report=SimpleNamespace(trivial=False, max_edge_weight=3))]
    census = cli.census
    monkeypatch.setattr(cli, "iter_pachner_walk", walk)
    monkeypatch.setattr(
        cli, "census", lambda tri: heavy if any(tri is w for w in walked) else census(tri)
    )
    assert main(["verify", "existence", "--seeds", "1", "--steps", "2"]) == 1
    out, err = capsys.readouterr()
    detail = "step 1: no non-trivial surface with edge weights <= 2"
    assert out.splitlines() == [
        EXISTENCE_HEADER,
        f"T_4_1/seed0\t2\t1\tfail\t{detail}",
        f"T_5_1/seed0\t2\t2+e\tfail\t{detail}",
        "T_5_2/seed0\t2\t0\tok\t",
        f"T_7_2/seed0\t2\t1+e\tfail\t{detail}",
    ]
    assert err == WALKING


def test_verify_existence_names_the_step_where_t_changed(capsys, monkeypatch):
    # every walk steps to T_7_2, of t = 1+e
    monkeypatch.setattr(cli, "iter_pachner_walk", lambda base, steps, seed: iter([build_Tpq(7, 2)]))
    assert main(["verify", "existence", "--seeds", "1", "--steps", "2"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        EXISTENCE_HEADER,
        "T_4_1/seed0\t2\t1\tfail\tt changed at step 1: 1 -> 1+e",
        "T_5_1/seed0\t2\t2+e\tfail\tt changed at step 1: 2+e -> 1+e",
        "T_5_2/seed0\t2\t0\tfail\tt changed at step 1: 0 -> 1+e",
        "T_7_2/seed0\t2\t1+e\tok\t",
    ]
    assert err == WALKING


FIXTURES = {
    "T41": T41,
    "T52": T52,
    "S3_ONE_TET": S3_ONE_TET,
    "DOUBLE": DOUBLE,
    "CUSPED": CUSPED,
    "RP2LINK": RP2LINK,
}

# sha256 of "<exit code>\n<stdout>\0<stderr>" per command, with each fixture
# name standing for a file that holds it: a change to any of these outputs
# must be deliberate, and must update the hash with it
FROZEN_OUTPUTS = {
    "verify existence --seeds 5 --steps 10 --format json":
        "1c1e8736c358e1c498c1cf5771fe4aa93b29db367f6b73c94de3fc520324bea9",
    "verify lens --pmax 12 --format json":
        "a97698be08cd35209b8da2d91fcb3e9ef53531bd8552f2c37b4a780a41d0d6af",
    "invariant T41":
        "a1d1bd0ac6fea87fb06423d837eb30a529c899cf2b2180154c069e75d3e71abe",
    "surfaces T41 --format json":
        "cb47f817d5a885052d8dc3a30b0919eac1e197e259f5b4d600f4e43a4a2c5e96",
    "subpolyhedra T41 --format json":
        "781d507806a04ebaa5df19da9538c2efdd07d407bfea05fcd6f302291b57f6f1",
    "invariant T52":
        "d98aade94689e6cedbba5d7727a047a3adb213567225541a2d5a30a1af91cc06",
    "surfaces T52 --format json":
        "1527db037303ae8287883490b0484b0a0427f0af6e56226c682cdab24c6a7a5f",
    "subpolyhedra T52 --format json":
        "2266301bccf640c810d6761cef52e6f1f39f7728a7700b9c5fb65d0d61c95310",
    "invariant S3_ONE_TET":
        "c16d19194997176834a516d42e8373bfd96b3211ab2b70761f864e7480678981",
    "surfaces S3_ONE_TET --format json":
        "df30b362b62a2699f9df961aa210c4a2cba0094a908f1e2f2b277b81ec6da959",
    "subpolyhedra S3_ONE_TET --format json":
        "f9bf8de4aa0a0f814147234da7712de5dda5b1641fd74d2ae81db4ce925e82e1",
    "invariant DOUBLE":
        "abdeb102141bf5130e59f05d8f1008f45565237a42c983b44255b63be1710157",
    "surfaces DOUBLE --format json":
        "a78eeb789c25c9a165d00765af1581e15da46ec010de66f116438e6d3cf1a41d",
    "subpolyhedra DOUBLE --format json":
        "eb6341d9e3d6d10e8c7e94d3ed9a50bc728f0a05d4154280a41cb1f54a64041b",
    "invariant CUSPED":
        "5c22b75e2c7767b428cd46b35f5704038985ba26b5f94f023459ef07ed514357",
    "surfaces CUSPED --format json":
        "0a19e035c3ff0ac713e170696b8318cd8bc109e7d329a6530ff6c86ca4d5371f",
    "subpolyhedra CUSPED --format json":
        "68e3a56523f56f7e8f81118ed205b35244f56dc9c9a565eae3fc16ed1dbb4d09",
    "invariant RP2LINK":
        "99d068aab98627ade841226492a049da235c60b98cc538de9172f376730f29ef",
    "surfaces RP2LINK --format json":
        "9b02d59950dfe2f9d8f2ab34d0461bf43888574fe3d4f2bee93a6caa1c642d67",
    "subpolyhedra RP2LINK --format json":
        "19923977bc28087b349b193d1e7cc43e3ea7fe542b22ab9a2805dc6a8f4e7ea5",
    "pachner DOUBLE --move 23:0":
        "c9d4bc96df5a345a6345f9bad1911cbd1823cb26adb4657c272d980eafe09ba6",
    "pachner CUSPED --move 23:1":
        "d0f249ba198858fff6be2de60b6d4c9b22e97193b7437225f6e298d2ef083f54",
    "pachner RP2LINK --move 23:2":
        "722eefcd143747b2c887a42168897c9fbbd61c3a0b474c1c9c95e6994e99bca0",
    # exit code 2: the degree-3 edge of T_5_2 runs three times through its one tetrahedron
    "pachner T52 --move 32:0":
        "4eefae84f69aba494fa0de4b107f77fa8e8f82f0c04d5c56aeddb8015a085361",
    # TSV, the default format: bool cells read true/false, and a table with
    # no rows is its header alone
    "surfaces T41":
        "fe5b57e106c2577eac921b48c443eda6ca1afa252341ad22add5e9d17f047b3f",
    "subpolyhedra T41":
        "803a2c893440e990f16dbf4cbf8f13dbbf8ff77df2d074d80284d1dc2ecb2b52",
    "surfaces T52":
        "8e27f6fb9100ad9b7bfdd9f4d9e82b33f712d5e4859fdbf66d44b80f2a47fba0",
    "subpolyhedra T52":
        "cbcdf80f2de347c2cd786859ca3fd0b3f281ace50f0439db00a159d02aea8075",
    "surfaces S3_ONE_TET":
        "c56bab73f1dbcc18a55fc799cf617a9898c3cd69123ecc5698778b8d6534fecb",
    "subpolyhedra S3_ONE_TET":
        "a128a4eb7b75994f5a43ae622d1948d7aad1f003dd421dd94ab890f85e8ecd86",
    "surfaces DOUBLE":
        "f2e88926b5611d72fd8902d956dc6006b13c5d1c4714f194b147a289913a794b",
    "subpolyhedra DOUBLE":
        "3c1719339112809348ea69639764b99901e1f3d676d35c5d6549b8b5c558dac9",
    "surfaces CUSPED":
        "a0c8ef3d2c2b889daee113a425a3c5638f5c5396438a14dd0d3ead7de2bd8dc9",
    "subpolyhedra CUSPED":
        "f9b5e9722865c74131ca36d50ec6ea722b7cb47f3e7895daec00f7ec103043c3",
    "surfaces RP2LINK":
        "6192c3a16b4cb0b59ab5568eb55b08d1a64bd640ba8ab3f81ff8aeed721a36c6",
    "subpolyhedra RP2LINK":
        "a27a4178f7e1aa95ce59eb14ce12eb84d91f6230e7e1a266f7bd1da6c677c121",
    "surfaces T52 --nontrivial-only":
        "5f0ac475ae79a10af8290e5f682302bc940634cd3862639b8dffb1288117239c",
    "verify lens --pmax 7":
        "1e28d4a536891d3c3a7e72af1f06e18afec540e7b8fa159ca26871c4c59ce521",
    "verify existence --seeds 1 --steps 3":
        "4404a3472d44a902725a316215a9968e148951c91e5eb9df8e46a3105adb73d4",
}


def test_cli_outputs_are_frozen(tmp_path, capsys):
    for name, text in FIXTURES.items():
        write(tmp_path, f"{name}.txt", text)
    seen = {}
    for command in FROZEN_OUTPUTS:
        argv = [str(tmp_path / f"{a}.txt") if a in FIXTURES else a for a in command.split()]
        code = main(argv)
        out, err = capsys.readouterr()
        seen[command] = hashlib.sha256(f"{code}\n{out}\0{err}".encode()).hexdigest()
    assert seen == FROZEN_OUTPUTS


def test_budget_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPINE_FACE_BUDGET", "1")
    from tetspine.lens import build_Tpq
    from tetspine.triangulation import serialize_triangulation

    path = write(tmp_path, "t83.txt", serialize_triangulation(build_Tpq(8, 3)))
    assert main(["subpolyhedra", path]) == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "exc, code",
    [
        (errors.EnumerationBudgetError("over budget"), 3),
        (errors.ParseError("bad", 2, 7), 2),
        (errors.GluingError("bad"), 2),
        (errors.UngluedFaceError([(0, 1)]), 2),
        (errors.NotClosedError("bad"), 2),
        (errors.InvalidParamsError("bad"), 2),
        (errors.InvalidBudgetError("bad"), 2),
        # only the pachner command, which names the move, makes this a usage error
        (errors.MoveNotApplicableError("bad"), 1),
        (errors.NotASurfaceError("bad"), 1),
        (OSError("disk full"), 1),
    ],
)
def test_exit_code_follows_the_error_class(capsys, monkeypatch, exc, code):
    def build(p, q):
        raise exc

    monkeypatch.setattr(cli, "build_Tpq", build)
    assert main(["verify", "existence", "--seeds", "1", "--steps", "0"]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {exc}\n"


def test_budget_that_is_not_an_integer_is_a_usage_error(tmp_path):
    path = write(tmp_path, "t41.txt", T41)
    env = dict(os.environ, SPINE_FACE_BUDGET="abc")
    proc = subprocess.run(
        [sys.executable, "-m", "tetspine.cli", "subpolyhedra", path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: SPINE_FACE_BUDGET must be an integer")
    assert "Traceback" not in proc.stderr


def test_huge_header_without_gluings_fails_fast(tmp_path):
    # a 12-byte file must not build tables for 20000 tetrahedra or list
    # their 80000 unglued faces
    path = write(tmp_path, "huge.txt", "tets: 20000\n")
    proc = subprocess.run(
        [sys.executable, "-m", "tetspine.cli", "invariant", path],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.encode()) < 1024
    assert "need 80000 gluing lines, found 0" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_disconnected_table_is_a_usage_error(tmp_path):
    # L(5,2) and L(7,2) side by side are two manifolds, not one: no invariant
    # or kind describes the file
    from test_triangulation import disjoint_union
    from tetspine.lens import build_Tpq

    gluings = disjoint_union(build_Tpq(5, 2), build_Tpq(7, 2))
    lines = [f"tets: {len(gluings) // 4}"] + [
        f"g {t} {f} {t2} {f2} {''.join(str(x) for x in perm)}"
        for (t, f), (t2, f2, perm) in sorted(gluings.items())
    ]
    path = write(tmp_path, "two.txt", "\n".join(lines) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "tetspine.cli", "invariant", path],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: tetrahedron 1 cannot be reached from tetrahedron 0:"
        " the gluing table is disconnected\n"
    )


def random_gluing_text(rng):
    """A random gluing table of 1 to 3 tetrahedra in the file format: the 4n
    face slots paired at random, each pair by a random permutation carrying
    one face onto the other, both directions written. About a third of them
    are valid; the rest are refused, as an edge glued to itself reversed or
    a disconnected table."""
    n = rng.randint(1, 3)
    slots = [(t, f) for t in range(n) for f in range(4)]
    rng.shuffle(slots)
    lines = [f"tets: {n}"]
    for (t, f), (t2, f2) in zip(slots[::2], slots[1::2]):
        perm = rng.choice([p for p in ALL_PERMS if p[f] == f2])
        for a, fa, b, fb, q in ((t, f, t2, f2, perm), (t2, f2, t, f, perm_inverse(perm))):
            lines.append(f"g {a} {fa} {b} {fb} {''.join(map(str, q))}")
    return "\n".join(lines) + "\n"


def test_hostile_gluing_tables_exit_0_or_2(tmp_path, capsys):
    # seeded: 150 random tables, 30 % of them with one character replaced,
    # through every command that reads a triangulation file; each must
    # succeed or be refused as a usage error, never raise
    rng = random.Random(20261018)
    commands = (
        ["invariant"],
        ["surfaces"],
        ["subpolyhedra"],
        ["pachner", "--move", "23:0"],
        ["pachner", "--move", "32:0"],
    )
    seen = Counter()
    for i in range(150):
        text = random_gluing_text(rng)
        if rng.random() < 0.3:
            k = rng.randrange(len(text))
            text = text[:k] + rng.choice("0123456789 -:#gx\n") + text[k + 1 :]
        path = write(tmp_path, f"t{i}.txt", text)
        for command in commands:
            code = main([command[0], path, *command[1:]])
            capsys.readouterr()
            assert code in (0, 2), (command, text)
            seen[code] += 1
    # both the accepted and the refused paths ran
    assert seen[0] and seen[2], seen


def test_file_that_is_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"tets: 1\n\xff\xfe\n")
    proc = subprocess.run(
        [sys.executable, "-m", "tetspine.cli", "invariant", str(path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: line 2, col 1: byte 0xff is not UTF-8 text\n"
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "data,position",
    [
        (b"tets: 1\r\xff", "line 2, col 1"),
        (b"tets: 1\r\n\r\nab\xff", "line 3, col 3"),
        # U+0085 in a comment ends no line
        (b"# x\xc2\x85y\n\xff", "line 2, col 1"),
        # the column counts characters, not bytes: "\u00e9" takes two bytes,
        # "\u20ac" three and "\U0001f642" four
        (b"# \xc3\xa9\xff", "line 1, col 4"),
        (b"tets: 1\n# \xe2\x82\xac\xf0\x9f\x99\x82 \xff", "line 2, col 6"),
    ],
)
def test_decode_error_counts_lines_as_the_parser_does(tmp_path, capsys, data, position):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    assert main(["invariant", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {position}: byte 0xff is not UTF-8 text\n"


def test_negative_budget_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPINE_FACE_BUDGET", "-3")
    path = write(tmp_path, "t41.txt", T41)
    assert main(["surfaces", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must not be negative, got -3" in captured.err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_console_help_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "tetspine.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "lens-build" in proc.stdout
