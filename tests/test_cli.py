import json
import os
import subprocess
import sys

import pytest

from fixtures_data import T41, T52
from tetspine.cli import main
from tetspine.homology import h1
from tetspine.moves import applicable_moves
from tetspine.triangulation import parse_triangulation


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
    path = write(tmp_path, "bad.txt", "tets: x\n")
    assert main(["invariant", path]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_budget_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPINE_FACE_BUDGET", "1")
    from tetspine.lens import build_Tpq
    from tetspine.triangulation import serialize_triangulation

    path = write(tmp_path, "t83.txt", serialize_triangulation(build_Tpq(8, 3)))
    assert main(["subpolyhedra", path]) == 3
    assert "error:" in capsys.readouterr().err


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
