"""Smoke tests for the study scripts: each runs to completion on a small input,
and a survey exits 1 when a pair fails."""

import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import wittengap.bounds as bounds

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, returncode=0):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == returncode, proc.stderr
    return proc


def test_convergence_study_tables():
    lines = run_script("convergence_study.py", "--levels", "2").stdout.splitlines()
    interval = lines.index("interval operator, raw eigenvalues")
    meshes = lines.index("circle (target 1) and icosphere (target 2)")
    assert lines[interval + 1].split() == ["m", "err", "K=0,d=2", "ratio", "err", "K=1,d=2", "ratio"]
    assert [row.split()[0] for row in lines[interval + 2 : meshes] if row] == ["125", "250"]
    assert lines[meshes + 1].split() == ["n", "circle", "err", "sub", "sphere", "err"]
    assert len(lines[meshes + 2 :]) == 2


def test_rosette_study_default_covers_every_pair_up_to_q15():
    # the script asserts d >= bound for each pair it lists
    lines = run_script("rosette_study.py").stdout.splitlines()
    assert lines[0].split()[:2] == ["p/q", "r0"]
    pairs = [line.split()[0] + line.split()[1] for line in lines[1:]]
    assert pairs == [
        "2/3", "3/5", "4/7", "5/8", "5/9", "7/10", "6/11",
        "7/11", "7/12", "7/13", "8/13", "9/13", "9/14", "8/15",
    ]


def test_rosette_study_csv(tmp_path):
    csv = tmp_path / "rosettes.csv"
    lines = run_script(
        "rosette_study.py", "--max-q", "9", "--points", "512", "--csv", str(csv)
    ).stdout.splitlines()
    assert lines[0].split()[:2] == ["p/q", "r0"]
    # the admissible pairs with q <= 9, in the order the survey walks them
    assert [line.split()[0] for line in lines[1:-1]] == ["2/", "3/", "4/", "5/", "5/"]
    assert lines[1].startswith("2/  3")
    assert lines[-1] == f"wrote 5 rows to {csv}"
    rows = csv.read_text().splitlines()
    assert rows[0] == "p,q,r0,k_max,length,diameter_margin,mc_residual,eigen_residual"
    assert [row.split(",")[:2] for row in rows[1:]] == [
        ["2", "3"], ["3", "5"], ["4", "7"], ["5", "8"], ["5", "9"]
    ]
    assert rows[1].startswith("2,3,0.3131804")


def test_rosette_study_exits_1_naming_pairs_without_a_curve():
    proc = run_script("rosette_study.py", "--lam", "0", "--max-q", "5", returncode=1)
    assert [line.split()[:2] for line in proc.stdout.splitlines()] == [["p/q", "r0"]]
    err = proc.stderr.splitlines()
    assert [line.split(":")[0] for line in err[:2]] == ["2/3", "3/5"]
    assert err[-1] == "failed pairs: 2/3 3/5"


def test_rosette_study_fails_a_diameter_below_its_bound(monkeypatch, capsys):
    # the script reads the bound through the name it imports at its start
    monkeypatch.setattr(bounds, "shrinker_diameter_bound", lambda inp: math.inf)
    monkeypatch.setattr(sys, "argv", ["rosette_study.py", "--max-q", "5", "--points", "512"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(ROOT / "scripts" / "rosette_study.py"), run_name="__main__")
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "2/3: diameter" in err and "below its bound inf" in err
    assert err.splitlines()[-1] == "failed pairs: 2/3 3/5"
