"""Smoke tests for the study scripts: each runs to completion on a small input."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
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
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_convergence_study_tables():
    lines = run_script("convergence_study.py", "--levels", "2")
    interval = lines.index("interval operator, raw eigenvalues")
    meshes = lines.index("circle (target 1) and icosphere (target 2)")
    assert lines[interval + 1].split() == ["m", "err", "K=0,d=2", "ratio", "err", "K=1,d=2", "ratio"]
    assert [row.split()[0] for row in lines[interval + 2 : meshes] if row] == ["125", "250"]
    assert lines[meshes + 1].split() == ["n", "circle", "err", "sub", "sphere", "err"]
    assert len(lines[meshes + 2 :]) == 2


def test_rosette_study_default_covers_every_pair_up_to_q15():
    # the script asserts d >= bound for each pair it lists
    lines = run_script("rosette_study.py")
    assert lines[0].split()[:2] == ["p/q", "r0"]
    pairs = [line.split()[0] + line.split()[1] for line in lines[1:]]
    assert pairs == [
        "2/3", "3/5", "4/7", "5/8", "5/9", "7/10", "6/11",
        "7/11", "7/12", "7/13", "8/13", "9/13", "9/14", "8/15",
    ]


def test_rosette_study_csv(tmp_path):
    csv = tmp_path / "rosettes.csv"
    lines = run_script("rosette_study.py", "--max-q", "9", "--points", "512", "--csv", str(csv))
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
