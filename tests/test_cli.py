"""Command-line interface: output values, settings, determinism, exit codes."""

import contextlib
import filecmp
import io
import json
import math
import multiprocessing
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wittengap.bounds as bounds
import wittengap.cli as cli
import wittengap.shrinkers as shrinkers
import wittengap.spectral as spectral
from wittengap.bounds import _sweep_columns
from wittengap.cli import build_parser, main, run_suite
from wittengap.report import canonical_json

# reduced resolutions: fast and deterministic, deliberately below several
# certified tolerances so the failure path is exercised too
TINY = {
    "SUP_GRID_SIZE": 20000,
    "OU_M": 100,
    "CIRCLE_N": 64,  # coarse enough to miss the 1e-4 circle tolerance
    "SPHERE_SUBDIVISIONS": 2,
    "ROSETTE_POINTS": 256,
}


@pytest.fixture()
def tiny(monkeypatch):
    """Sets the suite's certified resolutions to TINY."""
    for name, value in TINY.items():
        monkeypatch.setattr(cli, name, value)


@pytest.fixture()
def tiny_suite(monkeypatch, tiny):
    """Makes verify-all run the suite at TINY.

    Returns one entry per ``run_suite()`` call that verify-all made.
    """
    calls = []

    def counted():
        calls.append("run_suite()")
        return run_suite()

    monkeypatch.setattr(cli, "run_suite", counted)
    return calls


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def count_calls(monkeypatch, modules, names):
    """Replace each module's <name> by a wrapper that counts its calls."""
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in modules:
        for name in names:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--K", "1", "--d", "1", "--grid-size", "99"),
        ("ou", "--K", "1", "--d", "2", "--m", "7"),
        ("spectral", "--case", "circle", "--n", "15"),
        ("spectral", "--case", "sphere", "--subdivisions", "8"),
        ("shrinker", "--circle", "--n", "15"),
        ("shrinker", "--al", "2", "3", "--points", "63"),
    ],
    ids=["bounds-grid-size", "ou-m", "spectral-n", "spectral-subdivisions", "shrinker-n",
         "shrinker-points"],
)
def test_resolution_flag_below_its_floor_exits_one(capsys, argv):
    # the cli checks the floors stricter than the library's, the library the rest
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_resolution_flag_of_another_mode_is_not_checked(capsys):
    # build_icosphere checks --subdivisions, and a circle builds no icosphere
    rc, out, _ = run_cli(capsys, "spectral", "--case", "circle", "--subdivisions", "9")
    assert rc == 0
    assert json.loads(out)["case_id"] == "circle-spectrum-r=1"


@pytest.mark.parametrize("line", ["tol_circle_rel = 1", "k_min = 0"])
@pytest.mark.parametrize(
    "argv", [("verify-all",), ("spectral", "--case", "circle", "--n", "64")], ids=lambda a: a[0]
)
def test_config_cannot_set_certified_constants(tmp_path, line, argv):
    # tolerances, the (K, d) box and the verify-all resolutions are part of
    # the certification: no config file is read, so --config is a bad flag
    path = tmp_path / "loose.cfg"
    path.write_text(line + "\n")
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
    assert excinfo.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n", [100, 2**15, 2**15 + 1, 2_000_000])
def test_soliton_constant_grid_maximum_is_the_whole_grid_argmax(monkeypatch, n):
    # the blocked maximum finds the first maximizer of the whole-grid array
    s = np.arange(1, n + 1, dtype=np.float64) / (n + 1)
    g = 4.0 * s * (1.0 - s) / (2.0 - s)
    j = int(np.argmax(g))
    monkeypatch.setattr(cli, "CONSTANT_GRID_SIZE", n)
    rep = cli.case_soliton_constants()
    assert rep.computed["g_max_grid"] == float(g[j])
    assert rep.computed["s_star_grid"] == float(s[j])


def test_bounds_json(capsys):
    rc, out, _ = run_cli(capsys, "bounds", "--K", "1", "--d", str(math.pi))
    assert rc == 0
    obj = json.loads(out)
    assert obj["schema"] == 1
    assert obj["sup_closed"] == pytest.approx(1.5625, abs=1e-12)
    assert obj["branch"] == "interior"
    assert obj["s_star"] == pytest.approx(0.625, abs=1e-12)
    assert abs(obj["sup_closed"] - obj["sup_grid"]) <= 1e-6
    assert obj["sup_ge_futaki_sano"] is True
    assert obj["sup_ge_andrews_ni"] is True


def test_module_entry_point_runs_from_a_checkout(capsys):
    # python -m wittengap without an install, the package found through PYTHONPATH
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "wittengap", "bounds", "--K", "1", "--d", "3"],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    rc, out, _ = run_cli(capsys, "bounds", "--K", "1", "--d", "3")
    assert rc == 0
    assert proc.stdout == out


def test_bounds_soliton_json(capsys):
    rc, out, _ = run_cli(capsys, "bounds", "--soliton", "--lambda", "1")
    assert rc == 0
    obj = json.loads(out)
    assert obj["sup_bound"] == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0) * math.pi, abs=1e-12)
    assert obj["sup_is_largest"] is True
    assert obj["futaki_sano_is_smallest"] is True


def test_commands_write_the_report_serialization(capsys):
    # plain command output and reports share one byte format
    rc, out, _ = run_cli(capsys, "bounds", "--soliton", "--lambda", "1")
    assert rc == 0
    assert out == canonical_json(json.loads(out))
    assert out.endswith("}\n") and out.startswith('{\n  "andrews_ni": ')
    rep = cli.case_gaussian()
    assert rep.to_json() == canonical_json(rep.to_dict())
    with pytest.raises(ValueError):
        canonical_json({"x": math.nan})


def test_bounds_grid_csv(capsys):
    rc, out, _ = run_cli(capsys, "bounds", "--grid", "--grid-size", "20000")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "K,d,sup_closed,sup_grid,abs_diff"
    assert len(lines) == 1 + 50 * 50
    # the boundary branches miss by O(K / grid_size), so the coarse test
    # grid sits near 5e-4; the certified 1e-6 needs the full 10^6 grid
    worst = max(float(line.split(",")[4]) for line in lines[1:])
    assert worst <= 1e-3


def test_bounds_missing_args(capsys):
    rc, _, err = run_cli(capsys, "bounds")
    assert rc == 2
    assert "error:" in err
    rc, _, err = run_cli(capsys, "bounds", "--soliton")
    assert rc == 2


def test_ou_flat_value(capsys):
    rc, out, _ = run_cli(capsys, "ou", "--K", "0", "--d", "2", "--bc", "neumann")
    assert rc == 0
    obj = json.loads(out)
    assert obj["lambda_neumann"] == pytest.approx(2.467401100632413, abs=1e-9)
    assert "lambda_dirichlet" not in obj


def test_ou_check_shift(capsys):
    rc, out, _ = run_cli(capsys, "ou", "--K", "1", "--d", "2", "--m", "400")
    assert rc == 0
    obj = json.loads(out)
    assert obj["shift_defect"] <= 1e-7
    assert obj["shift_defect_rel"] <= obj["shift_defect"]


def test_ou_corner_of_the_box_prints_positive_eigenvalues(capsys):
    # at K = -10, d = 20 the Neumann value is about 1.8e-215; LAPACK
    # bisection printed round-off noise of either sign here
    rc, out, _ = run_cli(capsys, "ou", "--K", "-10", "--d", "20")
    assert rc == 0
    obj = json.loads(out)
    assert 0.0 < obj["lambda_neumann"] < 1e-200
    assert obj["lambda_dirichlet"] == pytest.approx(10.0, rel=1e-8)
    rc, out, _ = run_cli(capsys, "ou", "--verify", "--K", "-10", "--d", "20")
    assert rc == 0
    assert json.loads(out)["computed"]["lambda1_ou"] > 0.0


@pytest.mark.parametrize(
    "bc, solves",
    [("both", (1, 1)), ("neumann", (1, 0)), ("dirichlet", (0, 1))],
    ids=["both", "neumann", "dirichlet"],
)
def test_ou_solves_each_problem_once(capsys, monkeypatch, bc, solves):
    # each printed eigenvalue is one solve; both also prints the shift defect
    calls = count_calls(monkeypatch, [cli], ["neumann_lambda1", "dirichlet_lambda1"])
    rc, out, _ = run_cli(capsys, "ou", "--K", "1", "--d", "2", "--m", "100", "--bc", bc)
    assert rc == 0
    assert calls == dict(zip(("neumann_lambda1", "dirichlet_lambda1"), solves))
    obj = json.loads(out)
    printed = {"lambda_neumann": solves[0], "lambda_dirichlet": solves[1]}
    assert {key for key, n in printed.items() if n} == set(obj) & set(printed)
    assert ({"shift_defect", "shift_defect_rel"} <= set(obj)) == (bc == "both")


def test_comparison_grid_solves_each_flat_problem_once(monkeypatch):
    # the flat-exactness check reads the K = 0 solves of the grid loop
    assert set(cli.EXACTNESS_DS) <= set(cli.D_GRID)
    calls = count_calls(monkeypatch, [cli], ["neumann_lambda1", "dirichlet_lambda1"])
    rep = cli.case_comparison_grid(200)
    n_grid = len(cli.K_GRID) * len(cli.D_GRID)
    assert calls == {"neumann_lambda1": n_grid, "dirichlet_lambda1": n_grid}
    assert rep.computed["exactness_worst_rel"] > 0.0


def test_comparison_grid_rejects_an_exactness_d_off_the_grid(monkeypatch):
    assert 1.5 not in cli.D_GRID
    monkeypatch.setattr(cli, "EXACTNESS_DS", (*cli.EXACTNESS_DS, 1.5))
    with pytest.raises(RuntimeError, match="saw 8 of 10 solves"):
        cli.case_comparison_grid(200)


def test_ou_verify_passes(capsys):
    rc, out, _ = run_cli(capsys, "ou", "--verify", "--K", "1", "--d", "2", "--m", "400")
    assert rc == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["case_id"] == "ou-comparison-K=1-d=2"


def test_ou_missing_args(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["ou", "--K", "1"])
    assert excinfo.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_spectral_coarse_circle_fails(capsys, tmp_path):
    out_file = tmp_path / "circle.json"
    rc, _, _ = run_cli(
        capsys, "spectral", "--case", "circle", "--n", "64", "--out", str(out_file)
    )
    assert rc == 1
    obj = json.loads(out_file.read_text())
    assert obj["pass"] is False
    assert obj["margins"]["lambda1_vs_curvature"] < -1e-4


def test_spectral_sphere_height_exports(capsys, tmp_path):
    off = tmp_path / "mesh.off"
    vec = tmp_path / "vec.csv"
    rc, out, _ = run_cli(
        capsys,
        "spectral", "--case", "sphere-height", "--a", "0.3", "--subdivisions", "2",
        "--export-off", str(off), "--export-eigenvector", str(vec),
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["case_id"] == "sphere-height-a=0.3"
    assert obj["pass"] is True
    off_lines = off.read_text().splitlines()
    assert off_lines[0] == "OFF"
    assert off_lines[1].split() == ["162", "320", "0"]
    vec_lines = vec.read_text().splitlines()
    assert vec_lines[0] == "vertex_index,x,y,z,phi,u"
    assert len(vec_lines) == 1 + 162


def test_spectral_builds_and_solves_once(capsys, monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, [cli, spectral], ["build_icosphere", "lambda1_witten"])
    rc, _, _ = run_cli(
        capsys,
        "spectral", "--case", "sphere-height", "--a", "0.3", "--subdivisions", "2",
        "--export-off", str(tmp_path / "mesh.off"),
        "--export-eigenvector", str(tmp_path / "vec.csv"),
    )
    assert rc == 0
    assert calls == {"build_icosphere": 1, "lambda1_witten": 1}


def test_suite_shares_the_round_sphere(monkeypatch, tiny):
    names = ["build_icosphere", "lambda1_witten"]
    calls = count_calls(monkeypatch, [cli, spectral], names)
    orders = count_calls(monkeypatch, [spectral], ["_nested_dissection"])
    assert len(run_suite()) == 14
    # sphere-round and the four height cases share one mesh, the shift case
    # builds its own; one solve per circle, round sphere and height case
    # except a = 0, which is the round sphere, and three for the shift case;
    # each mesh is ordered once, whatever its weights
    assert calls | orders == {
        "build_icosphere": 2,
        "lambda1_witten": 2 + 1 + 3 + 3,
        "_nested_dissection": 2 + 1 + 1,
    }


def test_spectral_height_requires_a(capsys):
    rc, _, err = run_cli(capsys, "spectral", "--case", "sphere-height")
    assert rc == 2
    assert "requires --a" in err


def test_spectral_rejects_bad_a_before_building(capsys, monkeypatch):
    calls = count_calls(monkeypatch, [cli, spectral], ["build_icosphere"])
    rc, out, err = run_cli(capsys, "spectral", "--case", "sphere-height", "--a", "1.0")
    assert rc == 1
    assert out == ""
    assert "height coefficient a must satisfy |a| < 1" in err
    assert calls == {"build_icosphere": 0}


def test_shrinker_circle_scales_with_lambda(capsys):
    rc, out, _ = run_cli(capsys, "shrinker", "--circle", "--lambda", "4", "--n", "64")
    assert rc == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["computed"]["K0"] == pytest.approx(4.0, abs=1e-12)
    assert obj["computed"]["d"] == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_shrinker_circle_export_builds_the_circle_once(capsys, monkeypatch, tmp_path):
    calls = count_calls(monkeypatch, [cli, shrinkers], ["circle_shrinker"])
    curve_csv = tmp_path / "circle.csv"
    rc, _, _ = run_cli(capsys, "shrinker", "--circle", "--n", "64", "--export", str(curve_csv))
    assert rc == 0
    assert curve_csv.read_text().startswith("# closure_residual = 0\n")
    assert calls == {"circle_shrinker": 1}


def test_shrinker_rosette_exports(capsys, tmp_path):
    curve_csv = tmp_path / "curve.csv"
    log_jsonl = tmp_path / "log.jsonl"
    rc, out, _ = run_cli(
        capsys,
        "shrinker", "--al", "2", "3", "--points", "256",
        "--export", str(curve_csv), "--log", str(log_jsonl),
    )
    # 256 nodes are too coarse for the certified identity tolerances
    assert rc == 1
    obj = json.loads(out)
    assert obj["pass"] is False
    assert curve_csv.read_text().startswith("# closure_residual = ")
    entries = [json.loads(line) for line in log_jsonl.read_text().splitlines()]
    assert len(entries) >= 8
    assert all({"iteration", "r0", "closure_residual"} <= set(e) for e in entries)


@pytest.fixture()
def rosette_work(monkeypatch):
    """Counts rosette root-finding quadratures and DOP853 arc integrations.

    Returns the live counters, reset to zero, and the counts that one
    find_abresch_langer(1.0, 2, 3) takes.
    """
    counts = {"quadratures": 0, "integrations": 0}
    for name, key in (("_half_period", "quadratures"), ("_integrate", "integrations")):

        def counted(*args, _fn=getattr(shrinkers, name), _key=key):
            counts[_key] += 1
            return _fn(*args)

        monkeypatch.setattr(shrinkers, name, counted)
    shrinkers.find_abresch_langer(1.0, 2, 3)
    one_rosette = dict(counts)
    counts.update(quadratures=0, integrations=0)
    return counts, one_rosette


def test_rosette_case_shoots_once(rosette_work):
    counts, one_rosette = rosette_work
    assert one_rosette["integrations"] == 1
    rep = cli.case_rosette(256, cli.find_abresch_langer(1.0, 2, 3, n_points=256))
    assert rep.case_id == "shrinker-rosette-2-3"
    assert counts["quadratures"] == one_rosette["quadratures"]
    # the fine curve's arc, then the coarse curve's from the same root
    assert counts["integrations"] == 2


def test_shrinker_rosette_export_reuses_the_shooting(capsys, tmp_path, rosette_work):
    counts, one_rosette = rosette_work
    curve_csv = tmp_path / "curve.csv"
    run_cli(capsys, "shrinker", "--al", "2", "3", "--points", "256", "--export", str(curve_csv))
    assert curve_csv.exists()
    assert counts["quadratures"] == one_rosette["quadratures"]
    assert counts["integrations"] == 2


def solves_or_is_refused(argv, flag, value):
    """Runs ``main`` in-process with ``flag`` set to ``value``, once as
    ``flag=<repr>`` and once as a separate token; both must print the same
    and end with a JSON object (a passing one if it is a report) or exit 1
    with one error line, with no traceback and no RuntimeWarning."""
    runs = []
    for tokens in ([f"{flag}={value!r}"], [flag, repr(value)]):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main([*argv, *tokens])
                except SystemExit as exc:
                    rc = exc.code
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        runs.append((rc, out.getvalue(), err.getvalue()))
    assert runs[0] == runs[1]
    rc, out, err = runs[0]
    assert "Traceback" not in out + err
    if rc == 0:
        obj = json.loads(out)
        assert isinstance(obj, dict) and obj.get("pass", True) is True
        assert err == ""
    else:
        assert rc == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("mode", [["--circle"], ["--al", "2", "3"]])
@given(lam=st.floats())
@example(lam=2000.0)
@example(lam=1e6)
@example(lam=1e-14)
@example(lam=1e-300)
@example(lam=1e-320)
@example(lam=math.nan)
@example(lam=-math.inf)
@example(lam=-1e-05)
@example(lam=0.0)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_shrinker_lambda_certifies_or_is_refused_by_name(mode, lam):
    # every float, at the default resolutions
    solves_or_is_refused(["shrinker", *mode], "--lambda", lam)


# the other float flags, each beside fixed valid flags; --grid-size and
# --subdivisions keep a draw cheap
FLOAT_FLAG_RUNS = {
    "bounds-K": (["bounds", "--d", "1", "--grid-size", "100"], "--K"),
    "bounds-d": (["bounds", "--K", "1", "--grid-size", "100"], "--d"),
    "bounds-soliton-lambda": (["bounds", "--soliton"], "--lambda"),
    "ou-K": (["ou", "--d", "1"], "--K"),
    "ou-d": (["ou", "--K", "1"], "--d"),
    "ou-verify-K": (["ou", "--verify", "--d", "1"], "--K"),
    "ou-verify-d": (["ou", "--verify", "--K", "1"], "--d"),
    "spectral-radius": (["spectral", "--case", "circle"], "--radius"),
    "spectral-a": (["spectral", "--case", "sphere-height", "--subdivisions", "2"], "--a"),
}


@pytest.mark.parametrize("run", FLOAT_FLAG_RUNS.values(), ids=FLOAT_FLAG_RUNS.keys())
@given(value=st.floats())
@example(value=-1e-05)
@example(value=-math.inf)
@example(value=math.inf)
@example(value=math.nan)
@example(value=-0.0)
@example(value=1e300)
@example(value=5e-324)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_float_flag_solves_or_is_refused_by_name(run, value):
    solves_or_is_refused(*run, value)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("bounds", "--K", "-1e-05", "--d", "1"), None),
        (("shrinker", "--circle", "--lambda", "-1e-05"), "error: lam must be positive"),
        (("ou", "--K", "-inf", "--d", "1"), "error: drift coefficient K must be finite"),
    ],
)
def test_negative_float_in_exponent_form_reaches_validation(capsys, argv, message):
    # argparse's own pattern reads only -1 and -1.5 as numbers, not -1e-05 or -inf
    rc, out, err = run_cli(capsys, *argv)
    if message is None:
        assert rc == 0 and json.loads(out)["K"] == -1e-05
    else:
        assert rc == 1 and out == ""
        assert err.startswith(message) and len(err.splitlines()) == 1


def test_ou_guard_message_prints_the_exponent_in_four_digits(capsys):
    rc, out, err = run_cli(capsys, "ou", "--K", "1e300", "--d", "1")
    assert rc == 1 and out == ""
    assert "= 1.25e+299 exceeds" in err and len(err) < 160


@pytest.mark.parametrize("p, q", [("1", "0"), ("-2", "-3")])
def test_shrinker_rosette_index_out_of_range_exits_one(capsys, p, q):
    rc, out, err = run_cli(capsys, "shrinker", "--al", p, q)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "must be an integer >= 1" in err


def test_shrinker_needs_a_mode(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["shrinker"])
    assert excinfo.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["shrinker", "--circle", "--gaussian"], ["--circle", "--gaussian"]),
        (["shrinker", "--al", "2", "3", "--circle"], ["--al", "--circle"]),
        (["shrinker"], ["--circle", "--al", "--gaussian"]),
        (["bounds", "--grid", "--soliton"], ["--grid", "--soliton"]),
        (["ou", "--K", "1"], ["--d"]),
        (["ou", "--K", "1", "--d", "2", "--verify", "--bc", "dirichlet"], ["--verify", "--bc"]),
        (["ou", "--K", "1", "--d", "2", "--check-shift"], ["--check-shift"]),
    ],
    ids=[
        "shrinker-circle-gaussian",
        "shrinker-al-circle",
        "shrinker-no-mode",
        "bounds-grid-soliton",
        "ou-no-d",
        "ou-verify-bc",
        "ou-check-shift",
    ],
)
def test_parser_refuses_conflicting_or_missing_mode_flags(capsys, argv, flags):
    # one mode per command: argparse refuses the rest before anything runs
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    message = err.splitlines()[-1]
    assert message.startswith("wittengap") and ": error: " in message
    assert all(flag in message for flag in flags), message


def test_bad_flags_exit_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["bounds", "--no-such-flag"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["spectral", "--case", "torus"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_internal_error_exits_one(capsys):
    # a cell count below OUProblem's floor fails validation
    rc, _, err = run_cli(capsys, "ou", "--K", "1", "--d", "2", "--m", "4")
    assert rc == 1
    assert "error:" in err


def test_eigenvalue_out_of_float_range_exits_one(capsys):
    # the Neumann lambda_1 of this problem lies below the smallest normal
    # float; sturm raises EigenvalueRangeError, an ArithmeticError
    rc, out, err = run_cli(capsys, "ou", "--K=-5.6e-197", "--d", "1e100", "--bc", "neumann")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    assert "normal float64 range" in err


# Runs the numpy-only entry points in a fresh interpreter, records which
# scipy modules they loaded, then runs one mesh solve as a positive control.
NUMPY_ONLY_SCRIPT = """
import contextlib, io, json, sys
import wittengap
from wittengap import cli
pools = [m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [
        cli.main(["ou", "--K", "3", "--d", "7", "--verify"]),
        cli.main(["bounds", "--K", "1", "--d", "2"]),
    ]
    before = sorted(m for m in sys.modules if m.startswith("scipy"))
    rcs.append(cli.main(["spectral", "--case", "circle", "--n", "1000"]))
print(json.dumps({
    "rcs": rcs, "pools": pools, "before": before, "after": "scipy.sparse.linalg" in sys.modules
}))
"""


def test_interval_commands_do_not_load_scipy():
    # scipy.sparse costs about 0.35 s and 33 MB to import; only mesh
    # solves need it, so the package, bounds and ou start on numpy alone.
    # The process pool of the grid sweep is imported when a sweep forks.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rcs"] == [0, 0, 0]
    assert result["pools"] == []
    assert result["before"] == []
    assert result["after"] is True


def test_verify_all_determinism_and_failure_report(capsys, tmp_path, tiny_suite):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    rc1, stdout1, err1 = run_cli(capsys, "verify-all", "--out", out1)
    rc2, stdout2, _ = run_cli(capsys, "verify-all", "--out", out2)
    # verify-all runs the suite at its certified resolutions, once per run
    assert len(tiny_suite) == 2
    assert rc1 == rc2 == 1
    assert stdout1 == stdout2
    # the coarse s-grid fails first in case-id order
    assert "first failing case: bounds-closed-vs-grid" in err1

    summary = json.loads((tmp_path / "r1" / "summary.json").read_text())
    assert summary["schema"] == 1
    assert summary["n_cases"] == 14
    assert summary["all_pass"] is False
    case_ids = [c["case_id"] for c in summary["cases"]]
    assert case_ids == sorted(case_ids)
    assert "shrinker-rosette-2-3" in case_ids
    assert sum(1 for line in stdout1.splitlines() if line.startswith(("PASS ", "FAIL "))) == 14

    # byte-identical reruns: same file names, same contents
    names = sorted(p.name for p in (tmp_path / "r1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "r2").iterdir())
    assert set(names) == {cid + ".json" for cid in case_ids} | {"summary.json"}
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
    assert mismatch == [] and errors == []
    assert sorted(match) == names


def test_verify_all_slack_column(capsys, tmp_path, tiny_suite):
    out = tmp_path / "reports"
    rc, stdout, _ = run_cli(capsys, "verify-all", "--out", str(out))
    # the reduced resolutions miss several certified tolerances
    assert rc == 1
    lines = stdout.splitlines()
    rows = [line.split() for line in lines if line.startswith(("PASS ", "FAIL "))]
    assert len(rows) == 14
    assert all(len(row) == 4 and row[2] == "slack" for row in rows)
    # slack = smallest margin + tolerance: negative exactly on the failing cases
    assert all((row[0] == "PASS") == (float(row[3]) >= 0.0) for row in rows)
    assert sum(row[0] == "PASS" for row in rows) == 10
    assert lines[-1] == "10/14 cases passed"
    names = {p.name for p in out.iterdir()}
    assert names == {row[1] + ".json" for row in rows} | {"summary.json"}


def test_verify_all_env_out_dir(capsys, tmp_path, monkeypatch, tiny_suite):
    # --out is the only way to move the reports; the environment is not read
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("WITTEN_GAP_OUT", str(tmp_path / "from-env"))
    rc, stdout, _ = run_cli(capsys, "verify-all")
    assert rc == 1
    assert len(tiny_suite) == 1
    assert (tmp_path / "reports" / "summary.json").exists()
    assert not (tmp_path / "from-env").exists()
    assert "cases passed" in stdout


def test_verify_all_refuses_a_directory_with_stale_reports(capsys, tmp_path, tiny_suite):
    out = tmp_path / "reports"
    # a rerun into the same directory is fine: its summary lists every report
    assert run_cli(capsys, "verify-all", "--out", str(out))[0] == 1
    assert run_cli(capsys, "verify-all", "--out", str(out))[0] == 1
    assert len(tiny_suite) == 2
    # a report no summary lists is refused before anything is computed
    (out / "old-case.json").write_text('{"pass": false}\n')
    (out / "older-case.json").write_text('{"pass": false}\n')
    rc, stdout, err = run_cli(capsys, "verify-all", "--out", str(out))
    assert rc == 1
    assert len(tiny_suite) == 2
    assert stdout == ""
    assert "error: stale reports" in err and "old-case.json, older-case.json" in err
    assert (out / "old-case.json").exists() and (out / "older-case.json").exists()
    # the same without any summary
    bare = tmp_path / "bare"
    bare.mkdir()
    (bare / "old-case.json").write_text("{}\n")
    (bare / "notes.txt").write_text("kept\n")
    rc, _, err = run_cli(capsys, "verify-all", "--out", str(bare))
    assert rc == 1 and "old-case.json" in err and "notes.txt" not in err
    (bare / "summary.json").write_text("[]\n")
    rc, _, err = run_cli(capsys, "verify-all", "--out", str(bare))
    assert rc == 1 and "is not a verify-all summary" in err
    assert len(tiny_suite) == 2


def test_verify_all_refuses_an_out_path_that_is_a_file(capsys, tmp_path, tiny_suite):
    out = tmp_path / "reports"
    out.write_text("kept\n")
    rc, stdout, err = run_cli(capsys, "verify-all", "--out", str(out))
    assert rc == 1
    assert stdout == ""
    assert err == f"error: --out {out} is not a directory\n"
    assert tiny_suite == []
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_suite_grid_equals_one_serial_sweep(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    Ks = list(np.linspace(*cli.K_RANGE, cli.N_K))
    ds = list(np.linspace(*cli.D_RANGE, cli.N_D))
    with cli.start_closed_vs_grid(TINY["SUP_GRID_SIZE"]) as sweep:
        cli.case_gaussian()
        grids = sweep.finish()
    assert grids.tobytes() == _sweep_columns(Ks, ds, TINY["SUP_GRID_SIZE"]).tobytes()


EPS = np.finfo(float).eps


def rounding_scale(K, d, closed):
    """max(|closed|, pi^2/d^2 + |K|): the largest term that the grid value
    and the closed form are rounded against."""
    return max(abs(closed), math.pi**2 / d**2 + abs(K))


def grid_excess(rows):
    """(grid - closed) / (eps scale) for each sweep row."""
    return np.array(
        [(grid - closed) / (EPS * rounding_scale(K, d, closed)) for K, d, closed, grid, _ in rows]
    )


def test_grid_maximum_exceeds_the_closed_form_by_rounding_at_most():
    # the abs_diff column hides a grid maximum above its closed form; 8 eps
    # covers the roundings of the grid value and of the closed form
    with cli.start_closed_vs_grid(TINY["SUP_GRID_SIZE"]) as sweep:
        rows = cli.sweep_closed_vs_grid(sweep)
    assert len(rows) == cli.N_K * cli.N_D == 2500
    excess = grid_excess(rows)
    assert excess.max() <= 8.0
    # negative control: one grid maximum raised by 64 eps scale is caught
    worst = int(excess.argmax())
    K, d, closed, grid, diff = rows[worst]
    rows[worst] = (K, d, closed, grid + 64.0 * EPS * rounding_scale(K, d, closed), diff)
    assert grid_excess(rows).max() > 8.0


_COLUMN_LOG = None


def _sweep_columns_logged(Ks, ds, grid_size):
    with open(_COLUMN_LOG, "a") as fh:
        fh.write(f"{ds[0]!r}\n")
    return _sweep_columns(Ks, ds, grid_size)


def test_suite_error_stops_the_sweep_workers(monkeypatch, tmp_path):
    # a case that raises while the certified sweep runs in a worker: the
    # error propagates, no worker is left, and the queued columns are dropped
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(sys.modules[__name__], "_COLUMN_LOG", str(tmp_path / "columns"))
    monkeypatch.setattr(bounds, "_sweep_columns", _sweep_columns_logged)

    def failing(m):
        raise RuntimeError("comparison grid failed")

    monkeypatch.setattr(cli, "case_comparison_grid", failing)
    with pytest.raises(RuntimeError, match="comparison grid failed"):
        run_suite()
    assert multiprocessing.active_children() == []
    log = tmp_path / "columns"
    swept = log.read_text().splitlines() if log.exists() else []
    assert len(swept) < cli.N_D // 2


@pytest.mark.parametrize("d", ["1e-200", "1e-160", "1e200"])
def test_bounds_rejects_a_diameter_out_of_float_range(capsys, d):
    rc, out, err = run_cli(capsys, "bounds", "--K", "1", "--d", d)
    assert rc == 1
    assert out == ""
    assert "error: diameter d out of range" in err


@pytest.mark.parametrize("radius", ["1e200", "1e-160", "inf"])
def test_spectral_rejects_a_radius_out_of_float_range(capsys, monkeypatch, radius):
    # 1/r^2 overflowed at 1e200; the range is checked before the circle is built
    calls = count_calls(monkeypatch, [cli], ["build_weighted_circle"])
    rc, out, err = run_cli(capsys, "spectral", "--case", "circle", "--radius", radius)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: radius out of range")
    assert calls == {"build_weighted_circle": 0}


@pytest.mark.parametrize("radius", ["1e7", "1e20", "1e100", "1e-100"])
def test_spectral_circle_the_solver_cannot_resolve_exits_one(capsys, radius):
    rc, out, err = run_cli(capsys, "spectral", "--case", "circle", "--radius", radius)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "shift -0.001" in err


def readme_commands():
    """Argument lists of the ``wittengap ...`` lines in the README's
    "Command line" block, without the command name and comments."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    return [
        shlex.split(line.split("#", 1)[0])[1:]
        for line in block.splitlines()
        if line.startswith("wittengap ")
    ]


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 9
    assert {argv[0] for argv in commands} == {"bounds", "ou", "spectral", "shrinker", "verify-all"}
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: wittengap {shlex.join(argv)}")
