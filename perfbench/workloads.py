"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

A pass is one complete certified workload.  ``execute`` times the program's
operations and nothing else; ``check`` then verifies every output and counts
each operation that raised, returned a non-finite value or failed a check.
Both workloads run as a closed loop: one caller, one operation at a time.

verify-all
    One operation is the ``wittengap verify-all`` command, run through
    ``cli.main`` into a temporary directory.  Every module is on its path.
    Its inputs are the certified defaults, so the seed does not change it.

interval-sweep
    One operation is ``sturm.verify_comparison(K, d)`` at the default
    ``m = 2000``, over 2500 points of the criterion-01 box
    K in [-10, 10], d in [0.1, 20].  Seed 0 gives the 50 x 50 lattice of
    that criterion in K-major order; any other seed runs the same 2500
    points in a seed-drawn order.  The points stay those of the criterion,
    so the 42 of them at K < 0 that raise (the ``_flux_tridiag`` overflow)
    fail at every seed, and two sets of runs with different seeds count the
    same failures.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tracer import SUITE_CASES

K_BOX = (-10.0, 10.0)
D_BOX = (0.1, 20.0)
LATTICE = 50

# negative control: |K| (d/2)^2 / 2 = 1125 is past sturm.EXPONENT_GUARD (700)
PAST_GUARD = (10.0, 30.0)


@dataclass
class Pass:
    """One pass: its timing, its raw outputs, and what the checks found."""

    wall_s: float
    op_ms: list  # per operation attempted, in input order; None where it raised
    outputs: list  # per operation attempted; dropped once checked
    errors: Counter = field(default_factory=Counter)
    mismatches: list[str] = field(default_factory=list)
    failed: int = 0
    attempted: int = field(init=False)

    def __post_init__(self) -> None:
        self.attempted = len(self.outputs)


def make(name: str, seed: int, out_dir: Path):
    """Import the program and build the workload's inputs."""
    if name == "verify-all":
        return VerifyAll(out_dir)
    if name == "interval-sweep":
        return IntervalSweep(seed)
    raise ValueError(f"unknown workload {name!r}")


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _verdict_mismatch(margins: dict, tolerances: dict, passed) -> str | None:
    """The pass flag must be true and must agree with margin >= -tolerance."""
    if set(margins) != set(tolerances):
        return "margins and tolerances have different keys"
    if not _finite(margins.values()) or not _finite(tolerances.values()):
        return "non-finite margin or tolerance"
    verdict = all(margins[k] >= -tolerances[k] for k in margins)
    if passed is not verdict:
        return f"pass flag {passed} disagrees with its margins ({verdict})"
    if not passed:
        return "report FAILs"
    return None


# ---------------------------------------------------------------------------
# verify-all


def check_verify_all(files: dict[str, bytes], stdout: str, exit_code, reference) -> list[str]:
    """Mismatches in one verify-all output directory.

    ``files`` maps file names to bytes.  Every report must PASS, agree with
    its own margins and be in canonical JSON form; the summary must agree
    with the reports; every suite case of the default run must be present;
    and when ``reference`` (name -> sha256) is given, every file must match
    it byte for byte.
    """
    bad = []
    if exit_code != 0:
        bad.append(f"exit code {exit_code}")
    cases = sorted(n[:-5] for n in files if n.endswith(".json") and n != "summary.json")
    missing = sorted(set(SUITE_CASES) - set(cases))
    if missing:
        bad.append(f"missing reports: {missing}")
    for case_id in cases:
        raw = files[case_id + ".json"]
        try:
            rep = json.loads(raw)
        except ValueError as exc:
            bad.append(f"{case_id}: not JSON ({exc})")
            continue
        canonical = json.dumps(rep, sort_keys=True, indent=2, allow_nan=False) + "\n"
        if canonical.encode() != raw:
            bad.append(f"{case_id}: bytes are not the canonical report serialization")
        if rep.get("schema") != 1 or rep.get("case_id") != case_id:
            bad.append(f"{case_id}: wrong schema or case_id")
        why = _verdict_mismatch(rep.get("margins", {}), rep.get("tolerances", {}), rep.get("pass"))
        if why:
            bad.append(f"{case_id}: {why}")
    try:
        summary = json.loads(files.get("summary.json", b""))
    except ValueError:
        summary = {}
    listed = [c.get("case_id") for c in summary.get("cases", [])]
    n = len(cases)
    if listed != cases or summary.get("n_pass") != n or summary.get("all_pass") is not True:
        bad.append("summary.json disagrees with the reports or is not all-pass")
    if stdout.rstrip().splitlines()[-1:] != [f"{n}/{n} cases passed"]:
        bad.append("command did not print all cases passed")
    if reference is not None:
        digests = digest(files)
        changed = sorted(k for k in set(digests) | set(reference) if digests.get(k) != reference.get(k))
        if changed:
            bad.append(f"bytes differ from the reference run: {changed}")
    return bad


def digest(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(raw).hexdigest() for name, raw in sorted(files.items())}


class VerifyAll:
    """The default certification suite through the ``verify-all`` command.

    Report bytes are compared across passes and across runs of the same
    program source in one checkout: the first clean pass stores its digests
    under the output directory, keyed by a hash of ``src/wittengap``.
    """

    def __init__(self, out_dir: Path):
        from wittengap import cli

        self.cli = cli
        self.out_dir = out_dir
        source = Path(cli.__file__).parent
        src_hash = hashlib.sha256()
        for path in sorted(source.glob("*.py")):
            src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
        self.reference_path = out_dir / f"verify-all-reference-{src_hash.hexdigest()[:16]}.json"
        self.reference = None
        if self.reference_path.is_file():
            self.reference = json.loads(self.reference_path.read_text())

    def execute(self) -> Pass:
        with tempfile.TemporaryDirectory(dir=self.out_dir, prefix="verify-all-") as tmp:
            stdout = io.StringIO()
            errors: Counter = Counter()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout):
                    code = self.cli.main(["verify-all", "--out", tmp])
            except Exception as exc:  # counted as a failed operation
                code = None
                errors[type(exc).__name__] += 1
            wall = time.perf_counter() - start
            files = {p.name: p.read_bytes() for p in Path(tmp).iterdir()}
        return Pass(
            wall_s=wall,
            op_ms=[None if errors else wall * 1e3],
            outputs=[(files, stdout.getvalue(), code)],
            errors=errors,
        )

    def check(self, p: Pass) -> None:
        files, stdout, code = p.outputs[0]
        if p.errors:
            p.failed = 1
            return
        p.mismatches = check_verify_all(files, stdout, code, self.reference)
        p.failed = int(bool(p.mismatches))
        if not p.mismatches and self.reference is None:
            self.reference = digest(files)
            tmp = self.reference_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.reference, indent=1, sort_keys=True))
            tmp.replace(self.reference_path)

    def controls(self, p: Pass) -> dict[str, bool]:
        """Corrupted copies of a clean pass's output must be caught."""
        files, stdout, code = p.outputs[0]
        report_names = sorted(n for n in files if n != "summary.json")
        if p.errors or not report_names:
            return {"flipped pass flag": False, "altered report bytes": False}
        pristine = digest(files)
        flipped = dict(files)
        name = report_names[0]
        flipped[name] = files[name].replace(b'"pass": true', b'"pass": false', 1)
        altered = dict(files)
        name = report_names[-1]
        raw = files[name]
        pos = raw.index(b'"margins"')
        i = next(i for i in range(pos, len(raw)) if raw[i : i + 1].isdigit())
        bumped = str((int(raw[i : i + 1]) + 1) % 10).encode()
        altered[name] = raw[:i] + bumped + raw[i + 1 :]
        return {
            "flipped pass flag": bool(check_verify_all(flipped, stdout, code, pristine)),
            "altered report bytes": bool(check_verify_all(altered, stdout, code, pristine)),
        }


# ---------------------------------------------------------------------------
# interval-sweep


def sweep_points(seed: int) -> list[tuple[float, float]]:
    """The 2500 (K, d) lattice points; see the module docstring."""
    import numpy as np

    Ks = np.linspace(*K_BOX, LATTICE)
    ds = np.linspace(*D_BOX, LATTICE)
    points = [(float(K), float(d)) for K in Ks for d in ds]
    if seed == 0:
        return points
    order = np.random.default_rng(seed).permutation(len(points))
    return [points[i] for i in order]


def check_interval_report(rep, K: float, d: float) -> str | None:
    """A report must answer the question asked, be finite and PASS."""
    if rep.inputs.get("K") != K or rep.inputs.get("d") != d:
        return f"report for ({rep.inputs.get('K')}, {rep.inputs.get('d')}), asked ({K}, {d})"
    if not _finite(rep.computed.values()) or not _finite(rep.bounds.values()):
        return "non-finite value in report"
    return _verdict_mismatch(rep.margins, rep.tolerances, rep.passed)


class IntervalSweep:
    """``sturm.verify_comparison`` over the criterion-01 (K, d) box."""

    def __init__(self, seed: int):
        from wittengap import sturm

        self.sturm = sturm
        self.points = sweep_points(seed)
        self.first: list | None = None  # lambda_1 per point from the first pass

    def _run(self, points) -> Pass:
        op = self.sturm.verify_comparison  # looked up per pass so tracing applies
        clock = time.perf_counter
        outputs, op_ms, errors = [], [], Counter()
        start = clock()
        for K, d in points:
            t0 = clock()
            try:
                rep = op(K, d)
            except Exception as exc:  # counted as a failed operation
                errors[type(exc).__name__] += 1
                op_ms.append(None)
                outputs.append(None)
                continue
            op_ms.append((clock() - t0) * 1e3)
            outputs.append(rep)
        return Pass(wall_s=clock() - start, op_ms=op_ms, outputs=outputs, errors=errors)

    def execute(self) -> Pass:
        return self._run(self.points)

    def check(self, p: Pass, points=None) -> None:
        points = self.points if points is None else points
        lams = []
        for (K, d), rep in zip(points, p.outputs):
            if rep is None:
                p.failed += 1
                lams.append(None)
                continue
            why = check_interval_report(rep, K, d)
            lams.append(rep.computed.get("lambda1_ou"))
            if why:
                p.failed += 1
                p.mismatches.append(f"({K:.6g}, {d:.6g}): {why}")
        if points is not self.points:
            return
        if self.first is None:
            self.first = lams
        elif lams != self.first:
            changed = sum(a != b for a, b in zip(lams, self.first))
            p.mismatches.append(f"{changed} lambda_1 values differ from the first pass")

    def controls(self, p: Pass) -> dict[str, bool]:
        """Inputs and reports that must count as failures."""
        guard = self._run([PAST_GUARD])
        self.check(guard, [PAST_GUARD])
        out = {"input past EXPONENT_GUARD": guard.failed == 1 and bool(guard.errors)}
        i = next((i for i, rep in enumerate(p.outputs) if rep is not None), None)
        if i is None:
            return {**out, "report controls (no report to corrupt)": False}
        rep = p.outputs[i]
        K, d = self.points[i]
        flipped = dataclasses.replace(rep, passed=not rep.passed)
        lam = rep.computed["lambda1_ou"]
        nan = dataclasses.replace(rep, computed={**rep.computed, "lambda1_ou": math.nan})
        nudged = list(p.outputs)
        nudged[i] = dataclasses.replace(
            rep, computed={**rep.computed, "lambda1_ou": math.nextafter(lam, math.inf)}
        )
        rerun = Pass(wall_s=p.wall_s, op_ms=p.op_ms, outputs=nudged)
        self.check(rerun)
        return {
            **out,
            "flipped pass flag": check_interval_report(flipped, K, d) is not None,
            "non-finite lambda_1": check_interval_report(nan, K, d) is not None,
            "lambda_1 one ulp off the first pass": bool(rerun.mismatches),
        }
