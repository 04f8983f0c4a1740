"""Machine-readable verification reports.

Every check in this package reduces to a handful of gates, each declared
once by its kind: ``lower`` (a value must reach a limit), ``upper`` (a
value must stay under a limit) or ``equal`` (a value must meet a target).
Each kind gives the gate's margin, signed so that a negative margin is a
miss, and its tolerance.  A report records the inputs, the computed
quantities, the bound values, the margins and tolerances, and one pass
flag, true iff every margin clears its tolerance, i.e.
margin >= -tolerance.  Reports serialize to JSON with sorted keys and no
timestamps, so repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = [
    "SCHEMA_VERSION",
    "VerificationReport",
    "canonical_json",
    "lower",
    "upper",
    "equal",
    "make_report",
]

SCHEMA_VERSION = 1


@dataclass
class VerificationReport:
    """One verified case: inputs, computed values, bounds, margins, verdict.

    ``margins`` and ``tolerances`` share keys; the case passes iff
    ``margins[k] >= -tolerances[k]`` for every key.  Use :func:`make_report`
    instead of constructing directly so the flag stays consistent.
    """

    case_id: str
    inputs: dict[str, float]
    computed: dict[str, float]
    bounds: dict[str, float]
    margins: dict[str, float]
    tolerances: dict[str, float]
    passed: bool
    notes: list[str] = field(default_factory=list)

    @property
    def slack(self) -> float:
        """The smallest margin + tolerance: how close the nearest gate came
        to failing."""
        return min(self.margins[k] + self.tolerances[k] for k in self.margins)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "case_id": self.case_id,
            "inputs": dict(self.inputs),
            "computed": dict(self.computed),
            "bounds": dict(self.bounds),
            "margins": dict(self.margins),
            "tolerances": dict(self.tolerances),
            "pass": self.passed,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_dict())

    def __repr__(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.case_id}"


def canonical_json(obj: dict) -> str:
    """The one JSON form of every report and summary: sorted keys, two-space
    indent, a trailing newline."""
    # allow_nan=False: a NaN anywhere in a report is a bug, fail loudly
    # rather than emit non-standard JSON.
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def lower(value: float, limit: float = 0.0, tol: float = 0.0) -> tuple[float, float]:
    """Gate ``value >= limit - tol``: margin ``value - limit``."""
    return value - limit, tol


def upper(value: float, limit: float = 0.0, tol: float = 0.0) -> tuple[float, float]:
    """Gate ``value <= limit + tol``: margin ``-(value - limit)``, the
    negated defect exactly, so ``upper(0.0)`` is ``-0.0``."""
    return -(value - limit), tol


def equal(value: float, target: float, tol: float = 0.0) -> tuple[float, float]:
    """Gate ``|value - target| <= tol``: margin ``-|value - target|``."""
    return -abs(value - target), tol


def make_report(
    case_id: str,
    inputs: dict[str, float],
    computed: dict[str, float],
    bounds: dict[str, float],
    gates: dict[str, tuple[float, float]],
    notes: list[str] | None = None,
) -> VerificationReport:
    """Build a report from ``gates``, each a ``(margin, tolerance)`` pair
    from :func:`lower`, :func:`upper` or :func:`equal`, deriving the pass
    flag from margins vs tolerances."""
    margins = {name: margin for name, (margin, _) in gates.items()}
    tolerances = {name: tol for name, (_, tol) in gates.items()}
    for name, value in margins.items():
        if not math.isfinite(value):
            raise ValueError(f"margin {name!r} is not finite: {value}")
    passed = all(margins[k] >= -tolerances[k] for k in margins)
    return VerificationReport(
        case_id=case_id,
        inputs=inputs,
        computed=computed,
        bounds=bounds,
        margins=margins,
        tolerances=tolerances,
        passed=passed,
        notes=list(notes or []),
    )
