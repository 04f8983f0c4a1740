"""Gate kinds and the report they build."""

import math

import pytest

from wittengap.report import equal, lower, make_report, upper

LIMIT = 1.0
TOL = 1e-6


def report(**gates):
    return make_report("case", inputs={}, computed={}, bounds={}, gates=gates)


@pytest.mark.parametrize(
    "kind, outward",
    [(lower, -1.0), (upper, 1.0), (equal, 1.0), (equal, -1.0)],
    ids=["lower", "upper", "equal-above", "equal-below"],
)
def test_gate_passes_inside_its_tolerance_and_fails_past_it(kind, outward):
    inside = report(gate=kind(LIMIT + outward * 0.5 * TOL, LIMIT, TOL))
    past = report(gate=kind(LIMIT + outward * TOL * (1.0 + 1e-9), LIMIT, TOL))
    assert inside.passed
    assert not past.passed
    assert past.tolerances == {"gate": TOL}


def test_kinds_sign_their_margins():
    assert lower(3.0, 1.0) == (2.0, 0.0)
    assert upper(3.0, 1.0) == (-2.0, 0.0)
    assert upper(0.5, 1.0, 0.1) == (0.5, 0.1)
    assert equal(1.0, 3.0, 0.5) == (-2.0, 0.5)


@pytest.mark.parametrize(
    "gate, sign",
    [(upper(0.0), -1.0), (equal(3, 3.0), -1.0), (lower(-0.0), -1.0), (lower(0.0), 1.0)],
    ids=["upper-zero", "equal-int", "lower-negative-zero", "lower-zero"],
)
def test_zero_margin_keeps_its_sign(gate, sign):
    # reports print -0.0 and 0.0 apart, so a zero defect keeps the sign
    # that negating it gives
    margin, _ = gate
    assert margin == 0.0 and math.copysign(1.0, margin) == sign
    assert report(gate=gate).passed


def test_slack_is_the_smallest_margin_plus_tolerance():
    rep = report(near=upper(2.0, 1.0, 1.5), far=lower(5.0, 1.0))
    assert rep.passed
    assert rep.slack == 0.5
    assert report(miss=lower(0.0, 1.0, 0.25)).slack == -0.75


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_margin_that_is_not_finite_is_rejected(value):
    with pytest.raises(ValueError, match="margin 'gate' is not finite"):
        report(gate=upper(value))
