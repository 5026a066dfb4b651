"""limits: every refusal of check_grid and every verdict branch of
build_estimate, called directly, and one grid check per estimator call."""

from fractions import Fraction
import math
from types import SimpleNamespace

import numpy as np
import pytest

from rlab import limits, ramanujan, shift, transforms
from rlab.arith import ArithmeticFunction
from rlab.finite import FiniteExpansion, fre_to_tds
from rlab.limits import build_estimate, check_grid


def test_check_grid_reads_ints_integral_floats_and_numpy_ints():
    assert check_grid([1, 10, 100]) == [1, 10, 100]
    assert check_grid([1e2, 1e3]) == [100, 1000]
    assert check_grid(np.array([5, 7], dtype=np.int64)) == [5, 7]
    assert check_grid(x for x in (3, 4)) == [3, 4]
    assert all(type(x) is int for x in check_grid([np.int64(2), 3.0, 4]))


def test_check_grid_refuses_an_empty_grid():
    with pytest.raises(ValueError, match="empty evaluation grid"):
        check_grid([])


@pytest.mark.parametrize("grid", [[10, 10], [100, 10], [1, 5, 3]])
def test_check_grid_refuses_a_non_increasing_grid(grid):
    with pytest.raises(ValueError, match="strictly increasing"):
        check_grid(grid)


@pytest.mark.parametrize("grid", [[0, 10], [-5, 10]])
def test_check_grid_refuses_values_below_one(grid):
    with pytest.raises(ValueError, match=">= 1"):
        check_grid(grid)


@pytest.mark.parametrize("grid, bad", [([2.5, 100], "2.5"), ([10, 99.9], "99.9"),
                                       ([np.float64(7.25)], "7.25"),
                                       ([Fraction(5, 2)], "5/2")])
def test_check_grid_refuses_non_integral_values(grid, bad):
    # a value such as 2.5 is refused, and named, rather than truncated to 2
    with pytest.raises(ValueError, match=f"must be integers, got {bad}"):
        check_grid(grid)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_check_grid_refuses_non_finite_values(x):
    with pytest.raises(ValueError, match="(infinity|NaN)"):
        check_grid([10, x])


def test_one_point_grid_is_undetermined():
    # no delta to compare: undetermined, even when the point sits on target
    est = build_estimate([100], [1.0], tol=0.1, target=1.0)
    assert est.verdict == "undetermined" and est.deltas == []


def test_last_delta_decides_without_a_target():
    assert build_estimate([10, 100], [1.0, 1.05], tol=0.1).converged
    assert not build_estimate([10, 100], [1.0, 1.2], tol=0.1).converged


def test_target_gap_decides():
    # the last two estimates agree, so only the gap to the target decides
    assert build_estimate([10, 100], [2.0, 2.0], tol=0.1, target=2.05).converged
    assert not build_estimate([10, 100], [2.0, 2.0], tol=0.1, target=2.5).converged


def test_min_decades_decides():
    # two decades spanned by 10..1000, one by 10..100
    assert build_estimate([10, 1000], [1.0, 1.0], tol=0.1, min_decades=2.0).converged
    assert not build_estimate([10, 100], [1.0, 1.0], tol=0.1, min_decades=2.0).converged


def test_build_estimate_fields():
    est = build_estimate([1e1, 1e2, 1e3], [1, 0.5, 0.25], tol=0.5, target=0.0,
                         exact=["e"])
    assert est.grid == [10, 100, 1000]
    assert est.estimates == [1.0, 0.5, 0.25]
    assert all(type(e) is float for e in est.estimates)
    assert est.deltas == [-0.5, -0.25]
    assert est.final == 0.25 and est.converged
    assert (est.tol, est.target, est.exact) == (0.5, 0.0, ["e"])


def estimator_calls():
    f = ArithmeticFunction.table([1, 0, 2, -1], after="zero")
    cut = shift.cut_correlation(f, f, 8, 16)
    grid = [100, 1000]
    return {
        "orthogonality_estimate": lambda: ramanujan.orthogonality_estimate(3, 3, 2, grid),
        "carmichael_estimate": lambda: transforms.carmichael_estimate(f, 3, grid),
        "carmichael_vs_cc": lambda: shift.carmichael_vs_cc(cut, 2, grid),
        "l_estimate": lambda: shift.l_estimate(cut, 2, grid),
        # Carmichael's formula for a finite expansion, on its dual t.d.s.
        "carmichael_formula_check": lambda: transforms.carmichael_estimate(
            ArithmeticFunction.from_tds(fre_to_tds(FiniteExpansion(3, [1, Fraction(1, 2), 3]))),
            2, grid),
        # a report, not an estimate: its grid is the x of its rows
        "cw_formula_check": lambda: SimpleNamespace(
            grid=[r.x for r in transforms.cw_formula_check(f, 3, grid).rows]),
    }


@pytest.mark.parametrize("name", list(estimator_calls()))
def test_each_estimator_checks_its_grid_once(monkeypatch, name):
    # the public call checks its grid; build_estimate takes the checked list
    calls = []

    def counted(xgrid):
        calls.append(xgrid)
        return check_grid(xgrid)
    for module in (limits, ramanujan, shift, transforms):
        monkeypatch.setattr(module, "check_grid", counted)
    est = estimator_calls()[name]()
    assert len(calls) == 1 and est.grid == [100, 1000]
