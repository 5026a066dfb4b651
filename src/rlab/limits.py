"""Numerically estimated limits with honest at-cut verdicts.

Every mean-value in this package has the shape lim_x (1/x) sum_{n<=x}(...).
We never assert the asymptotic statement: a LimitEstimate records the grid,
the per-point estimates and their successive differences, and declares
"converged" only when the last delta is below tolerance (optionally also
requiring a minimum grid span in decades and closeness to a known target).

A grid is checked by `check_grid` once per public call: each public reader
(the estimators, and the command line through them) checks it on entry, and
their helpers, `build_estimate` and `transforms._wintner_partials`, take the
checked list as it stands.  Each check and each estimate takes a few C-level
passes (`map`, list comparison), since the orthogonality averages build
thousands of three-point estimates.
A grid value must be an integer: an integral float such as 1e3 or a numpy
integer is read as the int, and a value such as 2.5 is refused rather than
truncated.
"""

from dataclasses import dataclass
import math
from operator import lt, sub


@dataclass
class LimitEstimate:
    grid: list
    estimates: list                 # floats, one per grid point
    deltas: list                    # successive differences, len(grid)-1
    verdict: str                    # "converged" | "undetermined"
    tol: float
    target: float | None = None     # exact limit when known
    exact: list | None = None       # per-point Fractions when the path is exact

    @property
    def final(self) -> float:
        return self.estimates[-1]

    @property
    def converged(self) -> bool:
        return self.verdict == "converged"


def build_estimate(grid, estimates, tol, target=None, exact=None,
                   min_decades: float = 0.0) -> LimitEstimate:
    """The estimate over grid, the caller's list from `check_grid`, as it stands."""
    estimates = list(map(float, estimates))
    deltas = list(map(sub, estimates[1:], estimates))
    ok = True
    if deltas:
        ok = abs(deltas[-1]) < tol
    if target is not None:
        ok = ok and abs(estimates[-1] - target) < tol
    if min_decades > 0 and len(grid) > 1:
        ok = ok and math.log10(grid[-1] / grid[0]) >= min_decades - 1e-12
    return LimitEstimate(grid=grid, estimates=estimates, deltas=deltas,
                         verdict="converged" if ok and deltas else "undetermined",
                         tol=tol, target=target, exact=exact)


def check_grid(xgrid) -> list:
    """Grid values as ints: nonempty, integral, strictly increasing, every
    x >= 1 (each average divides by x).  A non-integral value raises
    ValueError naming it."""
    vals = list(xgrid)
    try:
        xs = list(map(int, vals))
    except OverflowError as exc:    # an infinite float; int(nan) is a ValueError
        raise ValueError(f"evaluation grid values must be integers: {exc}") from None
    if xs != vals:
        bad = next(v for v, x in zip(vals, xs) if v != x)
        raise ValueError(f"evaluation grid values must be integers, got {bad}")
    if not xs:
        raise ValueError("empty evaluation grid")
    if not all(map(lt, xs, xs[1:])):
        raise ValueError("evaluation grid must be strictly increasing")
    if xs[0] < 1:
        raise ValueError(f"evaluation grid values must be >= 1, got {xs[0]}")
    return xs
