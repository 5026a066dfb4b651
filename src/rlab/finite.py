"""Truncated divisor sums and pure finite Ramanujan expansions.

`FiniteExpansion` is the one object for a finite coefficient sequence
fhat(1..Q), zero past Q, in n as in the shift of a cut correlation.  Equality
on both sides ignores trailing zeros, so it follows the values: expansions
(or t.d.s.) that differ only in how far their zero tail is stored are equal.

Both objects check their input once, by one rule, in `_Scaled.__post_init__`:
range Q >= 1, exactly Q values and `rational.freeze`, so a nonzero float is
refused, a zero float is an exact 0 and all-integral values are held as an
ExactList of ints; an ExactList is held as it stands.  The duality's
results, built by `_Scaled._over`, are not checked again.

The two representations are dual: coefficients come from the transform via
fhat(q) = sum_{d<=Q, q|d} fprime(d)/d, and the transform comes back via
fprime(d) = d * sum_{K<=Q/d} fhat(d*K) mu[K].  Both directions are exact and
roundtrip exactly; evaluation of either side agrees pointwise everywhere.

Both objects are frozen and hold their canonical pair (nums, den) once, as
the attribute `scaled`: an object built from values works it out on first
read (`rational.scale` of its `rational.ExactList`), and each direction of
the duality hands its pair straight to the new object, whose
`.fhat`/`.fprime` is built, once, the first time it is read.  So a chain of
exact reads (`eval`, `fre_to_tds`, `FiniteExpansion.get`, equality) builds
no Fraction list.  The kernels and dots read the numerators:
`transforms.wintner_inverse` gives fprime; the values of a t.d.s. on 1..nmax
are one slice sum per nonzero fprime(d) while there are few of them, and
`kernels.divisor_scatter_int` otherwise; one integer sum over the divisors of
n gives one value, and one integer dot with the row c_q(n) gives a value of
an expansion.
The Wintner sums for fhat reduce each term fprime(d)/d as an integer pair.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt
from operator import mul

import numpy as np

from .arith import divisors
from .rational import (BuiltOnRead, ExactList, canonical, freeze, head, ratio, scale,
                       value_kind)
from .transforms import (decay_tail_bound, eratosthenes, wintner_coefficient,
                         wintner_inverse, wintner_scaled_table)
from . import kernels


def _trimmed(values) -> list:
    """values without their trailing zeros: two sequences that vanish past
    their ranges are equal exactly when their trimmed forms are."""
    r = len(values)
    while r and values[r - 1] == 0:
        r -= 1
    return values[:r]


class _Scaled:
    """A frozen value object that holds its exact sequence's canonical pair
    once, as the attribute `scaled`: `scale` of its values field `_values` on
    first read (a non-data descriptor, like `rational.BuiltOnRead`), or set
    by `_over`, whose object builds its values field on first read.  `__post_init__` is
    the one input check of both value objects; `_over` skips it."""

    def __post_init__(self):
        name, values = self._values, getattr(self, self._values)
        if self.range < 1:
            raise ValueError("range Q >= 1 required")
        if len(values) != self.range:
            raise ValueError(f"{name} must have exactly Q entries")
        if not isinstance(values, ExactList):
            values = freeze(values)
            kind = value_kind(values)
            if kind == "float":
                raise ValueError(f"{name} must hold exact values, not floats")
            if kind == "int":
                values = ExactList(values.tolist())
        object.__setattr__(self, name, values)

    @cached_property
    def scaled(self) -> tuple:
        return scale(getattr(self, self._values))

    @classmethod
    def _over(cls, q: int, nums, den: int):
        obj = object.__new__(cls)
        object.__setattr__(obj, "range", q)
        object.__setattr__(obj, "scaled", canonical(nums, den))
        return obj

    def __eq__(self, other):
        # equality follows the values: canonical pairs are equal exactly when
        # the values are, and a trailing zero adds no prime to den
        if not isinstance(other, type(self)):
            return NotImplemented
        (a, aden), (b, bden) = self.scaled, other.scaled
        return aden == bden and _trimmed(a) == _trimmed(b)


@dataclass(frozen=True, eq=False)
class TruncatedDivisorSum(_Scaled):
    """F(n) = sum_{d|n, d<=Q} fprime(d); fprime is 1-based of length Q."""
    range: int
    fprime: list = BuiltOnRead()      # no default: built on first read
    _values = "fprime"

    def eval(self, n: int):
        if n < 1:
            raise ValueError("t.d.s. evaluation is 1-based")
        nums, den = self.scaled
        return ratio(sum(nums[d - 1] for d in divisors(n) if d <= self.range), den)

    def eval_range(self, nmax: int):
        """Values on 1..nmax as a `rational.freeze` shape: an integer array
        when integral, else an ExactList of Fractions.

        F is a sum of arithmetic progressions, one per d <= min(Q, nmax) with
        fprime(d) != 0, each adding fprime(d) on the multiples of d.  While
        there are at most 32 + isqrt(nmax) such d, they are added one slice
        each (in int64 while the sum of their |numerators| stays below 2**63,
        which bounds every value); past that the divisor scatter over all
        primes up to nmax costs less."""
        nums, den = self.scaled
        nums = nums[:nmax]
        if len(nums) - nums.count(0) <= 32 + isqrt(nmax):
            terms = [(d, v) for d, v in enumerate(nums, 1) if v]
            big = sum(abs(v) for _, v in terms) >= kernels.INT64_LIMIT
            out = np.zeros(nmax + 1, dtype=object if big else np.int64)
            for d, v in terms:
                out[d::d] += v
        else:
            out = kernels.divisor_scatter_int(head(kernels.one_based(nums), nmax + 1))
        out = kernels.read_only(out[1:])     # fresh, so freeze need not copy it
        return freeze(out) if den == 1 else ExactList.over(out.tolist(), den)


@dataclass(frozen=True, eq=False)
class FiniteExpansion(_Scaled):
    """F(n) = sum_{q<=Q} fhat(q) c_q(n); fhat is 1-based of length Q."""
    range: int
    fhat: list = BuiltOnRead()        # no default: built on first read
    _values = "fhat"

    def get(self, q: int):
        """fhat(q) as a Fraction read from the scaled pair, zero past the
        range Q."""
        if q < 1:
            raise ValueError("coefficient index q >= 1 required")
        if q > self.range:
            return 0
        nums, den = self.scaled
        return Fraction(nums[q - 1], den)

    def eval(self, n: int):
        nums, den = self.scaled
        row = kernels.csum_row(n, self.range).tolist()
        return ratio(sum(map(mul, nums, row[1:])), den)


def tds_to_fre(t: TruncatedDivisorSum) -> FiniteExpansion:
    """Finite Ramanujan coefficients of a truncated divisor sum (exact), held
    as the scaled Wintner table until fhat is read."""
    return FiniteExpansion._over(t.range, *wintner_scaled_table(t.fprime, t.range))


def fre_to_tds(e: FiniteExpansion) -> TruncatedDivisorSum:
    """Truncated Eratosthenes transform of a finite expansion (exact inverse),
    held as its scaled pair until fprime is read."""
    return TruncatedDivisorSum._over(e.range, *wintner_inverse(*e.scaled))


def truncate(f, q: int) -> TruncatedDivisorSum:
    """Q-truncated counterpart of an arithmetic function: keep fprime(1..Q)."""
    return TruncatedDivisorSum(q, eratosthenes(f, q))


@dataclass
class HighCoefficientReport:
    range: int
    checked: list = field(default_factory=list)   # (q, fhat_q, fprime_q_over_q)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def high_coefficient_check(f, q_range: int) -> HighCoefficientReport:
    """For q in (Q/2, Q]: the truncation's coefficient equals fprime(q)/q.

    The only multiple of such q below Q is q itself, so the identity is exact
    for every arithmetic function; any violation reported here is a fault.
    """
    t = truncate(f, q_range)
    e = tds_to_fre(t)
    report = HighCoefficientReport(q_range)
    for q in range(q_range // 2 + 1, q_range + 1):
        expected = Fraction(t.fprime[q - 1], q)
        got = e.get(q)
        report.checked.append((q, got, expected))
        if got != expected:
            report.violations.append((q, got, expected))
    return report


@dataclass
class LowCoefficientReport:
    rows: list          # (q, coeff_at_cut, deep_partial, tail_bound, rel_diff)
    verdict: str        # "consistent" | "inconsistent" | "no-hint"


def low_coefficient_report(f, q_range: int, q0: int,
                           decay_hint=None) -> LowCoefficientReport:
    """Compare low truncation coefficients (q <= q0) against deeper partials.

    The two sides coincide identically at equal cuts, so the deeper partial
    uses the cut 4*Q.  With a decay hint |fprime(d)| <= C*d^-s the
    gap is bounded by the tail beyond Q; verdict "consistent" means every gap
    sits inside that bound.  Without a hint only raw rows are reported.
    """
    deep_cut = 4 * q_range
    low = truncate(f, q_range).fprime
    deep = np.array([float(v) for v in eratosthenes(f, deep_cut)])
    rows = []
    consistent = True
    for q in range(1, q0 + 1):
        # deep reference partial in float: the property is heuristic, only the
        # at-cut coefficient needs exactness
        partial = float(wintner_coefficient(deep, q, deep_cut)[0])
        at_cut = wintner_coefficient(low, q, q_range)[0]
        gap = abs(float(at_cut) - float(partial))
        # the gap between the Q-cut and deep-cut partials is a tail beyond Q
        bound = decay_tail_bound(decay_hint, q, q_range)
        rel = gap / abs(float(partial)) if partial != 0 else (0.0 if gap == 0 else float("inf"))
        rows.append((q, at_cut, partial, bound, rel))
        if bound is not None and gap > bound * (1 + 1e-9):
            consistent = False
    if decay_hint is None:
        verdict = "no-hint"
    else:
        verdict = "consistent" if consistent else "inconsistent"
    return LowCoefficientReport(rows, verdict)
