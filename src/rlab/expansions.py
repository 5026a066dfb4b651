"""Evaluation and reconstruction of Ramanujan expansions.

Covers partial sums of coefficient sequences against c_q(n), the two-parameter
zero-expansion family alpha/q + beta/phi(q), Wintner-Delange reconstruction,
Lucht's resummation identity, inversion of pure coefficients back to the
transform, the standard n-dependent finite expansion, and the K-divisor
coefficient formula.

A finite coefficient sequence is a `finite.FiniteExpansion` (a plain list of
fhat(1..Q) counts as one), and the exact paths run on its scaled numerators;
an unbounded one is a plain callable q -> fhat(q), which `evaluate_partial`
sums in float64 and the routines needing finite support refuse.
"""

from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, log
from operator import mul

import numpy as np

from .arith import ArithmeticFunction, divisors, factor, phi
from .finite import FiniteExpansion, fre_to_tds, tds_to_fre
from .rational import BuiltOnRead, canonical, scale_pairs, value_kind
from .ramanujan import csum
from .transforms import (eratosthenes, function_values, reduced_terms,
                         wintner_inverse, wintner_scaled_table, wintner_sums)
from . import kernels


def _finite(fhat) -> FiniteExpansion:
    """fhat as a FiniteExpansion; a list holds fhat(1..Q) with Q its length."""
    if isinstance(fhat, FiniteExpansion):
        return fhat
    if callable(fhat):
        raise ValueError("finite coefficient support required")
    return FiniteExpansion(len(fhat), fhat)


@dataclass(frozen=True)
class ZeroCloudElement:
    """Coefficients q -> alpha/q + beta/phi(q); expansions of the zero function.

    The element holds its float weights, read-only, built at the largest qmax
    asked for so far: each weight depends on q alone, so a smaller qmax reads
    a prefix view equal to a fresh build bit for bit."""
    alpha: Fraction
    beta: Fraction
    _weights: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "beta", Fraction(self.beta))

    def coefficient(self, q: int) -> Fraction:
        return self.alpha / q + Fraction(self.beta, phi(q))

    def float_weights(self, qmax: int) -> np.ndarray:
        """alpha/q + beta/phi(q) for q = 0..qmax as float64 (entry 0 set to 0)."""
        if self._weights is None or len(self._weights) <= qmax:
            q = np.arange(qmax + 1, dtype=np.float64)
            q[0] = 1.0
            ph = kernels.totient_sieve(qmax).astype(np.float64)
            ph[0] = 1.0
            w = float(self.alpha) / q + float(self.beta) / ph
            w[0] = 0.0
            object.__setattr__(self, "_weights", kernels.read_only(w))
        return self._weights[: qmax + 1]


def evaluate_partial(expansion, n: int, q_cut: int):
    """Partial sum over q <= q_cut of fhat(q) c_q(n).

    Exact (a Fraction) for a FiniteExpansion or list, whose coefficients
    vanish past Q; a ZeroCloudElement (its `float_weights`) or a callable
    goes through the vectorized float path.  No limit claim is attached to
    the value.
    """
    if n < 1:
        raise ValueError("n >= 1 required")
    if isinstance(expansion, ZeroCloudElement):
        weights = expansion.float_weights(q_cut)[1:]
    elif callable(expansion):
        weights = np.array([float(expansion(q)) for q in range(1, q_cut + 1)])
    else:
        e = _finite(expansion)
        nums, den = e.scaled
        row = kernels.csum_row(n, min(q_cut, e.range)).tolist()
        return Fraction(sum(map(mul, nums, row[1:])), den)
    row = kernels.csum_row(n, q_cut).astype(np.float64)
    return float(np.dot(row[1:], weights))


def zero_cloud_partial(alpha, beta, n: int, q_cut: int) -> float:
    """Partial sum of the zero-expansion with weights alpha/q + beta/phi(q)."""
    return evaluate_partial(ZeroCloudElement(alpha, beta), n, q_cut)


# ---------------------------------------------------------------------------
# Wintner-Delange reconstruction
# ---------------------------------------------------------------------------

@dataclass
class Reconstruction:
    value: Fraction
    reference: Fraction      # F(n) evaluated directly
    gap: Fraction            # value - reference

    @property
    def abs_gap(self) -> float:
        return abs(float(self.gap))


def wintner_delange_table(f, cut: int):
    """Scaled coefficient table (numerators, den) for reconstruction at cut.

    The table does not depend on the evaluation point; hoist it when
    reconstructing at many points.
    """
    return wintner_scaled_table(eratosthenes(f, cut), cut)


def wintner_delange_reconstruct(f, n: int, cut: int, table=None) -> Reconstruction:
    """sum_{l<=cut} (sum_{d<=cut, l|d} fprime(d)/d) c_l(n), exactly.

    The double sum is assembled over one shared denominator.  The sum over l
    groups the numerators by the value of c_l(n), which takes few values
    (mostly 0 and +-1): one stable argsort of the row puts each value's
    numerators in one contiguous run, and each run is one C-level sum of
    bignums times one small integer, so no numerator is multiplied on its
    own.  The report carries the gap against the direct evaluation F(n).
    """
    nums, den = table if table is not None else wintner_delange_table(f, cut)
    row = kernels.csum_row(n, cut)[1:]
    order = np.argsort(row, kind="stable")
    row = row[order]
    nums = np.array(nums, dtype=object)[order]
    starts = np.flatnonzero(np.diff(row, prepend=row[:1] - 1)).tolist()
    total = sum(int(row[a]) * nums[a:b].sum()
                for a, b in zip(starts, starts[1:] + [len(row)]) if row[a])
    value = Fraction(total, den)
    ref = Fraction(f(n))
    return Reconstruction(value, ref, value - ref)


# ---------------------------------------------------------------------------
# Lucht's resummation identity (exact at every finite cut)
# ---------------------------------------------------------------------------

def lucht_evaluate(fhat, a: int, cut: int):
    """(lhs, rhs): sum_{q<=cut} fhat(q) c_q(a)  versus
    sum_{d|a} d sum_{K<=cut/d} fhat(dK) mu[K].  Equal at every finite cut.

    Both sides run on the coefficients' scaled numerators; the right-hand
    side sums the numerators of their inverse (`transforms.wintner_inverse`)
    over the divisors of a."""
    nums, den = _finite(fhat).scaled
    nums = nums[:max(cut, 0)]   # fhat vanishes past Q, and so do both sides' terms
    lhs = sum(n * csum(q, a) for q, n in enumerate(nums, start=1) if n)
    fprime, _ = wintner_inverse(nums, den)
    rhs = sum(fprime[d - 1] for d in divisors(a) if d <= len(fprime))
    return Fraction(lhs, den), Fraction(rhs, den)


# ---------------------------------------------------------------------------
# inversion of pure finite-support coefficients
# ---------------------------------------------------------------------------

@dataclass
class PureInversion:
    fprime: list             # 1-based, length = support
    win_check: bool          # Wintner partials reproduce the coefficients


def invert_pure_coefficients(fhat) -> PureInversion:
    """fprime(d) = d sum_{K<=Q/d} mu(K) fhat(dK) for finite-support pure
    coefficients; verifies the Wintner partials recover fhat exactly.

    Unbounded supports are not handled here (the dual summability condition
    cannot be certified from finite data) and raise.
    """
    e = _finite(fhat)
    t = fre_to_tds(e)
    ok = tds_to_fre(t) == e
    return PureInversion(list(t.fprime), ok)


# ---------------------------------------------------------------------------
# standard finite expansion (coefficients depend on the evaluation point)
# ---------------------------------------------------------------------------

@dataclass
class StandardFiniteExpansion:
    """The expansion at the point n.  It holds `raw`, the pair (nums, den) of
    its coefficients fhat(l, n) = nums[l - 1] / den, l = 1..n, over the held
    Wintner terms' denominator.  The first read of `scaled` reduces it to the
    canonical pair (`rational.canonical`), and the first read of
    `coefficients` builds their list; equality compares n, the canonical
    pair and the reconstruction."""
    n: int
    coefficients: list = field(init=False, compare=False, default=BuiltOnRead())
    raw: tuple = field(repr=False, compare=False)
    scaled: tuple = field(init=False, repr=False,
                          default=cached_property(lambda s: canonical(*s.raw)))
    reconstruction: Fraction  # sum_l fhat(l, n) c_l(n); equals F(n) exactly


# the held state of `standard_finite_expansion`, `ArithmeticFunction.wintner_terms`
WintnerTerms = namedtuple("WintnerTerms", "bound terms den values values_den")
_NOTHING_HELD = WintnerTerms(0, (), 1, (), 1)


def _lifted(nums, k: int):
    """nums over a denominator k times larger: one multiply each."""
    return nums if k == 1 else [v * k for v in nums]


def _wintner_terms(f, bound: int, held: WintnerTerms = _NOTHING_HELD) -> WintnerTerms:
    """held grown to `bound`, equal to a build from nothing at `bound`.

    Only the new values F(d), held.bound < d <= bound, are scaled, and only
    their terms fprime(d) / d = t[d] / (values_den d) are reduced
    (`transforms.reduced_terms`); each held numerator reaches the new
    denominator by one multiply.  The Moebius transform reads every value
    numerator, since a new d has held divisors; they share the values' small
    denominator, so it is integer work, not bignum work.
    """
    vals = function_values(f, bound)
    if value_kind(vals) == "float":
        raise ValueError("standard finite expansion needs an exact function "
                         "(int or Fraction values)")
    new, vden = scale_pairs([(int(v.numerator), int(v.denominator))
                             for v in vals[held.bound:]], held.values_den)
    values = [*_lifted(held.values, vden // held.values_den), *new]
    t = kernels.mobius_transform_int(kernels.one_based(values)).tolist()[1:]
    terms, den = scale_pairs(reduced_terms(t, range(held.bound + 1, bound + 1), vden),
                             held.den)
    return WintnerTerms(bound, [*_lifted(held.terms, den // held.den), *terms], den,
                        values, vden)


def standard_finite_expansion(f, n: int) -> StandardFiniteExpansion:
    """Coefficients fhat(l, n) = sum_{d<=n, l|d} fprime(d)/d and their exact
    reconstruction at the point n; the price of a finite expansion for every
    exact arithmetic function is the n-dependence of the coefficients.

    Every point n reads the same terms fprime(d)/d, d <= n, so an
    ArithmeticFunction holds them (`wintner_terms`, over one shared
    denominator, beside the numerators of its values) and each call sums
    prefixes of them.  The first call builds them up to n only; a point past
    the held bound grows them to max(n, twice the held bound), for a table
    not past its end.  Growing scales only the new values and reduces only
    the new terms, so over any sequence of points each term is reduced once.
    No sequence of calls builds past twice its largest point: the shared
    denominator is near lcm(1..bound), so the held terms cost about bound^2
    digits.  A plain callable builds them on every call.  The path stays in
    integers: the result holds the prefix sums over the held denominator
    (`raw`), reduced to the canonical pair `scaled` only when that is read,
    so neither the pair nor the reconstruction, the one Fraction built,
    depends on how far the held terms reach, and the coefficients become
    Fractions only when they are read.  n < 1 and a function that is not
    exact raise ValueError, and n past an `after="error"` table raises
    IndexError, on every call.
    """
    if n < 1:
        raise ValueError(f"n >= 1 required, got {n}")
    if not isinstance(f, ArithmeticFunction):
        held = _wintner_terms(f, n)
    else:
        held = f.wintner_terms
        if held is None:
            held = f.wintner_terms = _wintner_terms(f, n)
        elif held.bound < n:   # double, but not past a table's end
            grown = 2 * held.bound
            if f.kind == "table":
                grown = min(grown, len(f.values))
            held = f.wintner_terms = _wintner_terms(f, max(n, grown), held)
    partials = wintner_sums(held.terms[:n])
    row = kernels.csum_row(n, n).tolist()
    total = sum(map(mul, partials, row[1:]))
    return StandardFiniteExpansion(n, (partials, held.den), Fraction(total, held.den))


# ---------------------------------------------------------------------------
# K-divisor coefficients
# ---------------------------------------------------------------------------

def _dk_bracket(p: int, l: int, k: int) -> int:
    """p^(k+l) - (p-1)^k sum_{lam<l} C(k+lam-1, k-1) p^(l-lam), the numerator
    of the local tail series over (p-1)^k."""
    head = sum(comb(k + lam - 1, k - 1) * p ** (l - lam) for lam in range(l))
    return p ** (k + l) - (p - 1) ** k * head


def dk_local_series(p: int, l: int, k: int) -> Fraction:
    """Exact closed form of sum_{lam>=l} C(k+lam-1, k-1) p^(l-lam), k >= 0.

    The full series from lam = 0 is (1-1/p)^-k; subtracting the first l terms
    and rescaling by p^l gives the tail.  Absolutely convergent (ratio 1/p).
    Over the common denominator (p-1)^k it is one integer fraction,
    [p^(k+l) - (p-1)^k sum_{lam<l} C(k+lam-1, k-1) p^(l-lam)] / (p-1)^k.
    """
    return Fraction(_dk_bracket(p, l, k), (p - 1) ** k)


@dataclass
class DivisorPowerCoefficient:
    """Structured d-hat_{K+1}(n): exact rational part times log(n)^K."""
    n: int
    k: int
    rational: Fraction
    log_power: int

    @property
    def value(self) -> float:
        if self.n == 1:
            return 0.0
        return float(self.rational) * log(self.n) ** self.log_power


def divisor_power_coefficient(n: int, k: int) -> DivisorPowerCoefficient:
    """Ramanujan coefficient of d_{K+1} at modulus n:
    ((-1)^K / K!) (log^K n / n) prod over p^l || n of
    ((1 - 1/p)^K * local tail series)^-1, with the series in closed form.

    The local factor (1 - 1/p)^K times the series is the integer fraction
    [p^(K+l) - (p-1)^K sum_{lam<l} C(K+lam-1, K-1) p^(l-lam)] / p^K, so the
    rational part is one integer fraction, reduced once."""
    if n < 1 or k < 1:
        raise ValueError("n >= 1 and k >= 1 required")
    num, den = (-1) ** k, factorial(k) * n
    for p, e in factor(n):
        num *= p ** k
        den *= _dk_bracket(p, e, k)
    return DivisorPowerCoefficient(n, k, Fraction(num, den), k)


def dk_expansion(k: int):
    """Coefficient sequence n -> d-hat_{K+1}(n) as a float-valued callable."""
    return lambda q: divisor_power_coefficient(q, k).value
