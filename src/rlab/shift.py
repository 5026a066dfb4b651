"""Shifted convolution sums and their expansions in the shift.

C(N, a) = sum_{n<=N} f(n) g(n+a) is an arithmetic function of the shift a.
Cutting g at N gives a correlation whose finite expansion in a obeys an
exact split identity: the Q-truncated coefficients against c_q(a) plus a
divisor tail over d | a, d > N.  The Carmichael coefficients of a cut
correlation factor exactly through the coefficients of g_N; the gap between
those and the truncated coefficients is the limit L(q), estimated here on
finite grids.

The shift coefficients of a cut are a `finite.FiniteExpansion` in a: the
finite expansion of the t.d.s. whose fprime is C'(N, .) cut at Q.  They, the
values of a rational correlation and its Moebius transform are
`rational.ExactList`s, so each goes over its denominator once: the split
identity at every shift is the expansion's value at a (one integer dot of its
cached numerators with the row c_q(a)).  Every Carmichael quantity here is
the one exact sum S_q(x) = sum_{n<=x} w(n) c_q(n) of
`transforms.carmichael_sums`, or its average S_q(x) / (phi(q) x) from
`transforms.carmichael_average`: w is f for the CC formula (at x = N), the
correlation for the average over shifts, and the divisor tail T(m) behind
L(q), which a Weak-Reef or short-average check scatters once for every q.
A short average reads sum_{a<=A} c_q(a) as T[1] of `ramanujan.csum_multiple_sums`.
"""

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .arith import ArithmeticFunction, divisors, phi
from .finite import FiniteExpansion, TruncatedDivisorSum, tds_to_fre, truncate
from .limits import LimitEstimate, check_grid
from .rational import ExactList, exact_sum, scale
from .ramanujan import csum, csum_multiple_sums
from .transforms import carmichael_average, carmichael_sums
from . import kernels

DEPTH_CAP = 10 ** 6     # deepest shift cache a correlation builds; nothing lifts it


@dataclass(eq=False)
class Correlation:
    """Cached values of C(N, a) with a lazily deepened Moebius transform;
    equal only to itself, so held state never decides equality."""
    f: ArithmeticFunction
    g: ArithmeticFunction
    length: int                      # N
    amax: int
    values: object                   # int64 array or ExactList of Fractions, index a-1

    @property
    def is_integer(self) -> bool:
        return isinstance(self.values, np.ndarray)

    def value(self, a: int):
        """C(N, a), deepening the shift cache to a first (`ensure_depth`)."""
        if a < 1:
            raise IndexError(f"correlation shifts start at a=1, asked for {a}")
        return self.ensure_depth(a).values.item(a - 1)

    def ensure_depth(self, amax: int):
        """Extend the shift cache; refuses past DEPTH_CAP rather than silently
        grinding through arbitrarily deep transforms."""
        if amax <= self.amax:
            return self
        if amax > DEPTH_CAP:
            raise ValueError(
                f"requested correlation depth {amax} exceeds cap {DEPTH_CAP}")
        deeper = correlate(self.f, self.g, self.length, amax)
        self.amax = amax
        self.values = deeper.values
        self.__dict__.pop("_transform", None)
        return self

    def transform(self, depth: int):
        """C'(N, d) = sum_{t|d} C(N, t) mu(d/t) for d = 1..amax once the cache
        reaches depth (1-based entry d at index d; index 0 unused): an integer
        array, or an ExactList of Fractions for a rational correlation.  Built
        once over the whole cached depth from the values' scaled numerators
        and kept until ensure_depth deepens it."""
        return self.ensure_depth(depth)._transform

    @cached_property
    def _transform(self):
        nums, den = scale(self.values)
        tr = kernels.mobius_transform_int(kernels.one_based(nums))
        return tr if self.is_integer else ExactList.over(tr.tolist(), den)


def correlate(f, g, length: int, amax: int) -> Correlation:
    """Exact C(N, a) for 1 <= a <= amax: the correlation kernel runs on the
    scaled numerators of f and g, and the values are an integer array when
    both denominators are 1, else Fractions over their product."""
    if length < 1 or amax < 1:
        raise ValueError("N >= 1 and amax >= 1 required")
    fv, fden = scale(f.eval_range(length))
    gv, gden = scale(g.eval_range(length + amax))
    vals = kernels.correlate_int(kernels.int_array(fv), kernels.int_array(gv), amax)
    if fden * gden != 1:
        vals = ExactList.over(vals.tolist(), fden * gden)
    return Correlation(f, g, length, amax, vals)


@dataclass(eq=False)
class CutCorrelation:
    """Correlation of f against the N-truncated g, plus the exact remainder."""
    base: Correlation                 # C_{f, g_N}
    g_truncated: TruncatedDivisorSum  # g_N
    remainder: list                   # C_{f,g}(N,a) - C_{f,g_N}(N,a), per a

    @property
    def length(self) -> int:
        return self.base.length

    @cached_property
    def ghat(self) -> list:
        """Finite Ramanujan coefficients of g_N (1-based, length N)."""
        return tds_to_fre(self.g_truncated).fhat

    @cached_property
    def coefficients(self) -> FiniteExpansion:
        """qrc(self, N), computed once: entries q <= N read C'(N, d) for
        d <= N only, which a deeper shift cache leaves unchanged."""
        return qrc(self, self.length)


def cut_correlation(f, g, length: int, amax: int) -> CutCorrelation:
    """Split C_{f,g} = C_{f,g_N} + remainder by truncating g at N.

    The remainder is returned exactly per shift; no asymptotic bound is
    claimed, only observed magnitudes.
    """
    g_n = truncate(g, length)
    base = correlate(f, ArithmeticFunction.from_tds(g_n), length, amax)
    full = correlate(f, g, length, amax)
    remainder = [a - b for a, b in zip(full.values.tolist(), base.values.tolist())]
    return CutCorrelation(base, g_n, remainder)


def qrc(cut: CutCorrelation, q_cut: int) -> FiniteExpansion:
    """Exact truncated shift coefficients sum_{d<=Q, q|d} C'(N,d)/d of the cut
    correlation: the finite expansion of the t.d.s. with fprime = C'(N, .) cut
    at Q, zero past Q."""
    return tds_to_fre(TruncatedDivisorSum(q_cut, cut.base.transform(q_cut)[1: q_cut + 1]))


def shift_expansion_check(cut: CutCorrelation, a: int):
    """(lhs, rhs, equal): the exact split identity at the shift a.

    lhs = C_{f,g_N}(N,a); rhs = sum_{q<=N} qrc(q) c_q(a) + sum_{d|a, d>N} C'(N,d).
    A finite Moebius-inversion identity: equal must hold for every exact input.
    The main sum is the value at a of the finite expansion qrc(cut, N).
    """
    main = cut.coefficients.eval(a)
    tail = divisor_tail(cut, a)
    lhs = Fraction(cut.base.value(a))
    rhs = main + tail
    return lhs, rhs, lhs == rhs


def divisor_tail(cut: CutCorrelation, a: int) -> Fraction:
    """sum_{d|a, d>N} C'(N, d), exact: a sum of at most tau(a) terms."""
    n = cut.length
    tr = cut.base.transform(max(a, n))
    return exact_sum(tr[d] for d in divisors(a) if d > n)


# ---------------------------------------------------------------------------
# Carmichael coefficients of a cut correlation
# ---------------------------------------------------------------------------

def cc_coefficients(cut: CutCorrelation, lmax: int | None = None) -> list:
    """Exact table l -> (ghat_N(l)/phi(l)) sum_{n<=N} f(n) c_l(n), 1-based.

    The sum is taken only where ghat_N(l) != 0, so never for l > N.  The
    formula always holds: a correlation here is sum_{n<=N} f(n) g_N(n+a) with
    f and g fixed arithmetic functions, so the shift a enters only through
    the argument of g_N = sum_{l<=N} ghat_N(l) c_l, and the finite sum over n
    exchanges with the Carmichael average over a.
    """
    n = cut.length
    if lmax is None:
        lmax = n
    if lmax < 1:
        raise ValueError(f"need lmax >= 1, got lmax={lmax}")
    ghat = cut.ghat
    ls = [l for l in range(1, min(lmax, n) + 1) if ghat[l - 1]]
    sums = dict(zip(ls, carmichael_sums(*scale(cut.base.f.eval_range(n)), ls, [n])))
    return [ghat[l - 1] * sums[l][0] / phi(l) if l in sums else Fraction(0)
            for l in range(1, lmax + 1)]


def carmichael_vs_cc(cut: CutCorrelation, l: int, xgrid,
                     tol: float = 1e-2) -> LimitEstimate:
    """Numerical Carmichael average over shifts against the exact CC value."""
    if l < 1:
        raise ValueError(f"need l >= 1, got l={l}")
    xs = check_grid(xgrid)
    target = cc_coefficients(cut, l)[l - 1]
    cut.base.ensure_depth(xs[-1])
    sums = carmichael_sums(*scale(cut.base.values), [l], xs)[0]
    return carmichael_average(sums, l, xs, tol, target=float(target))


# ---------------------------------------------------------------------------
# the correction limits L(q)
# ---------------------------------------------------------------------------

def _tail_sums(cut: CutCorrelation, qs, xs: list) -> list:
    """S_q(x) = sum_{m<=x} c_q(m) T(m) for each q in qs over the grid xs,
    where T(m) = sum_{d|m, d>N} C'(N,d).  T does not depend on q: it is
    scattered once, over the transform's shared denominator, for every q."""
    n, xmax = cut.length, xs[-1]
    nums, den = scale(cut.base.transform(xmax))
    nums = kernels.int_array(nums[n + 1: xmax + 1])
    w = np.zeros(xmax + 1, dtype=nums.dtype)
    w[n + 1:] = nums
    return carmichael_sums(kernels.divisor_scatter_int(w)[1:], den, qs, xs)


def l_estimate(cut: CutCorrelation, q: int, xgrid,
               tol: float = 1e-2) -> LimitEstimate:
    """Estimate L(q) = (1/phi(q)) lim (1/x) sum_{m<=x} c_q(m) T(m), where
    T(m) collects the transform values past N on divisors of m.  Exact
    per-x sums on the scaled tail; estimates vanish for q > N in the limit.
    """
    xs = check_grid(xgrid)
    return carmichael_average(_tail_sums(cut, [q], xs)[0], q, xs, tol)


def is_tail_free(cut: CutCorrelation, depth: int) -> bool:
    """True when C'(N, d) = 0 for N < d <= depth (an at-cut statement)."""
    tr = cut.base.transform(depth)
    return not np.any(tr[cut.length + 1: depth + 1])


# ---------------------------------------------------------------------------
# Reef and Weak Reef
# ---------------------------------------------------------------------------

@dataclass
class WeakReefReport:
    a: int
    lhs: Fraction
    rows: list              # (x, rhs, residual) per L-grid point
    tail: Fraction
    tail_free: bool         # no transform mass past N up to the checked depth
    exact_reef: bool        # residual identically zero with L = 0

    @property
    def residuals(self) -> list:
        return [abs(float(r[2])) for r in self.rows]


def weak_reef_check(cut: CutCorrelation, a: int, lgrid) -> WeakReefReport:
    """Evaluate C = sum_{q<=N} (cc(q) - L_x(q)) c_q(a) + divisor tail.

    L enters as its finite-x estimate, so the residual is a trend that should
    shrink as the grid deepens.  When the transform carries no mass past N the
    L-estimates vanish identically, the tail is computable exactly, and the
    identity degenerates to the exact explicit formula (residual = 0).
    """
    xs = check_grid(lgrid)
    n = cut.length
    cc = cc_coefficients(cut)
    lhs = Fraction(cut.base.value(a))
    tail = divisor_tail(cut, a)
    tail_free = is_tail_free(cut, xs[-1])
    qs = range(1, n + 1)
    c_row = [csum(q, a) for q in qs]
    fq = [phi(q) for q in qs]
    sums = _tail_sums(cut, qs, xs)
    rows = []
    for i, x in enumerate(xs):
        # L_x(q) = S_q(x) / (phi(q) x), read straight from the tail sums
        rhs = tail + sum((c - s[i] / (f * x)) * cq
                         for c, s, f, cq in zip(cc, sums, fq, c_row))
        rows.append((x, rhs, lhs - rhs))
    exact_reef = tail_free and all(r[2] == 0 for r in rows)
    return WeakReefReport(a, lhs, rows, tail, tail_free, exact_reef)


@dataclass
class ShortAverageReport:
    a_cut: int
    lhs: Fraction
    rhs: Fraction
    residual: Fraction
    rows: list              # (q, cc_q, L_q, sum_{a<=A} c_q(a))


def short_average(cut: CutCorrelation, a_cut: int, lgrid=None) -> ShortAverageReport:
    """sum_{a<=A} C(N,a) against sum_{q<=N} (cc(q) - L(q)) sum_{a<=A} c_q(a).

    Valid for 1 <= A <= N, where the divisor tail contributes nothing
    (divisors of a <= N cannot exceed N).  L(q) enters as its exact estimate
    at the last grid point, the only one read.  Exact agreement whenever the
    transform is tail-free; otherwise the residual reflects that finite-grid
    estimate.
    """
    n = cut.length
    if a_cut < 1:
        raise ValueError(f"short averages need A >= 1, got A={a_cut}")
    if a_cut > n:
        raise ValueError(f"short averages need A <= N, got A={a_cut}, N={n}")
    if lgrid is None:
        lgrid = [10 ** 3, 10 ** 4]
    x = check_grid(lgrid)[-1]
    cc = cc_coefficients(cut)
    base = cut.base.ensure_depth(a_cut)     # one deepening for every a <= A
    lhs = exact_sum(Fraction(base.value(a)) for a in range(1, a_cut + 1))
    rows = [(q, cc[q - 1], s / (phi(q) * x), int(csum_multiple_sums(q, 1, a_cut)[1]))
            for q, (s,) in enumerate(_tail_sums(cut, range(1, n + 1), [x]), start=1)]
    rhs = sum(((c - lq) * w for _, c, lq, w in rows), Fraction(0))
    return ShortAverageReport(a_cut, lhs, rhs, lhs - rhs, rows)
