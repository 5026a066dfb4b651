"""Eratosthenes transform, Wintner coefficients and their inverse, Carmichael
coefficients, condition checks, and Conjecture 1 at finite depth.

Identity-grade computations stay exact: a rational sequence is put over one
denominator (`rational.scale`) and its integer numerators run through the
integer kernels, so the Wintner tables and the Carmichael sums divide by that
denominator once.  A t.d.s. holds the scaled form of its fprime once it is
first read (`finite`), and every one of these calls reads it;
the Wintner sums reduce each term fprime(d)/d as an integer pair instead of
building a Fraction.  Limit estimates destined for tolerance verdicts may
accumulate in float64 dot products.  Convergence is never asserted: every
verdict is "at-cut", tied to the evaluation grid that produced it.  Each sum
has one route: W_q(x) = sum_{d<=x, q|d} fprime(d)/d is `wintner_partials`,
and S_q(x) = sum_{n<=x} F(n) c_q(n) is `_csum_weighted_sums`.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul
import random

import numpy as np

from .arith import ArithmeticFunction, factor, phi
from .limits import LimitEstimate, build_estimate, check_grid
from .rational import (ExactList, canonical, freeze, head, ratio, scale, scale_pairs,
                       sum_pairs, value_kind)
from .ramanujan import csum_multiple_sums, csum_period
from . import kernels


# ---------------------------------------------------------------------------
# Eratosthenes transform
# ---------------------------------------------------------------------------

def function_values(f, n: int):
    """The values f(1..n) of an ArithmeticFunction or a callable as a
    `rational.freeze` shape: the one place either kind of function is read."""
    if isinstance(f, ArithmeticFunction):
        return f.eval_range(n)
    return freeze([f(k) for k in range(1, n + 1)])


def eratosthenes(f, bound: int):
    """The table fprime(d) = sum_{t|d} F(t) mu(d/t) on 1..bound of an
    ArithmeticFunction or a callable, as a `rational.freeze` shape in the kind
    of f's values: ints where integral, else Fractions, for exact f; floats
    never pass through Fraction.  A negative bound raises ValueError.

    A builtin or table function holds its transform as `f.transform`, grown
    to the largest bound asked for (`kernels.grown`), since no entry depends
    on the bound: a smaller bound reads a prefix (`rational.head`, shaped as
    a fresh table), and a larger one computes the table and replaces it."""
    if bound < 0:
        raise ValueError(f"transform bound >= 0 required, got {bound}")
    if not isinstance(f, ArithmeticFunction):
        return _eratosthenes(function_values(f, bound))
    if f.kind == "tds":
        # the transform of a divisor sum is its own fprime, zero past the range
        return head(freeze(f.tds.fprime), bound)
    if f.transform is None:
        f.transform = kernels.grown(head)(lambda n: _eratosthenes(f.eval_range(n)))
    return f.transform(bound)


def _eratosthenes(fv):
    """The Eratosthenes transform of the values fv, a `rational.freeze`
    shape."""
    if value_kind(fv) == "float":
        # the integer kernel runs on Python floats in an object array
        c = np.array([0.0, *fv.tolist()], dtype=object)
        return freeze(kernels.mobius_transform_int(c)[1:])
    nums, den = scale(fv)
    out = kernels.mobius_transform_int(kernels.one_based(nums))[1:]
    return freeze(out) if den == 1 else ExactList(ratio(v, den) for v in out.tolist())


def _fprime_values(fprime, cut: int):
    """The first cut values of an F' source (`rational.freeze`): a float64
    array, or a list of Python ints and Fractions.  An ExactList or a numpy
    array (a table of `eratosthenes`) is frozen as it stands, so an ExactList
    of length cut passes through untouched, keeping its scaled form."""
    if callable(fprime):
        vals = function_values(fprime, cut)
    else:
        vals = freeze(fprime if isinstance(fprime, (ExactList, np.ndarray))
                      else list(fprime)[:cut])
    if len(vals) < cut:
        raise IndexError(f"fprime source provides {len(vals)} values, cut is {cut}")
    vals = head(vals, cut)
    return vals.tolist() if value_kind(vals) == "int" else vals


# ---------------------------------------------------------------------------
# Wintner coefficients
# ---------------------------------------------------------------------------

def decay_tail_bound(decay_hint, q: int, cut: int) -> float | None:
    """Closed-form majorant of sum_{d>cut, q|d} |fprime(d)|/d under
    |fprime(d)| <= C d^-s: integral bound C q^-(s+1) (cut//q)^-s / s.  None
    without a hint or for q > cut; a hint with s <= 0 or C < 0 bounds
    nothing and raises ValueError."""
    if decay_hint is None:
        return None
    c, s = decay_hint
    if not (s > 0 and c >= 0):
        raise ValueError(f"decay hint C,s = {c},{s} bounds nothing: "
                         "s > 0 and C >= 0 required")
    m = cut // q
    if m < 1:
        return None
    return float(c) * q ** -(s + 1.0) * m ** (-float(s)) / float(s)


def reduced_terms(vals, ds, den: int = 1) -> list:
    """The terms fprime(d)/d, d in ds, as reduced integer pairs, where
    fprime(d) = vals[d - 1] / den for exact values (ints and reduced
    Fractions) and a common den, with no Fraction built.

    The one place a Wintner term fprime(d)/d is reduced: the Wintner sums of
    a t.d.s. pass its values over 1, and `expansions.standard_finite_expansion`
    passes the integer Moebius transform of a function's scaled values over
    their denominator.  A value n/m has gcd(n, m) = 1, so one gcd of n
    against den * d reduces n / (m den d)."""
    pairs = []
    for d in ds:
        v = vals[d - 1]
        n, m = v.numerator, den * d
        g = gcd(n, m)
        pairs.append((n // g, v.denominator * (m // g)))
    return pairs


def wintner_partials(fprime, q: int, xs) -> list:
    """W_q(x) = sum_{d<=x, q|d} fprime(d)/d at every x of the grid xs (0 below
    q), the one place a Wintner partial is summed: exact Fractions, one
    `sum_pairs` of `reduced_terms` per stretch between grid points, for exact
    fprime; float64 prefix sums over the multiples of q for float fprime."""
    return _wintner_partials(fprime, q, check_grid(xs))


def _wintner_partials(fprime, q: int, xs: list) -> list:
    """`wintner_partials` over a grid already checked by `check_grid`."""
    if q < 1:
        raise ValueError(f"modulus q >= 1 required, got {q}")
    vals = _fprime_values(fprime, xs[-1])
    if isinstance(vals, np.ndarray):
        cum = np.cumsum(vals[q - 1:: q] / np.arange(q, xs[-1] + 1, q, dtype=np.float64))
        return [float(cum[x // q - 1]) if x >= q else 0.0 for x in xs]
    stretches = (range(a // q * q + q, b + 1, q) for a, b in zip([0] + xs, xs))
    return list(accumulate(Fraction(*sum_pairs(reduced_terms(vals, ds))) for ds in stretches))


def wintner_coefficient(fprime, q: int, cut: int, decay_hint=None):
    """(partial, tail_bound): partial = `wintner_partials` at the one point
    cut, exact when fprime is exact; tail_bound requires a polynomial decay
    hint and is None otherwise (silent truncation would fabricate convergence)."""
    if q < 1 or cut < q:
        raise ValueError("need q >= 1 and cut >= q")
    return wintner_partials(fprime, q, [cut])[0], decay_tail_bound(decay_hint, q, cut)


def wintner_scaled_table(fprime, cut: int):
    """(numerators, den): exact partials sum_{d<=cut, q|d} fprime(d)/d for
    q = 1..cut as integer numerators over one shared denominator.

    Sharing a denominator keeps the bignum work linear instead of re-reducing
    per coefficient; callers doing further exact dot products can stay in
    integers until a single final reduction.  A float fprime raises
    ValueError.
    """
    vals = _fprime_values(fprime, cut)
    if isinstance(vals, np.ndarray):
        raise ValueError("Wintner table needs an exact function "
                         "(int or Fraction values)")
    terms, den = scale_pairs(reduced_terms(vals, range(1, cut + 1)))
    terms = list(terms)     # drops the tuple, which would keep each replaced term
    return wintner_sums(terms), den


def wintner_sums(terms: list) -> list:
    """The list terms of t_d, d = 1..n, turned in place into the Wintner sums
    fhat(q) = sum_{q|d<=n} t_d, q = 1..n, and returned: the one place these
    sums over multiples are taken.  In ascending q, fhat(q) reads t_q and the
    entries at its multiples above q, none of them replaced yet; a q past n/2
    has no multiple up to n but itself and keeps its term.  The caller hands
    over a list it owns."""
    for q in range(1, len(terms) // 2 + 1):
        terms[q - 1] = sum(terms[q - 1:: q])
    return terms


def wintner_inverse(nums, den: int) -> tuple:
    """(nums, den) of fprime(d) = d sum_{K<=cut/d} mu(K) fhat(dK) for
    d = 1..cut, from partials fhat(q) = nums[q - 1] / den with cut = len(nums):
    the inverse of `wintner_scaled_table`, and the one place it is computed.
    One Moebius transform over multiples of the numerators; den passes
    through, so the pair need not be canonical."""
    inner = kernels.mobius_multiples(kernels.one_based(nums)).tolist()
    return [d * inner[d] for d in range(1, len(inner))], den


# ---------------------------------------------------------------------------
# Carmichael coefficients (finite-x averages): every exact Carmichael check,
# here and in `shift`, reads the one exact sum
# S_q(x) = sum_{n<=x} w(n) c_q(n) (`carmichael_sums`) and the one estimate of
# its averages S_q(x) / (phi(q) x) (`carmichael_average`)
# ---------------------------------------------------------------------------

def carmichael_sums(w, den: int, qs, xs: list) -> list:
    """Exact S_q(x) = sum_{n<=x} w[n-1] c_q(n) / den: one list of Fractions
    over the grid xs for each modulus q in qs.  w holds integer numerators
    over the one denominator den (at least xs[-1] of them).

    `kernels.periodic_sums` folds w once per call into len(xs) rows of
    lcm(qs) residue classes.  Every q shares one call while those rows hold
    no more than xs[-1] entries, and each q takes its own call past that, so
    the moduli 1..10 (lcm 2520) over a grid to 10**6 read their weights once.
    """
    w = kernels.int_array(w)
    tabs = list(map(csum_period, qs))
    groups = [tabs] if len(xs) * lcm(*map(len, tabs)) <= xs[-1] else [[t] for t in tabs]
    return [[Fraction(s, den) for s in row]
            for group in groups for row in kernels.periodic_sums(w, group, xs)]


def carmichael_average(sums, q: int, xs: list, tol: float, target=None,
                       min_decades: float = 0.0) -> LimitEstimate:
    """The estimate of the exact averages S_q(x) / (phi(q) x) over the grid
    xs from the sums S_q(x), one per x; folded to float only in the report."""
    fq = phi(q)
    exact = [s / (fq * x) for s, x in zip(sums, xs)]
    return build_estimate(xs, [float(e) for e in exact], tol, target=target,
                          exact=exact, min_decades=min_decades)


def _csum_weighted_sums(f, qs, xs: list, values=None):
    """Exact S_q(x) = sum_{n<=x} f(n) c_q(n): one list of Fractions over the
    grid xs for each modulus q in qs.

    The values of f (`values` when the caller already holds
    f.eval_range(xs[-1])) go over one denominator once, and `carmichael_sums`
    runs their numerators through the kernel for every q.  A rational t.d.s.
    is summed on its divisor lattice instead: S(x) = sum_{d<=Q} fprime(d) T(d)
    with T(d) = sum_{m<=x/d} c_q(dm), and `csum_multiple_sums` gives T for
    every d <= Q in one array operation per divisor of q.  Only the Q values
    of fprime are scaled, never x values of f, and the t.d.s. holds them
    once read: they meet T in one C-level Python-int dot, and the
    shared denominator divides once.  None for float f.
    """
    if not (isinstance(f, ArithmeticFunction) and f.is_exact):
        return None   # float path handled by caller
    if f.kind == "tds" and f.tds.scaled[1] != 1:
        nums, den = f.tds.scaled
        return [[Fraction(sum(map(mul, nums, csum_multiple_sums(q, len(nums), x).tolist()[1:])),
                          den) for x in xs] for q in qs]
    return carmichael_sums(*scale(f.eval_range(xs[-1]) if values is None else values),
                           qs, xs)


def carmichael_estimate(f, q: int, xgrid, tol: float = 1e-3) -> LimitEstimate:
    """Per-x averages (1/(phi(q) x)) sum_{n<=x} f(n) c_q(n).

    Exact accumulation whenever f is exact (folded to float only in the
    report); one float64 dot product per grid point otherwise.  "Converged"
    additionally requires the grid to span at least two decades.
    """
    xs = check_grid(xgrid)
    sums = _csum_weighted_sums(f, [q], xs)
    if sums is not None:
        return carmichael_average(sums[0], q, xs, tol, min_decades=2.0)
    fq = phi(q)
    w = np.asarray(f.eval_range(xs[-1]), dtype=np.float64)
    c = kernels.tiled(csum_period(q).astype(np.float64), 1, xs[-1])
    ests = [float(np.dot(w[:x], c[:x])) / (fq * x) for x in xs]
    return build_estimate(xs, ests, tol, min_decades=2.0)


# ---------------------------------------------------------------------------
# condition checks (always at-cut)
# ---------------------------------------------------------------------------

_SERIES_CONDITIONS = ("WA", "DH", "DD7")

# trend thresholds: ratio of the last per-decade increment to the previous one
_SERIES_DECAY_OK = 0.55      # below: increments die off, series looks summable
_SERIES_DECAY_BAD = 0.75     # above: harmonic-or-worse growth
_RATIO_FLAT_OK = 0.95        # SD: per-decade ratio shrinking at least this much
_DI_GROWTH_BAD = 1.08        # DI: per-decade mean growing by more than this


@dataclass
class ConditionReport:
    condition: str
    cut: int
    partial: float
    trend: list                 # per-decade cuts and values
    verdict: str                # satisfied-at-cut | violated-at-cut | undetermined


def _decade_cuts(cut: int):
    """(full, all): powers of ten up to cut, then the cut itself.

    Trend verdicts only compare full decades; a trailing partial decade would
    bias the increment ratios.
    """
    full = []
    c = 10
    while c <= cut:
        full.append(c)
        c *= 10
    cuts = list(full)
    if not cuts or cuts[-1] != cut:
        cuts.append(cut)
    return full, cuts


def condition_check(kind: str, source, cut: int) -> ConditionReport:
    """At-cut checks of the summability/decay conditions.

    WA:  sum |fprime(d)|/d           (source: fprime)
    DH:  sum 2^omega(d) |fprime(d)|/d (source: fprime)
    DD7: sum 2^omega(q) |fhat(q)|     (source: fhat)
    SD:  (1/x) sum_{d<=x} |fprime(d)| -> 0   (source: fprime)
    DI:  (1/x) sum_{n<=x} |F(n)| bounded     (source: F itself)

    Partial sums per decade feed a trend verdict; the infinite statement is
    never asserted.
    """
    if kind not in ("WA", "DH", "DD7", "SD", "DI"):
        raise ValueError(f"unknown condition {kind!r}")
    full, cuts = _decade_cuts(cut)
    vals = _fprime_values(source, cut)
    absv = np.array([abs(float(v)) for v in vals])
    d = np.arange(1, cut + 1, dtype=np.float64)
    if kind == "WA":
        terms = absv / d
    elif kind == "DH":
        terms = absv * (2.0 ** kernels.omega_sieve(cut)[1:]) / d
    elif kind == "DD7":
        terms = absv * (2.0 ** kernels.omega_sieve(cut)[1:])
    else:
        terms = absv
    csums = np.cumsum(terms)
    if kind in _SERIES_CONDITIONS:
        partials = [float(csums[c - 1]) for c in cuts]
        trend = list(zip(cuts, partials))
        decade = [float(csums[c - 1]) for c in full]
        incs = decade[:1] + [b - a for a, b in zip(decade, decade[1:])]
        verdict = "undetermined"
        if len(incs) >= 2:
            prev, last = incs[-2], incs[-1]
            if last == 0 or (prev > 0 and last / prev < _SERIES_DECAY_OK):
                verdict = "satisfied-at-cut"
            elif prev > 0 and last / prev > _SERIES_DECAY_BAD:
                verdict = "violated-at-cut"
        return ConditionReport(kind, cut, partials[-1], trend, verdict)
    # SD / DI: per-decade means
    means = [float(csums[c - 1]) / c for c in cuts]
    trend = list(zip(cuts, means))
    decade = [float(csums[c - 1]) / c for c in full]
    verdict = "undetermined"
    if len(decade) >= 2:
        ratios = [b / a for a, b in zip(decade, decade[1:]) if a > 0]
        if kind == "SD":
            if means[-1] == 0 or (ratios and max(ratios) < _RATIO_FLAT_OK):
                verdict = "satisfied-at-cut"
            elif ratios and ratios[-1] >= 0.99:
                verdict = "violated-at-cut"
        else:  # DI
            if not ratios or max(ratios[-2:]) <= 1.02:
                verdict = "satisfied-at-cut"
            elif ratios[-1] >= _DI_GROWTH_BAD:
                verdict = "violated-at-cut"
    return ConditionReport(kind, cut, means[-1], trend, verdict)


# ---------------------------------------------------------------------------
# approximate Carmichael-Wintner formula
# ---------------------------------------------------------------------------

@dataclass
class CwRow:
    x: int
    lhs: float
    rhs: float
    normalizer: float
    ratio: float | None       # None when the normalizer vanishes (skipped)


@dataclass
class CwReport:
    q: int
    rows: list
    max_ratio: float


def cw_formula_check(f, q: int, xgrid) -> CwReport:
    """Ratio x * |LHS - RHS| / sum_{d<=x} |fprime(d)| per grid point.

    LHS is the Carmichael average (1/(phi(q) x)) sum f(n) c_q(n), RHS the
    Wintner partial at cut x.  The ratio should stay bounded by a q-dependent
    constant; this is a report, so float accumulation is fine.
    """
    if not (isinstance(f, ArithmeticFunction) and f.is_exact):
        raise ValueError("exact arithmetic function required")
    xs = check_grid(xgrid)
    # fprime does not depend on q: f holds it, so a call for another q at the
    # same or a smaller grid reads it without evaluating f for it
    fpv = kernels.read_only(np.array(eratosthenes(f, xs[-1]), dtype=np.float64))
    abs_cum = np.cumsum(np.abs(fpv))
    win = _wintner_partials(fpv, q, xs)
    sums = _csum_weighted_sums(f, [q], xs)[0]
    fq = phi(q)
    rows = []
    for x, s, rhs in zip(xs, sums, win):
        lhs = float(s) / (fq * x)
        normalizer = float(abs_cum[x - 1])
        ratio = x * abs(lhs - rhs) / normalizer if normalizer else None
        rows.append(CwRow(x, lhs, rhs, normalizer, ratio))
    return CwReport(q, rows, max([0.0] + [r.ratio for r in rows if r.ratio is not None]))


# ---------------------------------------------------------------------------
# nonnegative-function mean dominance (exact inequality per grid point)
# ---------------------------------------------------------------------------

@dataclass
class MeanDominanceReport:
    qmax: int
    rows: list                 # (q, x, |S_q|, phi(q)*S_1)
    ok: bool


def nonneg_carmichael_bound(f, xgrid, qmax: int = 10) -> MeanDominanceReport:
    """For F >= 0: |sum F(n) c_q(n)| / phi(q) <= sum F(n), exactly, per x.

    In particular a vanishing mean forces every Carmichael coefficient to
    vanish.  Negativity in F is a precondition error naming the offender.
    F is evaluated once, and its values serve every q <= qmax.
    """
    if not (isinstance(f, ArithmeticFunction) and f.is_exact):
        raise ValueError("exact arithmetic function required")
    xs = check_grid(xgrid)
    vals = f.eval_range(xs[-1])
    bad = np.nonzero(kernels.int_array(scale(vals)[0]) < 0)[0]
    if bad.size:
        raise ValueError(f"F({int(bad[0]) + 1}) < 0 violates nonnegativity")
    sums = _csum_weighted_sums(f, range(1, qmax + 1), xs, vals)
    rows = [(q, x, abs(s), phi(q) * s1)
            for q, row in enumerate(sums, start=1) for x, s, s1 in zip(xs, row, sums[0])]
    return MeanDominanceReport(qmax, rows, all(lhs <= rhs for _, _, lhs, rhs in rows))


# ---------------------------------------------------------------------------
# Conjecture 1 at finite depth: the vanishing-tail check through the inverse
# ---------------------------------------------------------------------------

@dataclass
class TailSearchReport:
    family: str
    q_cut: int
    depth: int
    trials: int                  # draws checked (unit vectors for free)
    nullspace_dim: int | None    # free family only: 0 once every unit vector inverts
    candidates: list             # free: unit vectors that did not invert back
    faults: list                 # other families: draws that did not invert back

    @property
    def verdict(self) -> str:
        if self.candidates or self.faults:
            return "counterexample-candidate-found"
        return "no-counterexample"


def _tail_inverts(fprime: list, q_cut: int) -> bool:
    """Whether the Wintner partials of fprime (`wintner_scaled_table` at
    depth len(fprime)), zeroed on 1..q_cut, invert back to fprime on
    (q_cut, depth]."""
    nums, den = wintner_scaled_table(fprime, len(fprime))
    back, den = wintner_inverse([0] * q_cut + nums[q_cut:], den)
    return canonical(back[q_cut:], den) == scale(fprime[q_cut:])


def vanishing_tail_search(family: str, q_cut: int, depth: int,
                          trials: int = 50, seed: int = 0) -> TailSearchReport:
    """Conjecture 1 at depth D = depth: an F' whose Wintner partials
    P(q) = sum_{d<=D, q|d} F'(d)/d vanish for q_cut < q <= D vanishes itself
    on (q_cut, D].

    At finite depth this is a theorem.  The partials are the fhat of the
    depth-D t.d.s., and `wintner_inverse` undoes them:
    F'(d)/d = sum_K mu(K) P(dK) reads only partials above q_cut when
    d > q_cut.  So each draw's partials, zeroed on 1..q_cut, must invert
    back to the draw on (q_cut, D]; a draw that does not is reported
    verbatim, never suppressed.  The check only proves the depth-D
    statement: no finite depth decides it for the full series.

    free: the D - q_cut unit vectors on (q_cut, D].  The map is linear, so
          when every one inverts back it has a left inverse on the tail and
          nullspace_dim is 0; a unit vector that fails is a candidate and
          leaves nullspace_dim None.
    completely-multiplicative / nonnegative: `trials` seeded draws; a draw
          that fails is a fault.
    """
    if family not in ("free", "completely-multiplicative", "nonnegative"):
        raise ValueError(f"unknown family {family!r}")
    if not depth > q_cut >= 1:
        raise ValueError("need depth > q_cut >= 1")
    if family == "free":
        units = [[int(d == j) for d in range(1, depth + 1)]
                 for j in range(q_cut + 1, depth + 1)]
        candidates = [u for u in units if not _tail_inverts(u, q_cut)]
        return TailSearchReport(family, q_cut, depth, len(units),
                                None if candidates else 0, candidates, [])
    rng = random.Random(seed)
    faults = []
    for _ in range(trials):
        if family == "completely-multiplicative":
            # F'(n) = F'(p) F'(n/p) with p the smallest prime factor of n
            fprime = [Fraction(1)]
            for n in range(2, depth + 1):
                p = factor(n).factors[0][0]
                fprime.append(Fraction(rng.randint(-9, 9), rng.randint(1, 8)) if p == n
                              else fprime[p - 1] * fprime[n // p - 1])
        else:
            fprime = [Fraction(rng.randint(0, 9) if rng.random() < 0.5 else 0,
                               rng.randint(1, 8)) for _ in range(depth)]
        if not _tail_inverts(fprime, q_cut):
            faults.append(fprime)
    return TailSearchReport(family, q_cut, depth, trials, None, [], faults)
