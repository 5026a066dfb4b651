"""Ramanujan sums c_q(n): evaluation routes, tables and exact cross sums.

The canonical evaluation is the multiplicative closed form: c_q(n) is the
product over the prime powers p^e exactly dividing q of p^(e-1) (p - 1) when
p^e | n, -p^(e-1) when only p^(e-1) | n, and 0 otherwise.  c_q(n) depends
on n only through the class g = gcd(n, q), so `csum` reads the closed form
per class: a bounded cache holds, per modulus, the values c_q(g) for the
classes seen so far, and a call costs one gcd and two dict reads once its
class is known.  The one-period tables `csum_period` are built by class as
well, with tau(q) closed forms per table.  The divisor form
sum_{d|q, d|n} d mu(q/d) and the defining cosine sum exist as independent
cross-checking routes.  The cosine sum has one route, a row that takes one
correctly rounded sum per class gcd(n, q); a single value is its entry.
c_q(0) = phi(q) and c_q(-n) = c_q(n).

The cross sums sum_{a<=x} c_q(n+a) c_l(a) behind the orthogonality
averages answer a whole grid of x at once: the integrand has period
lcm(q, l) in a, so one period's products and their prefix sums give every x.
Each period table is read from its offset by `kernels.tiled`, one wrapped
`take`, which also tiles the cosine row here, the tables of
`kernels.periodic_sums` and the float Carmichael average of `transforms`.
The sums of c_q over the multiples of each d, T[d] = sum_{m<=x/d} c_q(dm),
are `csum_multiple_sums`, the one route to them: T[1] is the prefix sum
sum_{a<=x} c_q(a), and the t.d.s. lattice of `transforms` reads every T[d].
"""

from dataclasses import dataclass
from functools import lru_cache
from math import fsum, gcd, lcm, pi
from operator import index, truediv

import numpy as np

from .arith import divisors, factor, mu
from .limits import build_estimate, check_grid
from . import kernels


def _csum_closed(q: int, n: int) -> int:
    """c_q(n) by the closed form (q >= 1, any integer n)."""
    out = 1
    for p, e in factor(q):
        pk = p ** (e - 1)
        if n % (pk * p) == 0:   # every p^e divides 0, so c_q(0) = phi(q)
            out *= pk * (p - 1)
        elif n % pk == 0:
            out *= -pk
        else:
            return 0
    return out


# moduli whose class table `csum` keeps, like the `factor` and `csum_period`
# caches; the cache is emptied when it is full
_CSUM_MODULI = 4096
# q -> {g: c_q(g)} for the classes g = gcd(n, q) seen so far
_csum_classes = {}


def csum(q: int, n: int) -> int:
    """c_q(n), exact, for integers q >= 1 and any integer n (a float
    raises TypeError).

    c_q(n) depends on n only through g = gcd(n, q): p^e | n exactly when
    p^e | g for every prime power p^e dividing q, so the closed form at g
    equals the closed form at n, and n = 0 gives g = q, c_q(0) = phi(q).
    The value is read from the class table of q, which the closed form
    fills once per class."""
    try:
        return _csum_classes[q][gcd(n, q)]
    except KeyError:
        return _csum_class_miss(q, n)


def _csum_class_miss(q, n) -> int:
    q = index(q)   # a numpy integer modulus keys the cache as a Python int
    if q < 1:
        raise ValueError(f"modulus q >= 1 required, got {q}")
    classes = _csum_classes.get(q)
    if classes is None:
        if len(_csum_classes) >= _CSUM_MODULI:
            _csum_classes.clear()
        classes = _csum_classes[q] = {}
    g = gcd(n, q)
    out = classes[g] = _csum_closed(q, g)
    return out


def csum_divisor_form(q: int, n: int) -> int:
    """c_q(n) = sum_{d | gcd(q,n)} d * mu(q/d)."""
    if q < 1:
        raise ValueError(f"modulus q >= 1 required, got {q}")
    g = gcd(q, abs(n))
    if g == 0:
        g = q
    return sum(d * mu(q // d) for d in divisors(g))


def csum_trig_form(q: int, n: int) -> float:
    """The defining cosine sum over residues coprime to q, correctly rounded:
    the entry at r of `csum_trig_row(q, r)`, r = gcd(n, q) mod q.  The sum
    depends on n only through gcd(n, q), and r is the least residue with
    that gcd, so the row sums only the classes of 0..r."""
    if q < 1:
        raise ValueError(f"modulus q >= 1 required, got {q}")
    r = gcd(n, q) % q
    return float(csum_trig_row(q, r)[r])


# Veltkamp's constant 2**27 + 1 splits a float64 into two halves of at most
# 26 significant bits each, so a half times an integer below 2**26 is exact
_VELTKAMP = 134217729.0
_TRIG_QMAX = 1 << 26


def csum_trig_row(q: int, nmax: int) -> np.ndarray:
    """Cosine-sum values c_q(n) for n = 0..nmax.

    The sum has period q in n, so it evaluates one period r < q only, with
    the cosines cos(2 pi k / q), k < q, in a table.  Within a period it
    depends on r only through g = gcd(r, q): as j runs over the residues
    coprime to q, j r mod q runs over the residues of class g (gcd = g),
    each phi(q) / #class times.  So the sum for class g is its own cosines,
    each times that multiplicity, and both counts come from the gcd array.
    Each cosine is split exactly into two halves (Veltkamp), a half times a
    multiplicity below 2**26 is exact, and one `math.fsum` of the products
    per class g that occurs among r <= nmax gives period[r] = sum[gcd(r, q)];
    one wrapped read of the period (`kernels.tiled`) gives n = 0..nmax.
    fsum is correctly rounded, so each entry is the correctly rounded sum of
    its own defining cosines, whatever their order.  The multiplicity is at
    most phi(q) < q, so q past 2**26 is refused with ValueError.  The route
    uses no factorisation, no mu and no closed form.
    """
    if q < 1:
        raise ValueError(f"modulus q >= 1 required, got {q}")
    if q > _TRIG_QMAX:
        raise ValueError(f"the cosine row needs q <= 2**26, got {q}")
    r = np.arange(q, dtype=np.int64)
    g = np.gcd(r, q)   # gcd(0, q) = q
    order = np.argsort(g, kind="stable")
    count = np.bincount(g)      # class sizes; count[1] = phi(q)
    ends = np.cumsum(count)     # class c holds the entries ends[c - 1]:ends[c]
    cosines = np.cos(2.0 * pi * r / q)[order]
    split = cosines * _VELTKAMP
    high = split - (split - cosines)
    # both halves of each cosine times its class's multiplicity: exact
    hi, lo = (np.stack((high, cosines - high)) * (count[1] // count[g[order]])).tolist()
    sums = np.zeros(q + 1)
    for c in np.flatnonzero(np.bincount(g[: nmax + 1])).tolist():   # classes of r <= nmax
        a, b = ends[c - 1], ends[c]
        sums[c] = fsum(hi[a:b] + lo[a:b])
    return kernels.tiled(sums[g], 0, nmax + 1)


@lru_cache(maxsize=4096)
def csum_period(q: int) -> np.ndarray:
    """One-period table t[r] = c_q(r) for residues r = 0..q-1; its entry 0 is
    c_q(0) = phi(q), the largest |c_q(r)|.

    The table is built by class: c_q(r) = c_q(gcd(r, q)), so one `csum` per
    divisor g of q and one gather by gcd(r, q) fill it."""
    if q < 1:
        raise ValueError(f"modulus q >= 1 required, got {q}")
    vals = np.zeros(q + 1, dtype=np.int64)
    for g in divisors(q):
        vals[g] = csum(q, g)
    row = vals[np.gcd(np.arange(q, dtype=np.int64), q)]   # gcd(0, q) = q
    row.setflags(write=False)
    return row


@dataclass
class RamanujanSumTable:
    """Dense integer table values[q][n], 1 <= q <= qmax, 0 <= n <= nmax."""
    qmax: int
    nmax: int
    values: np.ndarray

    @classmethod
    def build(cls, qmax: int, nmax: int) -> "RamanujanSumTable":
        return cls(qmax, nmax, kernels.csum_block(qmax, nmax))

    def __getitem__(self, qn):
        q, n = qn
        if not 1 <= q <= self.qmax:
            raise ValueError(f"modulus q in 1..{self.qmax} required, got {q}")
        r = n % q   # c_q has period q, for any sign of n
        if r > self.nmax:
            raise IndexError(f"residue n mod q = {r} of n = {n} is past nmax = {self.nmax}")
        return int(self.values[q, r])


# ---------------------------------------------------------------------------
# exact periodic summation helpers
# ---------------------------------------------------------------------------

def cross_sum(q: int, l: int, n: int, xs) -> list:
    """Exact sums sum_{a<=x} c_q(n+a) c_l(a) for every x in the grid xs.

    The integrand has period P = lcm(q, l) in a, so each sum is
    (x // P) * (full-period sum) + (sum of the first x % P products).  The
    first m = min(P, max xs) products are formed once, each period table read
    from its own offset by `kernels.tiled`, and one cumulative sum of them
    gives the full-period sum (its last entry when m = P) and the
    prefix entry each x reads.  The prefix sums are bounded by
    m * max|c_q| * max|c_l|; when that bound reaches 2**63 they run on Python
    ints, like the integer kernels.  The bound is known in closed form,
    max|c_q| = c_q(0) = phi(q), so the guard reads it from entry 0 of each
    period table instead of scanning the tables, and takes the same path as
    `kernels._int64_fits(m, c_q, c_l)`.
    """
    cq, cl = csum_period(q), csum_period(l)   # rejects a modulus below 1
    xs = list(xs)
    if min(xs, default=0) < 0:
        raise ValueError("grid values x >= 0 required")
    p = lcm(q, l)
    m = min(p, max(xs, default=0))
    if m * int(cq[0]) * int(cl[0]) >= kernels.INT64_LIMIT:
        cq, cl = cq.astype(object), cl.astype(object)
    # prefix[i] is the sum of the first i + 1 products
    prefix = (kernels.tiled(cq, n + 1, m) * kernels.tiled(cl, 1, m)).cumsum()
    # the full-period sum whenever some x >= P; otherwise every x // P is 0
    block = int(prefix[-1]) if m else 0
    return [x // p * block + (int(prefix[x % p - 1]) if x % p else 0) for x in xs]


def csum_multiple_sums(q: int, dmax: int, x: int) -> np.ndarray:
    """T[d] = sum_{m <= x/d} c_q(d*m) for d = 1..dmax (entry 0 unused).

    By the divisor form c_q(dm) = sum_{e|q, e|dm} e mu(q/e), and e | dm
    exactly when e / gcd(e, d) divides m, so
    T[d] = sum_{e|q} e mu(q/e) floor(floor(x/d) / (e / gcd(e, d))):
    one array operation per divisor e with mu(q/e) != 0 covers every d at
    once.  |T[d]| <= sigma(q) x; when that bound reaches 2**63 the sums run
    on Python ints, like the integer kernels.
    """
    terms = [(e, e * m) for e in divisors(q) if (m := mu(q // e))]
    d = np.arange(1, dmax + 1, dtype=np.int64)
    if x * sum(e for e, _ in terms) < kernels.INT64_LIMIT:
        k, out = x // d, np.zeros(dmax + 1, dtype=np.int64)
    else:
        k = np.array([x // v for v in range(1, dmax + 1)], dtype=object)
        out = np.zeros(dmax + 1, dtype=object)
    for e, c in terms:
        out[1:] += c * (k // (e // np.gcd(e, d)))
    return out


# ---------------------------------------------------------------------------
# orthogonality of Ramanujan sums
# ---------------------------------------------------------------------------

def orthogonality_estimate(q: int, l: int, n: int, xgrid, tol: float = 1e-2):
    """Estimate lim (1/x) sum_{a<=x} c_q(n+a) c_l(a) against 1_{q=l} c_l(n).

    Per-x sums are exact integers; the verdict requires the last two grid
    estimates to agree within tol and the final one to sit within tol of the
    exact target.
    """
    if q < 1 or l < 1 or n < 1:
        raise ValueError("q, l, n >= 1 required")
    xs = check_grid(xgrid)
    if xs[0] < lcm(q, l):
        raise ValueError(f"grid values must be >= lcm(q,l) = {lcm(q, l)}")
    target = float(csum(l, n)) if q == l else 0.0
    estimates = list(map(truediv, cross_sum(q, l, n, xs), xs))
    return build_estimate(xs, estimates, tol, target=target)


def abs_csum_over_q_partial(n: int, cuts) -> list:
    """Partial sums S(X) = sum_{q<=X} |c_q(n)| / q at each cut (float).

    These partials grow without bound in X; the per-cut values feed the
    divergence-trend checks.
    """
    cuts = check_grid(cuts)
    xmax = cuts[-1]
    # one float64 buffer: q, then c_q(n) / q, then its absolute value (equal
    # bit for bit to |c_q(n)| / q, since rounding is symmetric in sign)
    weights = np.arange(1, xmax + 1, dtype=np.float64)
    np.divide(kernels.csum_row(n, xmax)[1:], weights, out=weights)
    np.abs(weights, out=weights)
    out = []
    prev = 0.0
    prev_cut = 0
    for c in cuts:
        prev += float(weights[prev_cut: c].sum())
        out.append(prev)
        prev_cut = c
    return out
