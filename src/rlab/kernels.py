"""Numeric kernels: sieves, Ramanujan-sum tables and the exact integer kernels.

Each kernel is one numpy function.  The five integer kernels (Moebius
transforms over divisors and over multiples, divisor scatter, periodic sums,
shifted correlation) first bound their result; while the bound stays below
2**63 they run in int64, and otherwise the same body runs on an object array
of Python ints, so no result ever wraps.  The shifted correlation has a third
tier below 2**53, where it runs as float64 dot products: there every product
and every partial sum is an integer below 2**53 in magnitude, which float64
holds exactly, so no order of summation can round.  The three transforms also
take object arrays as they stand.  `periodic_sums` takes every table and the
whole grid of one weight array in one call, so it bounds that array once.

The sieves and the three transforms apply one slice operation per prime
p <= isqrt(n), and every larger prime in one indexed update over the pairs
(k, k*p), k <= n // p (`_split_primes`).  The update gives the per-prime
loop's result bit for bit.  An m <= n has at most one prime factor above
sqrt(n), so the targets k*p are distinct; the transform over multiples writes
to the k instead, which repeat, and `np.subtract.at` visits them in the
loop's order (by k, then by p).  The sources are final once the small primes
are done: a k below sqrt(n) has only small prime factors, and the k*p that
the transform over multiples reads lie above sqrt(n), where only the small
primes write.  The pair arrays hold about 0.64 n entries each at n = 10**5
(n ln 2 in the limit).  Past n = 1024 they live only for the call, so a
transform's peak working set is a small multiple of its input array; up to
it, where building them takes about half a transform's time, the last 128
bounds keep theirs, read-only.

Each sieve holds one read-only table, built at the largest bound asked for
so far (`grown`, which also holds each function's Eratosthenes transform).
A smaller bound gets a read-only prefix view of it, and since no entry
depends on the bound, the view equals a fresh build bit for bit; a larger
bound rebuilds the table there and drops the old one.

A Ramanujan-sum row c_q(n), q <= qmax (`csum_row`), is Hoelder's formula
c_q(n) = mu(q/g) phi(q) / phi(q/g), g = gcd(q, n), while qmax <= 256: one
np.gcd pass and two gathers from the grown Moebius and totient tables,
whatever the divisors of n.  A longer row, and any n past int64, which
np.gcd cannot read, is the divisor scatter, whose cost grows with the
divisors of n rather than with qmax.

Exact rational sequences reach the integer kernels as scaled numerators
(`rational.scale`, then `int_array`, or `one_based` for a transform's 1-based
input): the values of a t.d.s. in finite, the Wintner terms in expansions,
the correlations, their Moebius transforms, Carmichael averages and L(q)
estimates in shift, and in transforms the Eratosthenes transform (the one
table behind `finite.truncate`, the cut of a correlation, the Wintner-Delange
table and the condition and Carmichael-Wintner checks), the Wintner inverse
(behind `fre_to_tds` and Lucht's identity) and the Carmichael sums.  Floats
reach a transform only in an object array of Python floats; a float array
raises TypeError rather than be truncated to int64.
"""

from collections import namedtuple
from functools import lru_cache, wraps
from math import inf, isqrt, lcm
from operator import index

import numpy as np

BACKEND = "numpy"

INT64_LIMIT = 1 << 63
FLOAT64_EXACT = 1 << 53     # float64 holds every integer of smaller magnitude


# ---------------------------------------------------------------------------
# sieves (plain numpy: slice arithmetic is already the fast path)
#
# Each sieve keeps one read-only table, built at the largest bound asked for
# so far (`grown`); callers needing a mutable copy must .copy().
# ---------------------------------------------------------------------------

GrowthInfo = namedtuple("GrowthInfo", "hits misses bound")


def read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def grown(prefix):
    """Serve build(n) from one table grown to the largest bound asked for.

    build(n) gives the table for the bound n, and its entries for k <= n do
    not depend on n.  The held bound gets the table and a smaller one
    prefix(table, n), for a read-only table a read-only view of it; a larger
    bound builds the table at n and replaces the old one, and a build that
    raises leaves the held table as it was.  cache_info() counts the hits
    and misses, as `lru_cache` does, and gives the held bound (-1 while
    nothing is held).
    """
    def decorate(build):
        held = (-1, None)   # (bound, table), replaced as one tuple
        hits = misses = 0

        @wraps(build)
        def read(n):
            nonlocal held, hits, misses
            if n < 0:
                raise ValueError(f"bound n >= 0 required, got {n}")
            bound, table = held
            if n <= bound:
                hits += 1
                return table if n == bound else prefix(table, n)
            misses += 1
            held = (n, build(n))
            return held[1]

        read.cache_info = lambda: GrowthInfo(hits, misses, held[0])
        return read
    return decorate


def _upto(table: np.ndarray, n: int) -> np.ndarray:
    return table[: n + 1]


def _primes_upto(primes: np.ndarray, n: int) -> np.ndarray:
    return primes[: int(np.searchsorted(primes, n, side="right"))]


@grown(_primes_upto)
def prime_sieve(n: int) -> np.ndarray:
    """Primes <= n as an int64 array."""
    if n < 2:
        return read_only(np.empty(0, dtype=np.int64))
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if is_p[p]:
            is_p[p * p:: p] = False
    return read_only(np.nonzero(is_p)[0].astype(np.int64))


# Up to _SPLIT_HELD_MAX, building the pairs takes about half a transform's
# time (13 of 25 us for `mobius_multiples` at n = 8 on a 2-vCPU Xeon VM), and
# the exact paths transform many short sequences of few distinct lengths; the
# memo holds at most _SPLIT_HELD_ENTRIES splits, about 1.3 MB at worst.
_SPLIT_HELD_MAX = 1024
_SPLIT_HELD_ENTRIES = 128


def _split_primes(n: int) -> tuple:
    """(small, k, p) for the primes up to n.  small lists the primes
    p <= isqrt(n) for a per-prime loop; k and p hold every pair (k, p) with
    p > isqrt(n) prime and k * p <= n, ordered by k and then by p, for one
    indexed update.  A bound up to _SPLIT_HELD_MAX is served from the memo
    `_held_split`, whose arrays are read-only."""
    return _held_split(n) if n <= _SPLIT_HELD_MAX else _build_split(n)


@lru_cache(maxsize=_SPLIT_HELD_ENTRIES)
def _held_split(n: int) -> tuple:
    small, k, p = _build_split(n)
    return small, read_only(k), read_only(p)


def _build_split(n: int) -> tuple:
    """`_split_primes` built afresh."""
    primes = prime_sieve(n)
    split = int(np.searchsorted(primes, isqrt(n), side="right"))
    large = primes[split:]
    small = tuple(primes[:split].tolist())
    if not large.size:
        none = np.empty(0, dtype=np.int64)
        return small, none, none
    ks = np.arange(1, n // int(large[0]) + 1, dtype=np.int64)
    counts = np.searchsorted(large, n // ks, side="right")
    starts = np.cumsum(counts) - counts
    k = np.repeat(ks, counts)
    p = large[np.arange(k.shape[0]) - np.repeat(starts, counts)]
    return small, k, p


@grown(_upto)
def mobius_sieve(n: int) -> np.ndarray:
    """mu(k) for k = 0..n (index 0 unused, set to 0)."""
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    small, k, p = _split_primes(n)
    for q in small:
        mu[q::q] *= -1
        mu[q * q::q * q] = 0
    mu[k * p] *= -1
    return read_only(mu)


@grown(_upto)
def totient_sieve(n: int) -> np.ndarray:
    """phi(k) for k = 0..n (index 0 unused, set to 0)."""
    phi = np.arange(n + 1, dtype=np.int64)
    small, k, p = _split_primes(n)
    for q in small:
        phi[q::q] -= phi[q::q] // q
    m = k * p
    phi[m] -= phi[m] // p
    phi[0] = 0
    return read_only(phi)


@grown(_upto)
def omega_sieve(n: int) -> np.ndarray:
    """Number of distinct prime factors of k, k = 0..n."""
    om = np.zeros(n + 1, dtype=np.int64)
    small, k, p = _split_primes(n)
    for q in small:
        om[q::q] += 1
    om[k * p] += 1
    return read_only(om)


@grown(_upto)
def liouville_sieve(n: int) -> np.ndarray:
    """Liouville lambda(k) = (-1)^Omega(k) for k = 0..n (index 0 set to 0)."""
    big_omega = np.zeros(n + 1, dtype=np.int64)
    small, k, p = _split_primes(n)
    for q in small:
        qk = q
        while qk <= n:
            big_omega[qk::qk] += 1
            qk *= q
    big_omega[k * p] += 1
    lam = np.where(big_omega & 1, -1, 1).astype(np.int64)
    lam[0] = 0
    return read_only(lam)


# ---------------------------------------------------------------------------
# Ramanujan sum rows and tables
# ---------------------------------------------------------------------------

# The rule of `csum_row`, measured on a 2-vCPU Xeon VM: Hoelder took 4 us at
# qmax 8, 5 us at 64 and 10 us at 256 whatever n; the scatter took 3 us at
# n = 1, 20 us at n = 96 and 126 us at n = 720720 (qmax 256).  Averaged over
# n <= 1024 the two cost about the same at qmax 256 (15 us against 16 us);
# past it Hoelder grows with qmax and the scatter wins for most n (at
# qmax 2500 about 60 us against 15 us).
_HOLDER_QMAX = 256


def csum_row(n: int, qmax: int) -> np.ndarray:
    """c_q(n) for q = 0..qmax as int64 (entry 0 unused, set to 0).

    For qmax <= _HOLDER_QMAX and |n| < 2**63 the row is Hoelder's formula
    c_q(n) = mu(q/g) phi(q) / phi(q/g) with g = gcd(q, n): one np.gcd pass
    over q = 1..qmax and gathers from the Moebius and totient sieves, a fixed
    number of numpy calls whatever the divisors of n (n = 0 gives g = q and
    c_q(0) = phi(q)).  Otherwise it is the divisor form
    c_q(n) = sum over d | gcd(q,n) of d*mu(q/d): for each divisor d of n up
    to qmax, d*mu(q/d) is scattered onto the multiples q of d (n = 0 means
    every d <= qmax divides n).  The rule follows the two costs: Hoelder's
    grows with qmax, the scatter's with min(|n|, qmax) and the divisors of n,
    and an n past int64 cannot go through np.gcd.
    """
    mu = mobius_sieve(qmax)
    out = np.zeros(qmax + 1, dtype=np.int64)
    n = abs(index(n))
    if qmax <= _HOLDER_QMAX and n < INT64_LIMIT:
        phi = totient_sieve(qmax)
        q = np.arange(1, qmax + 1)
        m = q // np.gcd(q, n)
        out[1:] = mu[m] * (phi[1:] // phi[m])
        return out
    if n == 0:
        divs = range(1, qmax + 1)
    else:
        divs = [d for d in range(1, min(n, qmax) + 1) if n % d == 0]
    for d in divs:
        k = qmax // d
        out[d:: d] += d * mu[1: k + 1]
    return out


def csum_block(qmax: int, nmax: int) -> np.ndarray:
    """Dense table t[q, n] = c_q(n) for 1 <= q <= qmax, 0 <= n <= nmax.

    Row 0 is unused.  Built by scattering d*mu(q/d) over q multiples of d and
    n multiples of d, one strided 2-D add per d (row q = kd gets d*mu(k));
    the n = 0 column picks up every d, giving c_q(0) = phi(q).
    """
    mu = mobius_sieve(qmax)
    t = np.zeros((qmax + 1, nmax + 1), dtype=np.int64)
    for d in range(1, qmax + 1):
        t[d::d, ::d] += (d * mu[1: qmax // d + 1])[:, None]
    return t


# ---------------------------------------------------------------------------
# int64 headroom: every integer kernel's partial sums are bounded by
# length * prod(max|a|) over its inputs.  Where max|a| is known in closed
# form, a caller reads it instead of scanning: a Ramanujan-sum period has
# max|c_q| = c_q(0) = phi(q), its entry 0 (`ramanujan.cross_sum`), and
# sum_{m<=x/d} c_q(dm) is at most sigma(q) x (`ramanujan.csum_multiple_sums`).
# Such a caller still takes the guard on every call; only its bound comes
# from the closed form.  `periodic_sums` takes two guards per call, whatever
# the number of tables and grid points: max|w| * xs[-1] on the weights, then
# m * max|fold| * max|tab| on its m-wide fold and tiled tables.
# `correlate_int` reads one bound, len(f) * max|f| * max|g|, and below
# FLOAT64_EXACT = 2**53 runs on float64 copies: each product and each partial
# sum is then an integer of magnitude at most the bound, exact in float64
# whatever order or fused multiply-add the BLAS dot uses.
# ---------------------------------------------------------------------------

def _amax(a: np.ndarray) -> int:
    """max |a| as a Python int (0 for an empty array)."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def int_array(values) -> np.ndarray:
    """Integers as an int64 array when every |v| < 2**63, else as an object
    array of Python ints.  Integer numpy arrays pass through as they stand."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return values
    vals = [int(v) for v in values]
    big = bool(vals) and max(max(vals), -min(vals)) >= INT64_LIMIT
    return np.array(vals, dtype=object if big else np.int64)


def one_based(nums) -> np.ndarray:
    """The 1-based input of the Dirichlet transforms: nums behind a zero
    slot 0, as `int_array((0, *nums))` gives it.  An int64 array whose
    entries all lie above -2**63 gets its slot 0 from one concatenate;
    anything else goes through `int_array`, which moves to Python ints at
    2**63."""
    if isinstance(nums, np.ndarray) and nums.dtype == np.int64 and \
            not (nums.size and nums.min() == -INT64_LIMIT):
        return np.concatenate((np.zeros(1, dtype=np.int64), nums))
    return int_array((0, *nums))


def _bound(length: int, *arrays: np.ndarray):
    """length * prod(max|a|) as a Python int, each array scanned once, or
    infinity when some array is an object array."""
    if any(a.dtype.kind not in "iuO" for a in arrays):
        raise TypeError(f"integer kernels refuse dtypes {[a.dtype.name for a in arrays]}")
    if any(a.dtype == object for a in arrays):
        return inf
    bound = length
    for a in arrays:
        bound *= _amax(a)
    return bound


def _int64_fits(length: int, *arrays: np.ndarray) -> bool:
    """True when no array is an object array and length * prod(max|a|) < 2**63."""
    return _bound(length, *arrays) < INT64_LIMIT


# ---------------------------------------------------------------------------
# periodic sums: sum_{n<=x} w(n) * tab[n mod len(tab)] for tables and a grid
# ---------------------------------------------------------------------------

# numpy's wrapped take reduces an index by subtracting the table length once
# per wrap, so a read that wraps k times costs k steps per entry.  Up to 32
# wraps that is no slower than a modulo pass over the indices (the two were
# about equal at 32 on a 2-vCPU Xeon VM); past that the indices are reduced
# first, and the take never wraps.
_TAKE_WRAPS = 32


def tiled(tab: np.ndarray, start: int, m: int) -> np.ndarray:
    """The period table tab read from offset start for m entries:
    tab[(start + i) mod len(tab)] for i = 0..m-1, by one wrapped take."""
    n = tab.shape[0]
    start %= n
    idx = np.arange(start, start + m)
    if m > _TAKE_WRAPS * n:
        idx %= n
    return tab.take(idx, mode="wrap")


def periodic_sums(w: np.ndarray, tabs, xs) -> list:
    """Exact sum_{n<=x} w[n-1] * tab[n mod len(tab)] for each table in tabs
    and each x in the increasing grid xs: one list of Python ints per table.

    w[:xs[-1]] is read once and folded into its residue classes mod m, the
    lcm of the table lengths, or kept as it stands (m = xs[-1]) when that lcm
    is larger.  The fold goes through rows of blk = m * max(1, 1024 // m)
    entries: each segment of whole rows between grid points is one row sum,
    a cumulative sum over the grid follows, and each point adds its partial
    row of fewer than blk entries to the first columns; since m divides blk,
    column j still holds class j mod m, and the blk columns fold into m.
    numpy sums a (rows, width) array one row at a time, so wide rows make
    that loop about 1024 / m times shorter than folding straight into m-wide
    rows.  With each table tiled to m entries (`tiled`), one integer matrix
    product gives every (table, x).  Python ints take over when
    max|w| * xs[-1] reaches 2**63 for the fold, or m * max|fold| * max|tab|
    for the product; every partial sum stays below its bound.
    """
    if not tabs:
        return []
    x = xs[-1]
    w = w[:x]
    w = w.astype(np.int64 if _int64_fits(x, w) else object, copy=False)
    m = min(lcm(*(t.shape[0] for t in tabs)), x) or 1
    blk = m * max(1, 1024 // m)
    body = w[: x - x % blk].reshape(-1, blk)
    cuts = [xi // blk for xi in xs]
    rows = np.empty((len(xs), blk), dtype=w.dtype)
    lo = 0
    for i, hi in enumerate(cuts):
        rows[i] = body[lo:hi].sum(axis=0)
        lo = hi
    rows = rows.cumsum(axis=0)
    for row, cut, xi in zip(rows, cuts, xs):
        tail = w[cut * blk: xi]
        row[: tail.shape[0]] += tail
    fold = rows.reshape(len(xs), -1, m).sum(axis=1)
    # w[i] is the term n = i + 1, so class i mod m meets tab[(i + 1) mod len(tab)]
    tab = np.array([tiled(t, 1, m) for t in tabs])
    dtype = np.int64 if _int64_fits(m, fold, tab) else object
    return (tab.astype(dtype, copy=False) @ fold.T.astype(dtype, copy=False)).tolist()


# ---------------------------------------------------------------------------
# shifted convolution C(N, a) = sum_{n<=N} f(n) g(n+a)
# ---------------------------------------------------------------------------

def correlate_int(f: np.ndarray, g: np.ndarray, amax: int) -> np.ndarray:
    """C(a) = sum_i f[i]*g[i+a] for a = 1..amax; f is g-aligned from index 0.

    g needs len(f) + amax entries.  One bound B = len(f) * max|f| * max|g|
    picks the tier.  Below 2**53 the correlation runs on float64 copies, as
    BLAS dot products, and is cast back to int64: every product and partial
    sum is an integer of magnitude at most B, so each is exact.  Below 2**63
    it runs in int64, and past that on Python ints.
    """
    n = f.shape[0]
    g = g[1: n + amax]
    bound = _bound(n, f, g)
    if bound >= INT64_LIMIT:
        return np.correlate(g.astype(object), f.astype(object), "valid")
    if bound < FLOAT64_EXACT:
        return np.correlate(g.astype(np.float64), f.astype(np.float64), "valid").astype(np.int64)
    return np.correlate(g, f, "valid")


# ---------------------------------------------------------------------------
# Dirichlet transforms of a sequence indexed 1..n (slot 0 copied unchanged):
# int64 arrays, or object arrays of Python ints or Fractions
# ---------------------------------------------------------------------------

def mobius_transform_int(c: np.ndarray) -> np.ndarray:
    """Eratosthenes transform out[d] = sum_{t|d} c[t] mu(d/t).

    One slice difference per prime p <= isqrt(n), and one indexed difference
    for all larger p, apply the Euler factors (1 - p^-s).  int64 input moves
    to Python ints when max|c| * len(c) reaches 2**63.
    """
    n = c.shape[0] - 1
    out = c.astype(np.int64 if _int64_fits(n + 1, c) else object)
    small, k, p = _split_primes(n)
    for q in small:
        # numpy buffers the overlapping right-hand slice, so it holds pre-q values
        out[q:: q] -= out[1: n // q + 1]
    out[k * p] -= out[k]
    return out


def mobius_multiples(c: np.ndarray) -> np.ndarray:
    """Moebius transform over multiples out[d] = sum_{dK<=n} mu(K) c[dK].

    The transpose of mobius_transform_int: one slice difference per prime
    p <= isqrt(n), and one `np.subtract.at` for all larger p, apply (1 - T_p),
    where T_p reads the value at d*p.  int64 input moves to Python ints when
    max|c| * len(c) reaches 2**63.
    """
    n = c.shape[0] - 1
    out = c.astype(np.int64 if _int64_fits(n + 1, c) else object)
    small, k, p = _split_primes(n)
    for q in small:
        # numpy buffers the overlapping right-hand slice, so it holds pre-q values
        out[1: n // q + 1] -= out[q:: q]
    np.subtract.at(out, k, out[k * p])
    return out


def divisor_scatter_int(w: np.ndarray) -> np.ndarray:
    """out[m] = sum_{d|m} w[d] (inverse of mobius_transform_int).

    Per prime p <= isqrt(n), a prefix sum along every chain m/p^k -> m
    applies the factor 1/(1 - p^-s).  It runs in p-adic blocks [lo, lo*p):
    each block adds sources below lo, which the earlier blocks have finished.
    A prime above isqrt(n) has the one block [p, n], and one indexed sum
    applies all of them.  int64 input moves to Python ints when
    max|w| * len(w) reaches 2**63.
    """
    n = w.shape[0] - 1
    out = w.astype(np.int64 if _int64_fits(n + 1, w) else object)
    small, k, p = _split_primes(n)
    for q in small:
        lo = q
        while lo <= n:
            hi = min(lo * q, n + 1)
            out[lo: hi: q] += out[lo // q: (hi - 1) // q + 1]
            lo *= q
    out[k * p] += out[k]
    return out
