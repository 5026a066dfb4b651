"""Kernels against brute force: the sieves, the Ramanujan-sum tables and the
exact integer kernels, the last as property tests over their definitions."""

import math
import random
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rlab import kernels


def mu_brute(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def factor_brute(n):
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    return out + [(n, 1)] if n > 1 else out


def test_prime_sieve():
    primes = kernels.prime_sieve(100)
    brute = [p for p in range(2, 101)
             if all(p % d for d in range(2, int(p ** 0.5) + 1))]
    assert list(primes) == brute


def test_mobius_sieve_brute():
    mu = kernels.mobius_sieve(500)
    for n in range(1, 501):
        assert mu[n] == mu_brute(n)


def test_totient_sieve_brute():
    ph = kernels.totient_sieve(300)
    for n in range(1, 301):
        assert ph[n] == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_liouville_and_omega_sieves():
    lam = kernels.liouville_sieve(300)
    om = kernels.omega_sieve(300)
    for n in range(1, 301):
        m, big, dist, d = n, 0, 0, 2
        while d * d <= m:
            if m % d == 0:
                dist += 1
                while m % d == 0:
                    m //= d
                    big += 1
            d += 1
        if m > 1:
            dist += 1
            big += 1
        assert lam[n] == (-1) ** big
        assert om[n] == dist


def test_sieves_brute_at_2000():
    # 2000 > 43**2: the primes 47..1999 reach every sieve as one indexed update
    n = 2000
    mu, ph = kernels.mobius_sieve(n), kernels.totient_sieve(n)
    om, lam = kernels.omega_sieve(n), kernels.liouville_sieve(n)
    for s in (mu, ph, om, lam):
        assert s.dtype == np.int64 and s.shape == (n + 1,)
    assert mu[0] == ph[0] == om[0] == lam[0] == 0
    for m in range(1, n + 1):
        fs = factor_brute(m)
        assert mu[m] == (0 if any(e > 1 for _, e in fs) else (-1) ** len(fs))
        assert ph[m] == math.prod(p ** (e - 1) * (p - 1) for p, e in fs)
        assert om[m] == len(fs)
        assert lam[m] == (-1) ** sum(e for _, e in fs)


SIEVES = (kernels.prime_sieve, kernels.mobius_sieve, kernels.totient_sieve,
          kernels.omega_sieve, kernels.liouville_sieve)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3000), min_size=1, max_size=12))
@example([2000, 5, 2999, 0, 1, 2999, 64, 3000, 47 * 47])
def test_grown_sieves_equal_fresh_builds(bounds):
    # growing and shrinking bounds interleaved: every answer is a read-only
    # view that equals a build at its own bound, of length n + 1 (prime_sieve:
    # the primes <= n)
    for n in bounds:
        for sieve in SIEVES:
            got = sieve(n)
            assert not got.flags.writeable
            assert np.array_equal(got, sieve.__wrapped__(n))
            if sieve is not kernels.prime_sieve:
                assert got.dtype == np.int64 and got.shape == (n + 1,)
        brute = [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        assert kernels.prime_sieve(n).tolist() == brute


def test_grown_sieve_counts_hits_and_refuses_negative_bounds():
    for sieve in SIEVES:
        sieve(100)
        before = sieve.cache_info()
        sieve(10)
        sieve(100)
        after = sieve.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (2, 0)
        with pytest.raises(ValueError, match="n >= 0"):
            sieve(-1)
        assert sieve.cache_info() == after


SPLIT_MAX = kernels._SPLIT_HELD_MAX


def _split_brute(n):
    """(small, k, p) of `kernels._split_primes` by its definition."""
    primes = [p for p in range(2, n + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    small = tuple(p for p in primes if p <= math.isqrt(n))
    pairs = [(k, p) for k in range(1, n + 1) for p in primes
             if p > math.isqrt(n) and k * p <= n]
    return small, [k for k, _ in pairs], [p for _, p in pairs]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2 * SPLIT_MAX), min_size=1, max_size=10))
@example([8, SPLIT_MAX, SPLIT_MAX + 1, 8, 2 * SPLIT_MAX, 0, 1, SPLIT_MAX, 97])
def test_held_split_equals_a_fresh_build(bounds):
    # bounds interleaved across the memo's limit: a held split is read-only,
    # and held or not, it equals a fresh build and the definition
    for n in bounds:
        small, k, p = kernels._split_primes(n)
        fresh = kernels._build_split(n)
        assert small == fresh[0] and isinstance(small, tuple)
        assert np.array_equal(k, fresh[1]) and np.array_equal(p, fresh[2])
        if n <= SPLIT_MAX:
            assert not k.flags.writeable and not p.flags.writeable
        if n <= 200:
            assert (small, k.tolist(), p.tolist()) == _split_brute(n)


def test_split_builds_each_small_bound_once(monkeypatch):
    builds = []

    def counted(n):
        builds.append(n)
        return build(n)
    build = kernels._build_split
    monkeypatch.setattr(kernels, "_build_split", counted)
    kernels._held_split.cache_clear()
    for n in (8, 64, 8, SPLIT_MAX, 64, SPLIT_MAX + 1, 8, SPLIT_MAX + 1):
        kernels.mobius_transform_int(np.arange(n + 1, dtype=np.int64))
    # a bound past the limit is not held: it builds on every call
    assert builds == [8, 64, SPLIT_MAX, SPLIT_MAX + 1, SPLIT_MAX + 1]
    assert kernels._held_split.cache_info().currsize == 3


HQ = kernels._HOLDER_QMAX


@settings(max_examples=80, deadline=None)
@given(n=st.one_of(st.integers(-10 ** 6, 10 ** 6),
                   st.sampled_from([0, 720720, -720720, 2 ** 63 - 1, -(2 ** 63 - 1),
                                    2 ** 63, -2 ** 63, 10 ** 30 + 6, -(10 ** 30 + 6)])),
       qmax=st.one_of(st.integers(0, 2 * HQ),
                      st.sampled_from([0, 1, HQ - 1, HQ, HQ + 1, 8 * HQ])))
@example(n=1, qmax=200)
@example(n=6, qmax=200)
@example(n=12, qmax=200)
@example(n=30, qmax=200)
@example(n=0, qmax=50)
@example(n=0, qmax=HQ + 1)
@example(n=10 ** 30 + 6, qmax=HQ)
def test_csum_row_against_closed_form(n, qmax):
    """Every row, on whichever side of the rule it falls, and with the other
    path forced on it (Hoelder only below 2**63, which np.gcd reads), is
    int64 with entry 0 = 0 and c_q(n) at every q."""
    from unittest import mock
    from rlab.ramanujan import csum
    want = [0] + [csum(q, n) for q in range(1, qmax + 1)]
    rows = [kernels.csum_row(n, qmax)]
    for rule in [-1] + ([10 ** 9] if abs(n) < kernels.INT64_LIMIT else []):
        with mock.patch.object(kernels, "_HOLDER_QMAX", rule):
            rows.append(kernels.csum_row(n, qmax))
    for row in rows:
        assert row.dtype == np.int64 and row.tolist() == want


def parent_csum_block(qmax, nmax):
    """The per-multiple loop csum_block replaced, kept as the reference: one
    strided row add t[q, ::d] per multiple q of d with mu(q/d) != 0."""
    mu = kernels.mobius_sieve(qmax)
    t = np.zeros((qmax + 1, nmax + 1), dtype=np.int64)
    for d in range(1, qmax + 1):
        contrib = d * mu[1: qmax // d + 1]
        for i, q in enumerate(range(d, qmax + 1, d)):
            if contrib[i]:
                t[q, ::d] += contrib[i]
    return t


@pytest.mark.parametrize("qmax, nmax", [(1, 0), (1, 5), (7, 0), (12, 3), (40, 100),
                                        (100, 7), (512, 512)])
def test_csum_block_equals_the_per_multiple_loop(qmax, nmax):
    # (512, 512) is c01's table
    got = kernels.csum_block(qmax, nmax)
    assert got.dtype == np.int64 and np.array_equal(got, parent_csum_block(qmax, nmax))


def test_csum_block_periodicity_and_phi_column():
    tab = kernels.csum_block(40, 100)
    ph = kernels.totient_sieve(40)
    for q in range(1, 41):
        assert tab[q, 0] == ph[q]
        for n in range(q, 101):
            assert tab[q, n] == tab[q, n % q]


# ---------------------------------------------------------------------------
# integer kernels against their definitions, on int64 input, on magnitudes
# near 2**62 (where the int64 headroom guard moves to Python ints) and, for
# the two transforms, on Fraction object arrays
# ---------------------------------------------------------------------------

NEAR_2_62 = st.one_of(st.integers(2 ** 62 - 1024, 2 ** 62),
                      st.integers(-(2 ** 62), -(2 ** 62) + 1024))
VALUES = {
    "int64": st.integers(-10 ** 6, 10 ** 6),
    "near 2**62": NEAR_2_62,
    "fraction": st.fractions(min_value=-50, max_value=50, max_denominator=12),
}
INT_KINDS = ["int64", "near 2**62"]
KERNEL_SETTINGS = settings(max_examples=60, deadline=None)

# sizes around each prime square p**2, where the transforms hand over from the
# per-prime loop to the one indexed update of the primes above isqrt(n)
SPLIT_SIZES = sorted({1, 2, 3, 4} | {p * p + e for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                                     for e in (-1, 0, 1)})


def _lists(kind):
    """Up to 60 values of a kind, or exactly a split size's worth of them."""
    split = st.sampled_from([n for n in SPLIT_SIZES if n <= 60])
    return st.one_of(st.lists(VALUES[kind], max_size=60),
                     split.flatmap(lambda n: st.lists(VALUES[kind], min_size=n, max_size=n)))


def _seq(kind, vals):
    """1-based kernel input: slot 0 holds a zero of the element type."""
    if kind == "fraction":
        return np.array([Fraction(0)] + vals, dtype=object)
    return np.array([0] + vals, dtype=np.int64)


def _py(v):
    return v if isinstance(v, Fraction) else int(v)


@pytest.mark.parametrize("kind", list(VALUES))
@KERNEL_SETTINGS
@given(data=st.data())
def test_mobius_transform_matches_definition(kind, data):
    vals = data.draw(_lists(kind))
    out = kernels.mobius_transform_int(_seq(kind, vals))
    for d in range(1, len(vals) + 1):
        want = sum(vals[t - 1] * mu_brute(d // t) for t in range(1, d + 1) if d % t == 0)
        assert _py(out[d]) == want
    if kind == "int64":
        assert out.dtype == np.int64


@pytest.mark.parametrize("kind", list(VALUES))
@KERNEL_SETTINGS
@given(data=st.data())
def test_divisor_scatter_matches_definition_and_inverts(kind, data):
    vals = data.draw(_lists(kind))
    c = _seq(kind, vals)
    out = kernels.divisor_scatter_int(c)
    for m in range(1, len(vals) + 1):
        assert _py(out[m]) == sum(vals[d - 1] for d in range(1, m + 1) if m % d == 0)
    back = kernels.mobius_transform_int(out)
    assert [_py(v) for v in back[1:]] == vals
    if kind == "int64":
        assert out.dtype == np.int64


@pytest.mark.parametrize("kind", list(VALUES))
@KERNEL_SETTINGS
@given(data=st.data())
def test_mobius_multiples_matches_definition(kind, data):
    vals = data.draw(_lists(kind))
    n = len(vals)
    out = kernels.mobius_multiples(_seq(kind, vals))
    for d in range(1, n + 1):
        want = sum(vals[d * k - 1] * mu_brute(k) for k in range(1, n // d + 1))
        assert _py(out[d]) == want
    if kind == "int64":
        assert out.dtype == np.int64


@KERNEL_SETTINGS
@given(vals=st.lists(st.one_of(st.integers(-10 ** 6, 10 ** 6), NEAR_2_62,
                               st.integers(2 ** 63, 2 ** 70)), max_size=20))
def test_int_array_is_int64_exactly_below_2_63(vals):
    arr = kernels.int_array(vals)
    assert [int(v) for v in arr] == vals
    assert (arr.dtype == np.int64) == all(abs(v) < 2 ** 63 for v in vals)


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.tolist() == want.tolist()


INT64_VALUES = st.one_of(st.integers(-10 ** 6, 10 ** 6), NEAR_2_62,
                         st.integers(-(2 ** 63), 2 ** 63 - 1))


@KERNEL_SETTINGS
@given(vals=st.lists(INT64_VALUES, max_size=20))
@example(vals=[-(2 ** 63), 5])   # int_array moves -2**63 to Python ints
def test_one_based_equals_int_array_on_int64_arrays(vals):
    nums = np.array(vals, dtype=np.int64)
    assert_same_array(kernels.one_based(nums), kernels.int_array((0, *nums)))


@KERNEL_SETTINGS
@given(vals=st.lists(st.one_of(INT64_VALUES, st.integers(2 ** 63, 2 ** 70),
                               st.integers(-(2 ** 70), -(2 ** 63))), max_size=20))
def test_one_based_equals_int_array_on_python_ints(vals):
    want = kernels.int_array((0, *vals))
    assert_same_array(kernels.one_based(tuple(vals)), want)
    assert_same_array(kernels.one_based(vals), want)
    assert_same_array(kernels.one_based(np.array(vals, dtype=object)), want)


def test_one_based_empty_and_past_2_63():
    for empty in ((), [], np.empty(0, dtype=np.int64)):
        got = kernels.one_based(empty)
        assert_same_array(got, kernels.int_array((0, *empty)))
        assert got.tolist() == [0] and got.dtype == np.int64
    big = (2 ** 63, -3)
    got = kernels.one_based(big)
    assert_same_array(got, kernels.int_array((0, *big)))
    assert got.dtype == object and got.tolist() == [0, 2 ** 63, -3]


# products near 2**52, so len(f) * max|f| * max|g| falls on either side of the
# 2**53 bound below which `correlate_int` runs on float64
NEAR_2_26 = st.one_of(st.integers(2 ** 26 - 1024, 2 ** 26),
                      st.integers(-(2 ** 26), -(2 ** 26) + 1024))
CORRELATE_VALUES = {"int64": VALUES["int64"], "near 2**62": NEAR_2_62,
                    "near 2**26": NEAR_2_26}


def _correlation_case(values, nmax=30):
    """(f, g, amax) with 1 <= len(f) <= nmax, 1 <= amax <= 30 and
    len(g) == len(f) + amax."""
    sizes = st.tuples(st.integers(1, nmax), st.integers(1, 30))
    return sizes.flatmap(lambda s: st.tuples(
        st.lists(values, min_size=s[0], max_size=s[0]),
        st.lists(values, min_size=s[0] + s[1], max_size=s[0] + s[1]),
        st.just(s[1])))


def _assert_correlation(f, g, amax):
    """correlate_int equals the double sum in Python ints, and is int64
    wherever its bound stays below 2**63."""
    n = len(f)
    out = kernels.correlate_int(np.array(f, dtype=np.int64), np.array(g, dtype=np.int64), amax)
    assert len(out) == amax
    for a in range(1, amax + 1):
        assert _py(out[a - 1]) == sum(f[i] * g[i + a] for i in range(n))
    if n * max(map(abs, f)) * max(map(abs, g[1:])) < 2 ** 63:
        assert out.dtype == np.int64


@pytest.mark.parametrize("kind", list(CORRELATE_VALUES))
@KERNEL_SETTINGS
@given(data=st.data())
def test_correlate_matches_double_sum(kind, data):
    _assert_correlation(*data.draw(_correlation_case(CORRELATE_VALUES[kind])))


@KERNEL_SETTINGS
@given(case=_correlation_case(NEAR_2_26, nmax=3))
# bound 2**53 + 1, one past the float64 tier: float64 would round C(1) = 2**53 + 1
@example(case=([3], [0, (2 ** 53 + 1) // 3], 1))
# bound 2 * (2**26 + 1) * (2**26 + 2) just past 2**53, and each product is exact
# in float64, but their sum C(1) = 2**53 + 5 * 2**26 + 3 is odd and would round
@example(case=([2 ** 26 + 1] * 2, [0, 2 ** 26 + 1, 2 ** 26 + 2], 1))
def test_correlate_is_exact_at_the_float64_guard(case):
    _assert_correlation(*case)


def _direct_sums(w, tab, xs):
    """sum_{n<=x} w[n-1] * tab[n mod len(tab)] for each x in xs, term by term."""
    q = len(tab)
    partial = [0, *accumulate(w[n - 1] * tab[n % q] for n in range(1, xs[-1] + 1))]
    return [partial[x] for x in xs]


@pytest.mark.parametrize("kind", INT_KINDS)
@KERNEL_SETTINGS
@given(data=st.data())
def test_periodic_sums_match_direct_sum(kind, data):
    # lcm of up to four lengths <= 12 often passes len(w): the unfolded case
    tabs = data.draw(st.lists(st.lists(VALUES[kind], min_size=1, max_size=12),
                              min_size=1, max_size=4))
    w = data.draw(st.lists(VALUES[kind], max_size=80))
    xs = sorted(data.draw(st.sets(st.integers(0, len(w)), min_size=1, max_size=4)))
    got = kernels.periodic_sums(np.array(w, dtype=np.int64),
                                [np.array(t, dtype=np.int64) for t in tabs], xs)
    assert got == [_direct_sums(w, t, xs) for t in tabs]


def _weights(kind, rng, n):
    if kind == "int64":
        return [rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
    return [rng.choice((-1, 1)) * rng.randint(2 ** 62 - 1024, 2 ** 62) for _ in range(n)]


@pytest.mark.parametrize("kind", INT_KINDS)
@settings(max_examples=30, deadline=None)
@given(qs=st.lists(st.integers(1, 1100), min_size=1, max_size=3),
       xs=st.sets(st.integers(0, 4000), min_size=1, max_size=4), seed=st.integers(0, 2 ** 32))
@example(qs=[3], xs={100}, seed=0)                  # x below one row of blk = 1023
@example(qs=[3], xs={1023, 2046}, seed=1)           # x on exact multiples of blk
@example(qs=[1024], xs={1000, 3072}, seed=2)        # blk == m == 1024
@example(qs=[1100], xs={3300}, seed=3)              # blk == m past 1024, a multiple
@example(qs=[1100], xs={5, 1099}, seed=4)           # m >= xs[-1]: w as it stands
@example(qs=[4, 6, 10], xs={1019, 1020, 1021, 2040}, seed=5)  # m = 60, blk = 1020
@example(qs=[7, 11, 13], xs={1000, 4000}, seed=6)   # m = 1001 < 4000 < 2 * 1024
def test_periodic_sums_wide_rows(kind, qs, xs, seed):
    """The fold through rows of blk = m * max(1, 1024 // m) columns, with m
    the lcm of the table lengths, at lengths of a few thousand and grid points
    on and off the row boundaries; "near 2**62" runs on Python ints."""
    rng = random.Random(seed)
    xs = sorted(xs)
    w = _weights(kind, rng, xs[-1] + rng.randint(0, 3))
    tabs = [_weights(kind, rng, q) for q in qs]
    got = kernels.periodic_sums(np.array(w, dtype=np.int64),
                                [np.array(t, dtype=np.int64) for t in tabs], xs)
    assert got == [_direct_sums(w, t, xs) for t in tabs]


def test_periodic_sums_without_tables():
    assert kernels.periodic_sums(np.arange(5), [], [3, 5]) == []


def test_transform_scatter_roundtrip():
    rng = random.Random(3)
    c = np.zeros(301, dtype=np.int64)
    for d in range(1, 301):
        c[d] = rng.randint(-9, 9)
    summed = kernels.divisor_scatter_int(c)
    back = kernels.mobius_transform_int(summed)
    assert np.array_equal(back, c)


# ---------------------------------------------------------------------------
# the sqrt(n) split: brute-force definitions at every size in SPLIT_SIZES, and
# the per-prime loop each kernel ran before the split as the bit-exact
# reference for Python floats (the order of every update is kept)
# ---------------------------------------------------------------------------

def _divisor_lists(n):
    divs = [[] for _ in range(n + 1)]
    for d in range(1, n + 1):
        for m in range(d, n + 1, d):
            divs[m].append(d)
    return divs


NMAX = max(SPLIT_SIZES)
MU = [0] + [mu_brute(k) for k in range(1, NMAX + 1)]
DIVS = _divisor_lists(NMAX)

DEFINITIONS = {
    "mobius_transform_int": lambda v, d: sum(v[t - 1] * MU[d // t] for t in DIVS[d]),
    "divisor_scatter_int": lambda v, m: sum(v[t - 1] for t in DIVS[m]),
    "mobius_multiples": lambda v, d: sum(v[d * k - 1] * MU[k] for k in range(1, len(v) // d + 1)),
}


def _per_prime_loop(name, c):
    n = c.shape[0] - 1
    out = c.copy()
    for p in kernels.prime_sieve(n).tolist():
        if name == "mobius_transform_int":
            out[p:: p] -= out[1: n // p + 1]
        elif name == "mobius_multiples":
            out[1: n // p + 1] -= out[p:: p]
        else:
            lo = p
            while lo <= n:
                hi = min(lo * p, n + 1)
                out[lo: hi: p] += out[lo // p: (hi - 1) // p + 1]
                lo *= p
    return out


def _split_input(kind, n):
    rng = random.Random(n)
    if kind == "int64":
        vals = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
    elif kind == "near 2**62":
        vals = [rng.choice((1, -1)) * (2 ** 62 - rng.randint(0, 1024)) for _ in range(n)]
    else:
        vals = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(n)]
    return vals, _seq(kind, vals)


@pytest.mark.parametrize("name", list(DEFINITIONS))
@pytest.mark.parametrize("kind", list(VALUES))
def test_transforms_match_definitions_at_split_sizes(name, kind):
    kernel = getattr(kernels, name)
    for n in SPLIT_SIZES:
        vals, c = _split_input(kind, n)
        out = kernel(c)
        assert [_py(v) for v in out[1:]] == [DEFINITIONS[name](vals, d) for d in range(1, n + 1)]
        # int64 stays int64 while (n + 1) * max|c| is below 2**63, the guard
        past_guard = (n + 1) * max(map(abs, vals), default=0) >= 2 ** 63
        want = object if kind == "fraction" or past_guard else np.int64
        assert out.dtype == want, (n, out.dtype)


@pytest.mark.parametrize("name", list(DEFINITIONS))
def test_transforms_on_floats_match_per_prime_loop_exactly(name):
    kernel = getattr(kernels, name)
    for n in SPLIT_SIZES:
        rng = random.Random(n)
        c = np.array([0.0] + [rng.uniform(-3, 3) for _ in range(n)], dtype=object)
        got, want = kernel(c).tolist(), _per_prime_loop(name, c).tolist()
        assert [v.hex() for v in got] == [v.hex() for v in want], n


FLOATS = np.array([0.0, 0.5, 0.25, 0.75])


@pytest.mark.parametrize("call", [
    lambda: kernels.mobius_transform_int(FLOATS),
    lambda: kernels.mobius_multiples(FLOATS),
    lambda: kernels.divisor_scatter_int(FLOATS),
    lambda: kernels.periodic_sums(FLOATS[1:], [np.array([1, -1])], [3]),
    lambda: kernels.correlate_int(FLOATS[:2], np.arange(4), 2)],
    ids=["mobius_transform_int", "mobius_multiples", "divisor_scatter_int",
         "periodic_sums", "correlate_int"])
def test_integer_kernels_refuse_float_arrays(call):
    # a cast to int64 would truncate every value to 0 and answer silently
    with pytest.raises(TypeError, match="float64"):
        call()


def test_integer_kernels_take_object_arrays_of_floats():
    out = kernels.mobius_transform_int(FLOATS.astype(object))
    assert out.dtype == object and out.tolist() == [0.0, 0.5, 0.25 - 0.5, 0.75 - 0.5]


@pytest.mark.parametrize("n", [1, 3, 19])
@pytest.mark.parametrize("start", [0, 1, 5, -7, 10 ** 20 + 3])
def test_tiled_is_the_period_read(n, start):
    # m from no entries to past 32 wraps, where the indices are reduced first
    tab = np.arange(100, 100 + n, dtype=np.int64)
    for m in (0, 1, n, 32 * n, 32 * n + 1, 100 * n + 7):
        got = kernels.tiled(tab, start, m)
        assert got.tolist() == [int(tab[(start + i) % n]) for i in range(m)]


def test_tiled_reads_float_and_object_tables():
    for tab in (np.array([0.5, -1.0, 2.25]), np.array([2 ** 70, -1, 0], dtype=object)):
        assert kernels.tiled(tab, 2, 200).tolist() == [tab[(2 + i) % 3] for i in range(200)]


def test_tiled_never_wraps_past_32():
    # numpy's wrapped take subtracts the table length once per wrap and entry,
    # so no read may wrap more than 32 times: an index reaches 33 * len at most
    wraps = []

    class Spy(np.ndarray):
        def take(self, idx, *args, **kwargs):
            wraps.append(int(idx.max(initial=0)) // self.shape[0])
            return super().take(idx, *args, **kwargs)

    for n in (1, 3, 19):
        for m in (n, 32 * n - 5, 32 * n, 32 * n + 1, 10 ** 4):
            kernels.tiled(np.arange(n).view(Spy), n - 1, m)
    assert len(wraps) == 15 and max(wraps) <= 32
