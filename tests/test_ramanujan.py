"""Ramanujan sums: the three evaluation routes cross-check each other, and
the classical identities hold exactly on grids."""

import math
from math import gcd, pi
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rlab import kernels, ramanujan
from rlab.arith import divisors, mu, omega, phi
from rlab.experiments import ExperimentConfig, run_experiment
from rlab.ramanujan import (RamanujanSumTable, abs_csum_over_q_partial,
                            cross_sum, csum, csum_divisor_form,
                            csum_multiple_sums, csum_period,
                            csum_trig_form, csum_trig_row,
                            orthogonality_estimate)
from conftest import PROPERTY


def brute_divisor_form(q, n):
    return sum(d * mu(q // d) for d in divisors(q) if n % d == 0)


def test_trivial_modulus():
    for n in range(0, 30):
        assert csum(1, n) == 1


def test_q2_alternates():
    for n in range(0, 20):
        assert csum(2, n) == (-1) ** n


def test_spot_values():
    assert csum(6, 3) == -2
    assert csum_divisor_form(4, 2) == -2
    assert csum_trig_form(1, 7) == pytest.approx(1.0, abs=1e-9)


def test_coprime_gives_mobius():
    for q in range(1, 60):
        for n in range(1, 40):
            if gcd(q, n) == 1:
                assert csum(q, n) == mu(q)


def test_prime_modulus_two_cases():
    for p in (2, 3, 5, 7, 11, 13, 97):
        for n in range(1, 60):
            want = p - 1 if n % p == 0 else -1
            assert csum_divisor_form(p, n) == want


def test_zero_argument_is_totient():
    for q in range(1, 80):
        assert csum(q, 0) == phi(q)


def test_negative_argument_parity():
    for q in range(1, 40):
        for n in range(1, 30):
            assert csum(q, -n) == csum(q, n)


@PROPERTY
@given(q=st.integers(1, 2000), m=st.integers(), k=st.integers(0, 63))
@example(q=1, m=0, k=0)
@example(q=720, m=0, k=5)
@example(q=12, m=-3, k=2)
@example(q=1998, m=-(10 ** 30), k=7)
def test_closed_form_equals_divisor_form(q, m, k):
    # n = m * (a divisor of q), so gcd(q, n) runs over every divisor of q
    divs = divisors(q)
    n = m * divs[k % len(divs)]
    assert csum(q, n) == csum_divisor_form(q, n)


def test_rejects_bad_modulus():
    with pytest.raises(ValueError):
        csum(0, 5)
    with pytest.raises(ValueError):
        csum_divisor_form(-2, 5)
    with pytest.raises(ValueError):
        csum_trig_row(0, 5)
    with pytest.raises(ValueError):
        csum_trig_form(0, 5)
    # a class multiplicity reaches phi(q), and a half of a split cosine times
    # it is exact below 2**26; the refusal comes before any array is built
    with pytest.raises(ValueError, match=r"q <= 2\*\*26"):
        csum_trig_row(2 ** 26 + 1, 0)
    with pytest.raises(ValueError, match=r"q <= 2\*\*26"):
        csum_trig_form(2 ** 40, 3)


def trig_row_by_definition(q, nmax):
    """sum_{j <= q, (j, q) = 1} cos(2 pi (j n mod q) / q) for n = 0..nmax,
    every term evaluated on its own and the terms summed by math.fsum, so
    each entry is the correctly rounded defining sum.  Each cosine comes
    from np.cos, the ufunc the row uses, so equality is exact."""
    return np.array([math.fsum(float(np.cos(2.0 * pi * ((j * n) % q) / q))
                               for j in range(1, q + 1) if gcd(j, q) == 1)
                     for n in range(nmax + 1)])


def trig_form_pointwise(q, n):
    """The cosine sum at one n on its own route: one cosine per residue j
    coprime to q of (j |n| mod q), summed by math.fsum."""
    j = np.arange(1, q + 1, dtype=np.int64)
    coprime = j[np.gcd(j, q) == 1]
    return math.fsum(np.cos(2.0 * pi * ((coprime * (abs(n) % q)) % q) / q).tolist())


@PROPERTY
@given(st.integers(1, 2048).flatmap(lambda q: st.tuples(
    st.just(q), st.integers(-10 ** 12, 10 ** 12) | st.sampled_from([0, q, -q]))))
@example((1, 0))
@example((2048, -2048))
@example((420, 10 ** 12 + 1))
def test_trig_form_equals_the_pointwise_cosine_sum(qn):
    # the row's entry is the pointwise sum, bit for bit
    q, n = qn
    got = csum_trig_form(q, n)
    assert type(got) is float
    assert got.hex() == trig_form_pointwise(q, n).hex()


@PROPERTY
@given(st.integers(1, 256).flatmap(
    lambda q: st.tuples(st.just(q), st.integers(0, 3 * q))))
def test_trig_row_equals_definition(qn):
    q, nmax = qn
    assert np.array_equal(csum_trig_row(q, nmax), trig_row_by_definition(q, nmax))


def test_trig_row_is_the_direct_sum_for_every_q_to_300():
    # oracle: one math.fsum over the coprime j for each residue n, with no
    # classes and no multiplicities; the row matches it byte for byte
    for q in range(1, 301):
        j = np.arange(1, q + 1)
        coprime = j[np.gcd(j, q) == 1]
        table = np.cos(2.0 * pi * np.arange(q) / q)
        want = np.array([math.fsum(table[(coprime * n) % q].tolist()) for n in range(q)])
        assert csum_trig_row(q, q - 1).tobytes() == want.tobytes(), q


@PROPERTY
@given(st.integers(1, 600).flatmap(
    lambda q: st.tuples(st.just(q), st.integers(0, 2 * q))))
@example((512, 1024))
@example((420, 839))
def test_trig_row_constant_on_gcd_classes(qn):
    # the cosine sum depends on n only through gcd(n, q), and the one
    # correctly rounded sum per class lies within 1e-9 of the exact c_q(n)
    q, nmax = qn
    row = csum_trig_row(q, nmax)
    first = {}
    for n in range(nmax + 1):
        assert row[first.setdefault(gcd(n, q), n)] == row[n]
        assert abs(row[n] - csum(q, n)) < 1e-9


def test_triple_agreement_grid():
    qmax = nmax = 64
    tab = RamanujanSumTable.build(qmax, nmax)
    for q in range(1, qmax + 1):
        for n in range(0, nmax + 1):
            c = csum(q, n)
            assert c == tab[q, n]
            assert c == brute_divisor_form(q, n)
        trig = np.array([csum_trig_form(q, n) for n in range(0, 8)])
        exact = np.array([csum(q, n) for n in range(0, 8)])
        assert np.max(np.abs(trig - exact)) < 1e-6


def test_periodicity_and_multiplicativity():
    for q in range(1, 50):
        for n in range(0, 2 * q):
            assert csum(q, n + q) == csum(q, n)
    for q1 in (3, 4, 5, 7, 9):
        for q2 in (2, 8, 11, 25):
            if gcd(q1, q2) != 1:
                continue
            for n in range(1, 40):
                assert csum(q1 * q2, n) == csum(q1, n) * csum(q2, n)


def test_gcd_bound():
    for q in range(1, 80):
        for n in range(1, 80):
            assert abs(csum(q, n)) <= gcd(q, n)


def test_indicator_identity():
    # eq. (2), q 1_{q|n} = sum_{d|q} c_d(n): eq2-grid is its one
    # implementation, here on the grid q <= 59, 0 <= n <= 59
    assert sum(csum(d, 12) for d in divisors(6)) == 6
    assert sum(csum(d, 7) for d in divisors(5)) == 0
    assert all(csum(1, n) == 1 for n in range(20))
    rec = run_experiment(ExperimentConfig("eq2-grid", params={"qmax": 59, "nmax": 59}))
    assert rec.passed


def test_delange_bound():
    # sum_{l|d} |c_l(n)| <= n 2^omega(d): delange-bound is its one
    # implementation, here on the grid d, n <= 59
    assert abs(csum(1, 1)) == 1 * 2 ** omega(1) == 1
    assert sum(abs(csum(l, 6)) for l in divisors(6)) == 6 < 6 * 2 ** omega(6) == 24
    rec = run_experiment(ExperimentConfig("delange-bound", params={"dmax": 59, "nmax": 59}))
    assert rec.passed


def direct_cross_sums(q, l, n, xs):
    """sum_{a<=x} c_q(n+a) c_l(a) for each x, term by term."""
    sums, total = [0], 0
    for a in range(1, max(xs, default=0) + 1):
        total += csum(q, n + a) * csum(l, a)
        sums.append(total)
    return [sums[x] for x in xs]


def test_cross_sum_periodic_equals_direct():
    # the last three have lcm(q, l) > x, so no full period is summed
    for q, l, n, x in ((2, 3, 1, 10 ** 4), (5, 5, 5, 10 ** 4), (6, 4, 2, 9999),
                       (1, 1, 7, 500), (12, 18, 3, 12345), (12, 18, 3, 5),
                       (7, 11, 2, 76), (30, 1, 4, 1)):
        direct = sum(csum(q, n + a) * csum(l, a) for a in range(1, x + 1))
        assert cross_sum(q, l, n, [x]) == [direct]


@PROPERTY
@given(q=st.integers(1, 24), l=st.integers(1, 24), n=st.integers(-50, 50),
       data=st.data())
def test_cross_sum_grid_equals_direct(q, l, n, data):
    # every grid mixes x < P, x = P and multiples of P = lcm(q, l) with
    # arbitrary x, unsorted and repeated
    p = math.lcm(q, l)
    xs = [p - 1, p, 2 * p, 3 * p, 0, p // 2, 3 * p + 1]
    xs += data.draw(st.lists(st.integers(0, 4 * p), max_size=6))
    assert cross_sum(q, l, n, xs) == direct_cross_sums(q, l, n, xs)


def test_cross_sum_empty_and_negative_grid():
    assert cross_sum(6, 4, 1, []) == []
    with pytest.raises(ValueError):
        cross_sum(6, 4, 1, [10, -1])


def test_cross_sum_python_int_path(monkeypatch):
    # past the int64 headroom bound the prefix sums run on Python ints and
    # give what the int64 path and the direct sum give
    q, l, n, xs = 12, 18, 3, [5, 36, 100, 360]
    fits = cross_sum(q, l, n, xs)
    monkeypatch.setattr(kernels, "INT64_LIMIT", 1 << 8)
    assert not kernels._int64_fits(36, csum_period(q), csum_period(l))
    assert cross_sum(q, l, n, xs) == fits == direct_cross_sums(q, l, n, xs)


def test_cross_sum_guard_keeps_large_periods_exact(monkeypatch):
    # periods scaled by 2**31 make each product about 2**62 * c_q c_l, so
    # int64 prefix sums would wrap; the guard must move them to Python ints
    q, l, n, xs = 30, 30, 0, [30, 1000]
    scale = 1 << 31
    want = [scale * scale * s for s in direct_cross_sums(q, l, n, xs)]
    monkeypatch.setattr("rlab.ramanujan.csum_period",
                        lambda m: csum_period(m) * scale)
    assert cross_sum(q, l, n, xs) == want


def test_csum_period_rejects_zero_modulus():
    # an empty table would be cached, and cross_sum's guard reads entry 0
    with pytest.raises(ValueError, match="modulus q >= 1 required"):
        csum_period(0)


def test_csum_period_rejects_negative_modulus():
    with pytest.raises(ValueError, match="modulus q >= 1 required"):
        csum_period(-4)


def test_cross_sum_rejects_zero_modulus():
    for q, l in ((0, 3), (3, 0)):
        with pytest.raises(ValueError, match="modulus q >= 1 required"):
            cross_sum(q, l, 1, [5])


def test_cross_sum_rejects_negative_modulus():
    for q, l in ((-6, 4), (6, -4)):
        with pytest.raises(ValueError, match="modulus q >= 1 required"):
            cross_sum(q, l, 1, [5])


def assert_period_bound(q):
    tab = csum_period(q)
    assert tab[0] == phi(q) == np.abs(tab).max()


def test_csum_period_entry_zero_is_max():
    # the fact cross_sum's int64 guard rests on: max|c_q| = c_q(0) = phi(q)
    for q in range(1, 301):
        assert_period_bound(q)


@PROPERTY
@given(q=st.integers(1, 5000))
def test_csum_period_entry_zero_is_max_property(q):
    assert_period_bound(q)


@pytest.mark.parametrize("q, l, n, xs", [
    (12, 18, 3, [5, 36, 100, 360]),   # m = P = 36
    (12, 18, 3, [5, 20]),             # m = max xs < P
    (30, 30, 0, [30, 1000]),
    (7, 11, 2, [76, 77, 500]),
    (1, 1, 7, [500]),
    (6, 4, 1, [0]),                   # m = 0
])
@pytest.mark.parametrize("extra", [0, 1])
def test_cross_sum_guard_boundary(monkeypatch, q, l, n, xs, extra):
    # at the limit m phi(q) phi(l) the prefix sums move to Python ints, one
    # above it they stay int64: exactly where _int64_fits says they fit
    m = min(math.lcm(q, l), max(xs))
    want = direct_cross_sums(q, l, n, xs)
    monkeypatch.setattr(kernels, "INT64_LIMIT", m * phi(q) * phi(l) + extra)
    fits = kernels._int64_fits(m, csum_period(q), csum_period(l))
    assert fits == bool(extra)
    dtypes = []

    class Spy(np.ndarray):
        # the period tables as a subclass that the wrapped reads and the
        # products keep: it records the dtype of the array summed, whether
        # cumsum is called as a method or as np.cumsum, with or without out
        def cumsum(self, *args, **kwargs):
            dtypes.append(self.dtype)
            return super().cumsum(*args, **kwargs)

    monkeypatch.setattr(ramanujan, "csum_period", lambda m: csum_period(m).view(Spy))
    assert cross_sum(q, l, n, xs) == want
    assert dtypes == [np.dtype(np.int64 if fits else object)]


@PROPERTY
@given(q=st.integers(1, 30), l=st.integers(1, 30), n=st.integers(-10 ** 20, 0),
       data=st.data())
@example(q=12, l=18, n=0, data=None)
def test_cross_sum_nonpositive_shift_and_short_grid(q, l, n, data):
    # n <= 0 (huge |n| included, which reads the table from n mod q) and a
    # grid whose largest x stays below P = lcm(q, l), so no full period is
    # ever summed and the block sum is never read
    p = math.lcm(q, l)
    xs = [0, p - 1] if data is None else \
        data.draw(st.lists(st.integers(0, p - 1), max_size=5))
    assert max(xs, default=0) < p
    assert cross_sum(q, l, n, xs) == direct_cross_sums(q, l, n, xs)


@PROPERTY
@given(q=st.integers(1, 12), l=st.integers(1, 12), n=st.integers(-30, 30),
       data=st.data())
def test_cross_sum_object_tier_equals_direct(q, l, n, data):
    # with the int64 limit at 1 every grid with m >= 1 runs on Python ints
    p = math.lcm(q, l)
    xs = data.draw(st.lists(st.integers(0, 3 * p + 2), max_size=6))
    want = direct_cross_sums(q, l, n, xs)
    with mock.patch.object(kernels, "INT64_LIMIT", 1):
        got = cross_sum(q, l, n, xs)
    assert got == want and all(type(s) is int for s in got)


def parent_cross_sum(q, l, n, xs):
    """The index-array route cross_sum replaced, kept as the reference: the
    period tables read at (n + a) % q and a % l, and the prefix sums in a
    zero-padded array."""
    cq, cl = csum_period(q), csum_period(l)
    xs = list(xs)
    p = math.lcm(q, l)
    m = min(p, max(xs, default=0))
    if m * int(cq[0]) * int(cl[0]) >= kernels.INT64_LIMIT:
        cq, cl = cq.astype(object), cl.astype(object)
    a = np.arange(1, m + 1, dtype=np.int64)
    prefix = np.zeros(m + 1, dtype=cq.dtype)
    np.cumsum(cq[(n + a) % q] * cl[a % l], out=prefix[1:])
    block = int(prefix[-1])
    return [(x // p) * block + int(prefix[x % p]) for x in xs]


def parent_orthogonality_estimate(q, l, n, xs, tol=1e-2):
    """orthogonality_estimate on the parent route: the reference cross sum,
    per-x true divisions and the comprehension-built LimitEstimate."""
    target = float(csum(l, n)) if q == l else 0.0
    estimates = [s / x for s, x in zip(parent_cross_sum(q, l, n, xs), xs)]
    deltas = [b - a for a, b in zip(estimates, estimates[1:])]
    ok = abs(deltas[-1]) < tol and abs(estimates[-1] - target) < tol
    return dict(grid=list(xs), estimates=estimates, deltas=deltas,
                verdict="converged" if ok else "undetermined", tol=tol,
                target=target, exact=None)


def test_c05_estimates_equal_the_parent_route():
    # every LimitEstimate field of the 4,000 c05 triples (q, l <= 20,
    # n <= 10 at x = 10^6 / 4, 10^6 / 2, 10^6), floats compared by float.hex
    def fields(d):
        return {k: [float.hex(v) for v in d[k]] if k in ("estimates", "deltas")
                else d[k] for k in d}

    grid = [250_000, 500_000, 1_000_000]
    for q in range(1, 21):
        for l in range(1, 21):
            for n in range(1, 11):
                est = orthogonality_estimate(q, l, n, grid)
                assert fields(vars(est)) == \
                    fields(parent_orthogonality_estimate(q, l, n, grid)), (q, l, n)


def test_csum_prefix_sum_brute():
    # the prefix sum sum_{a<=A} c_q(a) is the entry T[1] of the multiple sums
    for q in (1, 2, 6, 12, 30):
        for a_max in (0, 1, 7, 50, 101):
            assert csum_multiple_sums(q, 1, a_max)[1] == \
                sum(csum(q, a) for a in range(1, a_max + 1))


def test_csum_multiple_sums_past_int64():
    # sigma(q) x past 2**63 takes the Python-int path: at q = 1 every T[d] is
    # x // d, and at q = 2, where c_2(m) = (-1)^m, T[d] is x // d for even d
    # and -(x // d mod 2) for odd d
    x = 2 ** 63 + 5
    assert csum_multiple_sums(1, 8, x).tolist() == [0] + [x // d for d in range(1, 9)]
    assert csum_multiple_sums(2, 8, x).tolist() == \
        [0] + [x // d if d % 2 == 0 else -(x // d % 2) for d in range(1, 9)]


def test_orthogonality_trivial_case():
    est = orthogonality_estimate(1, 1, 3, [10, 100, 1000])
    assert est.estimates == [1.0, 1.0, 1.0]
    assert est.converged


def test_orthogonality_off_diagonal():
    est = orthogonality_estimate(2, 3, 1, [25000, 50000, 100000])
    assert abs(est.final) < 0.01
    # direct-summation oracle at the final grid point
    direct = sum(csum(2, 1 + a) * csum(3, a) for a in range(1, 2001))
    assert cross_sum(2, 3, 1, [2000]) == [direct]


def test_orthogonality_diagonal():
    est = orthogonality_estimate(5, 5, 5, [250000, 500000, 1000000])
    assert abs(est.final - csum(5, 5)) < 0.01
    assert est.target == 4.0


def test_orthogonality_grid_validation():
    with pytest.raises(ValueError):
        orthogonality_estimate(2, 3, 1, [])
    with pytest.raises(ValueError):
        orthogonality_estimate(2, 3, 1, [100, 50])
    with pytest.raises(ValueError):
        orthogonality_estimate(2, 3, 1, [2])   # below lcm(2,3)


def test_divergence_partials():
    for n in (1, 2, 3):
        lo, hi = abs_csum_over_q_partial(n, [100, 10000])
        assert hi > lo + 0.3


@pytest.mark.parametrize("n", range(1, 11))
def test_divergence_partials_bit_identical(n):
    # the in-place weights give the partials of the plain expression bit for bit
    cuts = [10 ** 3, 10 ** 5]
    row = kernels.csum_row(n, cuts[-1])
    weights = np.abs(row[1:]).astype(np.float64) / np.arange(1, cuts[-1] + 1, dtype=np.float64)
    want = [float(weights[:cuts[0]].sum())]
    want.append(want[0] + float(weights[cuts[0]:].sum()))
    got = abs_csum_over_q_partial(n, cuts)
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_table_invariants():
    tab = RamanujanSumTable.build(30, 90)
    ph = kernels.totient_sieve(30)
    for q in range(1, 31):
        assert tab.values[q, 0] == ph[q]
        assert tab[q, q + 5] == tab[q, (q + 5) % q]
    # negative n reduces mod q (c_q is even and q-periodic), not from the row end
    small = RamanujanSumTable.build(10, 10)
    assert small[6, -3] == csum(6, -3) == -2
    for q in range(1, 11):
        for n in range(-25, 0):
            assert small[q, n] == csum(q, n)


# moduli up to 10^6 for the class cache: random ones, prime powers and
# highly composite numbers (many classes gcd(n, q))
PRIME_POWERS = [2 ** 19, 3 ** 12, 5 ** 8, 7 ** 7, 997 ** 2, 999983]
HIGHLY_COMPOSITE = [5040, 55440, 720720, 831600, 942480, 997920]
MODULI = st.integers(1, 10 ** 6) | st.sampled_from(PRIME_POWERS + HIGHLY_COMPOSITE)


@PROPERTY
@given(qs=st.lists(MODULI, min_size=1, max_size=4), data=st.data())
def test_csum_classes_equal_divisor_form(qs, data):
    # calls in random order on a few moduli, so that misses (a new modulus or
    # a new class) and hits interleave; n = m * (a divisor of q) reaches
    # every class, plain n the small ones
    picks = data.draw(st.lists(st.integers(0, len(qs) - 1), min_size=1, max_size=30))
    for i in picks:
        q = qs[i]
        if data.draw(st.booleans()):
            n = data.draw(st.integers(-10 ** 12, 10 ** 12))
        else:
            n = data.draw(st.integers(-10 ** 6, 10 ** 6)) * data.draw(st.sampled_from(divisors(q)))
        assert csum(q, n) == csum_divisor_form(q, n)
        assert csum(q, -n) == csum(q, n)


def test_csum_reads_the_closed_form_once_per_class(monkeypatch):
    calls = []
    closed = ramanujan._csum_closed
    monkeypatch.setattr(ramanujan, "_csum_classes", {})
    monkeypatch.setattr(ramanujan, "_csum_closed",
                        lambda q, n: (calls.append((q, n)), closed(q, n))[1])
    assert csum(12, 8) == csum_divisor_form(12, 8) == -2
    assert calls == [(12, 4)]
    # a second n with the same gcd runs no closed form
    assert csum(12, 4) == csum(12, -20) == csum(12, 10 ** 12 + 4) == -2
    assert calls == [(12, 4)]
    assert csum(12, 0) == phi(12)
    assert calls == [(12, 4), (12, 12)]
    assert ramanujan._csum_classes == {12: {4: -2, 12: 4}}


def test_csum_class_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(ramanujan, "_csum_classes", {})
    sizes = []
    for q in range(1, 5001):
        assert csum(q, 6) == csum_divisor_form(q, 6)
        sizes.append(len(ramanujan._csum_classes))
    assert max(sizes) <= ramanujan._CSUM_MODULI == 4096
    # evicted and kept moduli alike give correct values afterwards
    for q in range(1, 5001, 7):
        for n in (0, 1, 6, q, -q - 4):
            assert csum(q, n) == csum_divisor_form(q, n)
    assert len(ramanujan._csum_classes) <= 4096
    for q, classes in ramanujan._csum_classes.items():
        assert set(classes) <= set(divisors(q))


def test_csum_bad_modulus_is_not_cached(monkeypatch):
    monkeypatch.setattr(ramanujan, "_csum_classes", {})
    for q in (0, -3):
        with pytest.raises(ValueError, match=f"got {q}"):
            csum(q, 1)
    assert ramanujan._csum_classes == {}


def test_csum_takes_integers_and_returns_python_ints(monkeypatch):
    monkeypatch.setattr(ramanujan, "_csum_classes", {})
    assert csum(5, 1) == -1 and csum(6, 2) == -1
    # a float raises whether or not its modulus is cached
    for q, n in ((5.0, 1), (6, 2.0), (7.0, 3), (10, 2.5)):
        with pytest.raises(TypeError):
            csum(q, n)
    v = csum(np.int64(6), 4)
    assert v == -1 and type(v) is int
    w = csum(np.int64(10), np.int64(5))   # a new modulus given as a numpy int
    assert w == csum_divisor_form(10, 5) and type(w) is int
    assert all(type(q) is int and all(type(v) is int for v in classes.values())
               for q, classes in ramanujan._csum_classes.items())


@PROPERTY
@given(q=st.integers(1, 2000))
@example(q=1)
@example(q=1024)
@example(q=1680)
@example(q=1999)
@example(q=2000)
def test_csum_period_is_the_csum_row(q):
    tab = csum_period(q)
    assert tab.dtype == np.int64 and not tab.flags.writeable
    assert tab.tolist() == [csum(q, r) for r in range(q)]
    with pytest.raises(ValueError):
        tab[0] = 0


def test_table_rejects_modulus_outside_its_range():
    tab = RamanujanSumTable.build(6, 6)
    for q in (-1, 0, 7):
        with pytest.raises(ValueError, match=f"got {q}"):
            tab[q, 3]


def test_table_rejects_residue_past_nmax():
    tab = RamanujanSumTable.build(6, 2)
    assert tab[6, 8] == csum(6, 8)   # residue 2 is in the table
    for n, r in ((5, 5), (-1, 5), (9, 3)):
        with pytest.raises(IndexError, match=f"= {r} of n = {n} is past nmax = 2"):
            tab[6, n]
