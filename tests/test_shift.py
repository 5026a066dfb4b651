"""Shifted convolution sums, the exact split identity, and the Reef machinery."""

from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rlab import kernels
from rlab.arith import ArithmeticFunction, divisors, mu, phi
from rlab.finite import FiniteExpansion, TruncatedDivisorSum, truncate
from rlab.ramanujan import csum
from rlab.shift import (cc_coefficients, carmichael_vs_cc,
                        correlate, cut_correlation, divisor_tail, is_tail_free,
                        l_estimate, qrc, shift_expansion_check, short_average,
                        weak_reef_check)
from conftest import PROPERTY, RATIONALS, rand_table


def even_indicator():
    return ArithmeticFunction.from_tds(TruncatedDivisorSum(2, [0, 1]))


def brute_correlation(f, g, n_len, a):
    return sum(Fraction(f(n)) * Fraction(g(n + a)) for n in range(1, n_len + 1))


def test_constant_correlation():
    one = ArithmeticFunction.builtin("one")
    c = correlate(one, one, 25, 40)
    assert all(c.value(a) == 25 for a in range(1, 41))


def test_even_indicator_correlation():
    f = even_indicator()
    c = correlate(f, f, 20, 30)
    for a in range(1, 31):
        want = sum(1 for n in range(1, 21) if n % 2 == 0 and (n + a) % 2 == 0)
        assert c.value(a) == want == (10 if a % 2 == 0 else 0)


def test_mobius_against_one():
    f = ArithmeticFunction.table([mu(n) for n in range(1, 12)])
    one = ArithmeticFunction.builtin("one")
    c = correlate(f, one, 10, 5)
    assert c.value(1) == sum(mu(n) for n in range(1, 11)) == -1


def test_correlate_past_int64():
    # 2**40 * 2**40 * 2 terms overflows int64; the kernel switches to Python ints
    f = ArithmeticFunction.table([2 ** 40] * 3)
    c = correlate(f, f, 3, 1)
    assert c.value(1) == 2 ** 81
    assert c.transform(1)[1] == 2 ** 81


def test_deep_integer_transform_stays_int64():
    # an integer correlation deepened to 10**5 shifts keeps an int64
    # transform, equal to the transform of its values as Python ints
    c = correlate(ArithmeticFunction.builtin("d_2"), ArithmeticFunction.builtin("mu"), 60, 10)
    tr = c.transform(10 ** 5)
    assert c.amax == 10 ** 5 and c.values.dtype == np.int64
    want = kernels.mobius_transform_int(kernels.int_array((0, *c.values.tolist())))
    assert tr.dtype == want.dtype == np.int64
    assert np.array_equal(tr, want)
    assert tr[1] == c.value(1)


def test_correlate_tds_past_int64():
    # F(n) = 2**62 (n odd) or 2**63 (n even): the values alone pass int64
    f = ArithmeticFunction.from_tds(TruncatedDivisorSum(2, [2 ** 62, 2 ** 62]))
    c = correlate(f, f, 4, 3)
    assert [c.value(a) for a in (1, 2, 3)] == [brute_correlation(f, f, 4, a)
                                               for a in (1, 2, 3)]


def test_cache_matches_recomputation(rng):
    q = rng.randint(1, 8)
    f = ArithmeticFunction.from_tds(TruncatedDivisorSum(q, rand_table(rng, q)))
    g = ArithmeticFunction.from_tds(TruncatedDivisorSum(q, rand_table(rng, q)))
    c = correlate(f, g, 15, 20)
    for a in (1, 7, 20):
        assert Fraction(c.value(a)) == brute_correlation(f, g, 15, a)


def test_truncation_is_invisible(rng):
    # replacing f by its N-truncation and g by its (N+a)-truncation changes
    # nothing: divisors of n <= N (resp. n+a) never exceed those bounds
    f = ArithmeticFunction.builtin("d_2")
    g = ArithmeticFunction.builtin("phi")
    n_len = 12
    for a in (1, 5, 9):
        full = brute_correlation(f, g, n_len, a)
        ft = ArithmeticFunction.from_tds(truncate(f, n_len))
        gt = ArithmeticFunction.from_tds(truncate(g, n_len + a))
        assert brute_correlation(ft, gt, n_len, a) == full


def test_cut_correlation_remainder_zero_for_short_tds():
    g = even_indicator()   # range 2 <= N
    one = ArithmeticFunction.builtin("one")
    cut = cut_correlation(one, g, 10, 12)
    assert all(r == 0 for r in cut.remainder)


def test_cut_correlation_remainder_oracle():
    one = ArithmeticFunction.builtin("one")
    d2 = ArithmeticFunction.builtin("d_2")
    n_len = 20
    cut = cut_correlation(one, d2, n_len, 8)
    # direct double-sum oracle: divisors of n+a beyond the cut
    for a in range(1, 9):
        want = sum(1 for n in range(1, n_len + 1)
                   for q in divisors(n + a) if q > n_len)
        assert cut.remainder[a - 1] == want


def test_qrc_constant():
    one = ArithmeticFunction.builtin("one")
    cut = cut_correlation(one, one, 9, 16)
    coeffs = qrc(cut, 9)
    assert coeffs.get(1) == 9
    assert all(coeffs.get(q) == 0 for q in range(2, 10))
    assert coeffs.get(15) == 0    # support law past the cut


def test_qrc_even_indicator():
    f = even_indicator()
    n_len = 10
    cut = cut_correlation(f, f, n_len, 8)
    coeffs = qrc(cut, 4)
    assert coeffs.get(1) == Fraction(5, 2)
    assert coeffs.get(2) == Fraction(5, 2)
    assert coeffs.get(3) == 0 and coeffs.get(4) == 0


def test_split_identity_trivial():
    one = ArithmeticFunction.builtin("one")
    cut = cut_correlation(one, one, 8, 40)
    for a in (1, 8, 16, 33):
        lhs, rhs, equal = shift_expansion_check(cut, a)
        assert equal and lhs == 8


def test_split_identity_randomized(rng):
    for _ in range(8):
        n_len = rng.randint(8, 64)
        qf, qg = rng.randint(1, 16), rng.randint(1, 16)
        f = ArithmeticFunction.from_tds(TruncatedDivisorSum(qf, rand_table(rng, qf)))
        g = ArithmeticFunction.from_tds(TruncatedDivisorSum(qg, rand_table(rng, qg)))
        cut = cut_correlation(f, g, n_len, 256)
        for a in {rng.randint(1, 256) for _ in range(4)} | {2 * n_len}:
            lhs, rhs, equal = shift_expansion_check(cut, a)
            assert equal, (n_len, a)


def _rational_tds(values):
    return ArithmeticFunction.from_tds(TruncatedDivisorSum(len(values), values))


@PROPERTY
@given(f=st.lists(RATIONALS, min_size=1, max_size=6),
       g=st.lists(RATIONALS, min_size=1, max_size=6),
       n_len=st.integers(1, 12), a=st.integers(1, 48))
def test_split_identity_property(f, g, n_len, a):
    cut = cut_correlation(_rational_tds(f), _rational_tds(g), n_len, 48)
    lhs, rhs, equal = shift_expansion_check(cut, a)
    assert equal
    assert lhs == brute_correlation(cut.base.f, cut.base.g, n_len, a)


@PROPERTY
@given(f=st.lists(RATIONALS, min_size=1, max_size=8),
       g=st.lists(RATIONALS, min_size=1, max_size=8),
       n_len=st.integers(1, 12), amax=st.integers(1, 12))
def test_cut_correlation_cuts_g_by_truncate(f, g, n_len, amax):
    g = ArithmeticFunction.table(g)
    cut = cut_correlation(ArithmeticFunction.table(f), g, n_len, amax)
    assert cut.g_truncated == truncate(g, n_len)


@PROPERTY
@given(f=st.lists(RATIONALS, min_size=1, max_size=6),
       g=st.lists(RATIONALS, min_size=1, max_size=6),
       n_len=st.integers(1, 12), data=st.data())
def test_qrc_is_the_truncated_wintner_sum(f, g, n_len, data):
    cut = cut_correlation(_rational_tds(f), _rational_tds(g), n_len, 16)
    q_cut = data.draw(st.integers(1, 16))
    coeffs = qrc(cut, q_cut)
    assert isinstance(coeffs, FiniteExpansion) and coeffs.range == q_cut
    tr = cut.base.transform(q_cut)
    for q in range(1, q_cut + 3):
        want = sum((Fraction(tr[d]) / d for d in range(q, q_cut + 1, q)), Fraction(0))
        assert coeffs.get(q) == want     # zero past Q
    assert isinstance(cut.coefficients(), FiniteExpansion)
    assert cut.coefficients().fhat == qrc(cut, n_len).fhat


def test_cc_even_indicator_hand_value():
    f = even_indicator()
    cut = cut_correlation(f, f, 10, 10)
    table = cc_coefficients(cut, 4)
    # ghat(2) = 1/2, phi(2) = 1, sum over even n <= 10 of c_2(n) = 5
    assert table[1] == Fraction(5, 2)
    assert table[2] == 0 and table[3] == 0


def test_cc_vanishes_past_length():
    one = ArithmeticFunction.builtin("one")
    cut = cut_correlation(one, one, 6, 6)
    table = cc_coefficients(cut, 10)
    assert all(v == 0 for v in table[6:])


def _brute_cc(cut, lmax):
    """(ghat_N(l)/phi(l)) sum_{n<=N} f(n) c_l(n) for l = 1..lmax, from the
    definition: ghat_N(l) = sum_{d<=N, l|d} g'(d)/d, zero past N."""
    n, gn = cut.length, cut.g_truncated.fprime
    fv = [Fraction(cut.base.f(m)) for m in range(1, n + 1)]
    out = []
    for l in range(1, lmax + 1):
        ghat = sum((Fraction(gn[d - 1]) / d for d in range(l, n + 1, l)), Fraction(0))
        out.append(ghat / phi(l) * sum(fv[m - 1] * csum(l, m) for m in range(1, n + 1)))
    return out


INT_TABLES = st.lists(st.integers(-9, 9), min_size=1, max_size=5)


@PROPERTY
@given(f=INT_TABLES | st.lists(RATIONALS, min_size=1, max_size=5),
       g=INT_TABLES | st.lists(RATIONALS, min_size=1, max_size=5),
       n_len=st.integers(1, 8), extra=st.integers(0, 3), data=st.data())
def test_cc_coefficients_match_definition(f, g, n_len, extra, data):
    # lmax runs from 1 to N + 3: the zeros where ghat_N(l) = 0 and past N
    cut = cut_correlation(_rational_tds(f), _rational_tds(g), n_len, n_len)
    lmax = data.draw(st.integers(1, n_len + 3))
    assert cc_coefficients(cut, lmax) == _brute_cc(cut, lmax)


@pytest.mark.parametrize("make", [
    lambda: cut_correlation(ArithmeticFunction.builtin("d_2"),
                            _rational_tds([0, 0, 1, 0, -2]), 12, 12),
    lambda: cut_correlation(_rational_tds([Fraction(1, 2), 0, 3, Fraction(-2, 7)]),
                            _rational_tds([0, Fraction(1, 3), 0, 0, 1, 0]), 9, 9),
    lambda: cut_correlation(even_indicator(), even_indicator(), 10, 10)],
    ids=["integer", "rational tds", "shared fold"])
def test_cc_coefficients_call_the_kernel_once_per_nonzero_ghat(make, monkeypatch):
    # the period tables c_q(0..q-1) are cached across calls; with them built,
    # cc_coefficients evaluates no Ramanujan sum of its own.  The tables of
    # the l with ghat_N(l) != 0 share one kernel call when lcm(l) <= N, and
    # take one call each otherwise (ls 1, 3, 5 at N = 12 and 1, 2, 5 at N = 9)
    from rlab import ramanujan
    cut = make()
    n = cut.length
    ghat = cut.ghat()
    for l in range(1, n + 1):
        ramanujan.csum_period(l)
    csums, kernel_calls = [], []
    real_csum, real_kernel = ramanujan.csum, kernels.periodic_sums

    def counting_csum(*args):
        csums.append(args)
        return real_csum(*args)

    def counting_kernel(w, tabs, xs):
        kernel_calls.append(([t.shape[0] for t in tabs], xs))
        return real_kernel(w, tabs, xs)

    monkeypatch.setattr(ramanujan, "csum", counting_csum)
    monkeypatch.setattr(kernels, "periodic_sums", counting_kernel)
    table = cc_coefficients(cut, n + 2)
    ls = [l for l in range(1, n + 1) if ghat[l - 1]]
    assert csums == []
    assert kernel_calls == ([(ls, [n])] if lcm(*ls) <= n else [([l], [n]) for l in ls])
    assert 0 < len(ls) < n      # some ghat_N(l) vanish
    assert table == _brute_cc(cut, n + 2)


@pytest.mark.parametrize("lmax", [0, -3])
def test_cc_coefficients_reject_lmax_below_one(lmax):
    cut = cut_correlation(even_indicator(), even_indicator(), 10, 10)
    with pytest.raises(ValueError, match=f"lmax={lmax}"):
        cc_coefficients(cut, lmax)


@pytest.mark.parametrize("l", [0, -3])
def test_carmichael_vs_cc_rejects_l_below_one(l):
    cut = cut_correlation(even_indicator(), even_indicator(), 10, 10)
    with pytest.raises(ValueError, match=f"l={l}"):
        carmichael_vs_cc(cut, l, [100, 1000])


def test_carmichael_vs_cc_constant():
    one = ArithmeticFunction.builtin("one")
    n_len = 7
    cut = cut_correlation(one, one, n_len, n_len)
    est = carmichael_vs_cc(cut, 1, [100, 1000])
    assert est.exact == [Fraction(7), Fraction(7)]


def test_carmichael_vs_cc_even_indicator():
    f = even_indicator()
    n_len = 10
    cut = cut_correlation(f, f, n_len, n_len)
    x = 10 ** 4
    est = carmichael_vs_cc(cut, 2, [x // 4, x // 2, x])
    assert est.target == 2.5
    assert abs(est.final - est.target) < 1e-2 * n_len
    est_big = carmichael_vs_cc(cut, 12, [x // 4, x // 2, x])
    assert abs(est_big.final) < 1e-2 * n_len


def test_l_estimate_zero_for_tail_free():
    f = even_indicator()
    cut = cut_correlation(f, f, 10, 10)
    assert is_tail_free(cut, 5000)
    for q in (1, 2, 3):
        est = l_estimate(cut, q, [1000, 5000])
        assert est.exact == [Fraction(0), Fraction(0)]


def _tail_instance(scale=1):
    # C(4, a) = scale**2 * 1_{a = 1 mod 3}: transform carries mass past N = 4
    f = ArithmeticFunction.table([0, scale], after="zero")
    g = ArithmeticFunction.from_tds(TruncatedDivisorSum(3, [0, 0, scale]))
    return cut_correlation(f, g, 4, 64)


def test_tail_instance_shape():
    cut = _tail_instance()
    for a in range(1, 20):
        assert cut.base.value(a) == (1 if a % 3 == 1 else 0)
    assert not is_tail_free(cut, 64)
    assert divisor_tail(cut, 5) == -1


def test_l_estimate_direct_oracle():
    cut = _tail_instance()
    x = 2000
    for q in (1, 2, 3, 5):
        est = l_estimate(cut, q, [x // 2, x])
        tr = cut.base.transform(x)
        brute = sum(csum(q, m) * sum(int(tr[d]) for d in divisors(m) if d > 4)
                    for m in range(1, x + 1))
        assert est.exact[-1] == Fraction(brute, phi(q) * x)


def _brute_transform(cut, depth):
    """C'(N, d) for d = 1..depth from brute-force correlation values."""
    n = cut.length
    c = {t: brute_correlation(cut.base.f, cut.base.g, n, t) for t in range(1, depth + 1)}
    return {d: sum(c[t] * mu(d // t) for t in divisors(d)) for d in range(1, depth + 1)}


def _brute_l(tr, q, x, split):
    """sum_{m<=x} c_q(m) sum_{d|m, d>split} C'(N,d) / (phi(q) x)."""
    total = sum(csum(q, m) * sum(tr[d] for d in divisors(m) if d > split)
                for m in range(1, x + 1))
    return total / Fraction(phi(q) * x)


def _rational_tail_instance():
    # the tail instance over rationals: C(4, a) = 1/6 * 1_{a = 1 mod 3}
    f = ArithmeticFunction.table([0, Fraction(1, 2)], after="zero")
    g = ArithmeticFunction.from_tds(TruncatedDivisorSum(3, [0, 0, Fraction(1, 3)]))
    return cut_correlation(f, g, 4, 64)


@PROPERTY
@given(f=st.lists(RATIONALS, min_size=1, max_size=5),
       g=st.lists(RATIONALS, min_size=1, max_size=5),
       n_len=st.integers(2, 6), q=st.integers(1, 7))
def test_l_estimate_rational_is_exact(f, g, n_len, q):
    cut = cut_correlation(_rational_tds(f), _rational_tds(g), n_len, n_len)
    tr = _brute_transform(cut, 40)
    est = l_estimate(cut, q, [20, 40])
    assert est.exact == [_brute_l(tr, q, 20, n_len), _brute_l(tr, q, 40, n_len)]


def test_weak_reef_rational_residuals_are_exact():
    cut = _rational_tail_instance()
    n, a, grid = cut.length, 7, [30, 60]
    tr = _brute_transform(cut, 60)
    ghat = cut.ghat()
    fv = [Fraction(cut.base.f(m)) for m in range(1, n + 1)]
    cc = [ghat[l - 1] / phi(l) * sum(fv[m - 1] * csum(l, m) for m in range(1, n + 1))
          for l in range(1, n + 1)]
    tail = sum(tr[d] for d in divisors(a) if d > n)
    rep = weak_reef_check(cut, a, grid)
    assert rep.tail == tail and rep.lhs == brute_correlation(cut.base.f, cut.base.g, n, a)
    for (x, rhs, residual) in rep.rows:
        want = tail + sum((cc[q - 1] - _brute_l(tr, q, x, n)) * csum(q, a)
                          for q in range(1, n + 1))
        assert isinstance(residual, Fraction) and rhs == want
        assert residual == rep.lhs - want
    assert rep.rows[0][2] == Fraction(-1, 360)   # L at x = 30 is not yet its limit


def test_carmichael_vs_cc_rational_is_exact():
    cut = _rational_tail_instance()
    est = carmichael_vs_cc(cut, 2, [30, 60])
    for x, got in zip([30, 60], est.exact):
        assert got == sum(cut.base.value(a) * csum(2, a)
                          for a in range(1, x + 1)) / Fraction(phi(2) * x)


def test_l_estimate_past_int64():
    # the scaled instance's correlation, transform and divisor tail pass 2**63
    small, big = _tail_instance(), _tail_instance(2 ** 40)
    for q in (1, 2, 3):
        want = [v * 2 ** 80 for v in l_estimate(small, q, [500, 1000]).exact]
        assert l_estimate(big, q, [500, 1000]).exact == want


def test_l_estimate_limits():
    # exact limits by inclusion-exclusion: L(1) = -1/12, L(2) = 1/4,
    # L(3) = 1/6, L(4) = -1/4 for the periodic tail instance
    cut = _tail_instance()
    want = {1: Fraction(-1, 12), 2: Fraction(1, 4),
            3: Fraction(1, 6), 4: Fraction(-1, 4)}
    for q, target in want.items():
        est = l_estimate(cut, q, [10 ** 4, 10 ** 5])
        assert abs(est.final - float(target)) < 5e-3
    est5 = l_estimate(cut, 5, [10 ** 4, 10 ** 5])
    assert abs(est5.final) < 5e-3      # vanishes past N


def test_weak_reef_tail_free_is_exact():
    f = even_indicator()
    cut = cut_correlation(f, f, 10, 12)
    rep = weak_reef_check(cut, 6, [100, 1000])
    assert rep.tail_free and rep.exact_reef
    assert all(r[2] == 0 for r in rep.rows)


def test_weak_reef_residual_shrinks():
    cut = _tail_instance()
    rep = weak_reef_check(cut, 7, [10 ** 3, 10 ** 4, 10 ** 5])
    res = rep.residuals
    assert res[-1] < res[0]


@pytest.mark.parametrize("make", [_tail_instance, _rational_tail_instance])
def test_weak_reef_and_short_average_scatter_the_tail_once(make, monkeypatch):
    from rlab import kernels
    grid = [100, 1000]
    cut = make()
    cut.base.ensure_depth(grid[-1])       # deepen first: only the tail is scattered
    n, a = cut.length, 7
    cc = cc_coefficients(cut)
    tail = divisor_tail(cut, a)
    ests = {q: l_estimate(cut, q, grid).exact for q in range(1, n + 1)}
    scatters = []
    real = kernels.divisor_scatter_int

    def counting(w):
        scatters.append(w.shape[0])
        return real(w)

    monkeypatch.setattr(kernels, "divisor_scatter_int", counting)
    rep = weak_reef_check(cut, a, grid)
    assert scatters == [grid[-1] + 1]
    for i, (x, rhs, residual) in enumerate(rep.rows):
        want = tail + sum((cc[q - 1] - ests[q][i]) * csum(q, a) for q in range(1, n + 1))
        assert rhs == want and residual == rep.lhs - want
    scatters.clear()
    avg = short_average(cut, n, grid)
    assert scatters == [grid[-1] + 1]
    assert [row[2] for row in avg.rows] == [ests[q][-1] for q in range(1, n + 1)]


def test_reef_deviation_equals_tail():
    cut = _tail_instance()
    n_len = cut.length
    coeffs = qrc(cut, n_len)
    for a in (5, 7, 10, 25):
        lhs = Fraction(cut.base.value(a))
        main = sum(coeffs.get(q) * csum(q, a) for q in range(1, n_len + 1))
        assert lhs - main == divisor_tail(cut, a)


@pytest.mark.parametrize("make", [_tail_instance, _rational_tail_instance])
def test_short_average_reads_l_at_the_last_grid_point(make):
    cut = make()
    n = cut.length
    tr = _brute_transform(cut, 60)
    rep = short_average(cut, n, [20, 45, 60])
    assert [row[2] for row in rep.rows] == [_brute_l(tr, q, 60, n) for q in range(1, n + 1)]
    for grid in ([45, 60], [60]):
        assert short_average(cut, n, grid) == rep


def test_short_average_tail_free_exact():
    f = even_indicator()
    cut = cut_correlation(f, f, 10, 10)
    rep = short_average(cut, 10, [100, 1000])
    assert rep.residual == 0
    assert rep.lhs == 5 * 5   # C(10, a) = 5 for even a <= 10


def test_short_average_trivial():
    one = ArithmeticFunction.builtin("one")
    n_len = 9
    cut = cut_correlation(one, one, n_len, n_len)
    rep = short_average(cut, n_len, [100, 1000])
    assert rep.lhs == rep.rhs == n_len * n_len


def test_short_average_depth_guard():
    one = ArithmeticFunction.builtin("one")
    cut = cut_correlation(one, one, 5, 5)
    with pytest.raises(ValueError):
        short_average(cut, 6)


@pytest.mark.parametrize("a_cut", [0, -5])
def test_short_average_rejects_a_below_one(a_cut):
    one = ArithmeticFunction.builtin("one")
    cut = cut_correlation(one, one, 5, 5)
    with pytest.raises(ValueError, match=f"A={a_cut}"):
        short_average(cut, a_cut)


def test_short_average_matches_pointwise_residuals():
    cut = _tail_instance()
    grid = [500, 1500]
    rep = short_average(cut, 4, grid)
    summed = sum(weak_reef_check(cut, a, grid).rows[-1][2] for a in range(1, 5))
    assert rep.residual == summed


def test_value_past_the_cache_deepens_it():
    # C(N, a) read past amax deepens the shift cache, as every other reader does
    f = ArithmeticFunction.from_tds(TruncatedDivisorSum(2, [0, 1]))
    g = ArithmeticFunction.from_tds(TruncatedDivisorSum(3, [0, 0, 1]))
    cut = cut_correlation(f, g, 4, 64)
    rep = weak_reef_check(cut, 100, [1000, 10000])
    assert cut.base.amax >= 100 and rep.lhs == brute_correlation(f, g, 4, 100) == 1
    even = even_indicator()
    rep = short_average(cut_correlation(even, even, 10, 4), 8, [100, 1000])
    assert rep.lhs == sum(brute_correlation(even, even, 10, a) for a in range(1, 9))
    assert rep.residual == 0
    with pytest.raises(IndexError):
        cut.base.value(0)


def test_depth_cap():
    one = ArithmeticFunction.builtin("one")
    cut = cut_correlation(one, one, 4, 4)
    with pytest.raises(ValueError):
        cut.base.ensure_depth(10 ** 7)
    with pytest.raises(ValueError, match="exceeds cap"):
        cut.base.value(10 ** 7)
