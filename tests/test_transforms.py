"""Transform and coefficient machinery against direct-summation oracles."""

from fractions import Fraction
from itertools import accumulate
from math import gcd
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rlab import kernels, transforms
from rlab.arith import ArithmeticFunction, divisors, mu, phi
from rlab.cli import main
from rlab.finite import FiniteExpansion, TruncatedDivisorSum, tds_to_fre
from rlab.rational import ExactList, canonical, scale, value_kind
from rlab.ramanujan import csum, csum_divisor_form, csum_multiple_sums
from rlab.transforms import (_csum_weighted_sums, carmichael_estimate, condition_check,
                             cw_formula_check, eratosthenes,
                             nonneg_carmichael_bound, vanishing_tail_search,
                             wintner_coefficient, wintner_inverse, wintner_partials,
                             wintner_scaled_table)
from conftest import PROPERTY, RATIONALS, rand_table


def int_values(tr) -> list:
    """The values of an integer transform, whose shape is a read-only integer array."""
    assert isinstance(tr, np.ndarray) and tr.dtype.kind in "iO"
    assert not tr.flags.writeable
    return tr.tolist()


def test_eratosthenes_examples():
    one = ArithmeticFunction.builtin("one")
    assert int_values(eratosthenes(one, 50)) == [1] + [0] * 49
    tr = eratosthenes(ArithmeticFunction.builtin("id"), 100)
    assert int_values(tr) == [phi(d) for d in range(1, 101)]
    tr2 = eratosthenes(ArithmeticFunction.builtin("d_2"), 100)
    assert int_values(tr2) == [1] * 100


def test_eratosthenes_roundtrip(rng):
    n = 500
    f = ArithmeticFunction.table(rand_table(rng, n))
    tr = eratosthenes(f, n)
    # integral values come back as ints, the rest as Fractions
    assert all(type(v) is int or (type(v) is Fraction and v.denominator > 1)
               for v in tr)
    for m in range(1, n + 1):
        assert sum(tr[d - 1] for d in divisors(m)) == f(m)


def test_eratosthenes_past_int64():
    f = ArithmeticFunction.table([-2 ** 62, 2 ** 62])
    assert int_values(eratosthenes(f, 2)) == [-2 ** 62, 2 ** 63]


def test_eratosthenes_table_past_int64():
    # the table value itself is past int64, before any kernel runs
    f = ArithmeticFunction.table([2 ** 64, 1])
    assert int_values(eratosthenes(f, 2)) == [2 ** 64, 1 - 2 ** 64]


def eratosthenes_by_definition(values) -> list:
    """sum_{t|d} F(t) mu(d/t) for d = 1..len(values), term by term."""
    return [sum(values[t - 1] * mu(d // t) for t in divisors(d))
            for d in range(1, len(values) + 1)]


@PROPERTY
@given(st.lists(RATIONALS, min_size=1, max_size=80))
def test_eratosthenes_scaled_matches_definition(vals):
    want = eratosthenes_by_definition([Fraction(v) for v in vals])
    for source in (ArithmeticFunction.table(vals), lambda n: vals[n - 1]):
        got = eratosthenes(source, len(vals))
        # an integer array when every value is integral, else an ExactList
        assert isinstance(got, np.ndarray if all(v.denominator == 1 for v in want)
                          else ExactList)
        got = got.tolist()
        assert got == want
        # ints where the value's denominator is 1, Fractions otherwise
        assert [type(v) for v in got] == [
            int if v.denominator == 1 else Fraction for v in want]


@PROPERTY
@given(st.lists(RATIONALS, min_size=1, max_size=60))
def test_eratosthenes_shape_follows_the_values(vals):
    # a table, a callable and a t.d.s. with the values vals give one table
    n = len(vals)
    fprime = eratosthenes_by_definition([Fraction(v) for v in vals])
    tds = ArithmeticFunction.from_tds(TruncatedDivisorSum(n, fprime))
    got = [eratosthenes(source, n)
           for source in (ArithmeticFunction.table(vals), lambda m: vals[m - 1], tds)]
    assert len({type(tr) for tr in got}) == 1
    assert len({value_kind(tr) for tr in got}) == 1
    assert all(tr.tolist() == fprime for tr in got)


def test_eratosthenes_zero_floats_stay_exact():
    got = eratosthenes(lambda n: [0.0, Fraction(1, 2), 3][n - 1], 3)
    assert got == [0, Fraction(1, 2), 3]
    assert [type(v) for v in got] == [int, Fraction, int]


def test_eratosthenes_float_tables_stay_float():
    got = eratosthenes(lambda n: 1.0 / n, 60)
    want = eratosthenes_by_definition([1.0 / n for n in range(1, 61)])
    assert got.dtype == np.float64
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    lam = eratosthenes(ArithmeticFunction.builtin("vonMangoldt"), 60)
    assert lam.dtype == np.float64
    assert np.allclose([float(v) for v in lam], eratosthenes_by_definition(
        [float(v) for v in ArithmeticFunction.builtin("vonMangoldt").eval_range(60)]),
        rtol=0, atol=1e-12)


def test_float_table_transform_and_wintner_partial_are_floats():
    ft = eratosthenes(ArithmeticFunction.table([0.5, 0.1, 0.3], after="zero"), 3)
    assert ft.tolist() == [0.5, 0.1 - 0.5, 0.3 - 0.5]
    assert ft.dtype == np.float64 and type(ft.item(1)) is float
    partial, tail = wintner_coefficient(ft, 1, 3)
    assert type(partial) is float and tail is None
    assert partial == float(np.sum([0.5, (0.1 - 0.5) / 2, (0.3 - 0.5) / 3]))


def test_eratosthenes_domain_error():
    f = ArithmeticFunction.table([1, 2, 3], after="error")
    with pytest.raises(IndexError):
        eratosthenes(f, 10)


def test_wintner_delta():
    fp = [1] + [0] * 99
    for q in (1, 2, 7):
        partial, tail = wintner_coefficient(fp, q, 100)
        assert partial == (1 if q == 1 else 0)
        assert tail is None


def test_wintner_inverse_square_reference():
    cut = 10 ** 4
    fp = [Fraction(1, d * d) for d in range(1, cut + 1)]
    partial, tail = wintner_coefficient(fp, 2, cut, decay_hint=(1.0, 2.0))
    # high-cut direct summation oracle for 2^-3 * zeta(3)
    m = np.arange(1, 10 ** 7 + 1, dtype=np.float64)
    reference = float(((2 * m) ** -3.0).sum())
    assert abs(float(partial) - reference) < 1e-8
    assert tail is not None and tail > 0
    # the tail bound must dominate the actual remainder
    actual_tail = reference - float(partial)
    assert actual_tail <= tail


@pytest.mark.parametrize("hint", [(1.0, 0.0), (1.0, -1.0), (-1.0, 2.0), (1.0, float("nan"))])
def test_decay_hint_that_bounds_nothing_is_refused(hint):
    fp = [Fraction(1, d * d) for d in range(1, 101)]
    with pytest.raises(ValueError, match="decay hint"):
        transforms.decay_tail_bound(hint, 2, 100)
    with pytest.raises(ValueError, match="decay hint"):
        wintner_coefficient(fp, 2, 100, decay_hint=hint)


def test_decay_tail_bound_is_none_without_a_hint_or_past_the_cut():
    assert transforms.decay_tail_bound(None, 2, 100) is None
    assert transforms.decay_tail_bound((1.0, 2.0), 101, 100) is None
    assert transforms.decay_tail_bound((0.0, 2.0), 2, 100) == 0.0


@PROPERTY
@given(st.lists(RATIONALS, min_size=1, max_size=60))
@example([Fraction(1, d) for d in range(1, 201)])
def test_wintner_table_matches_single(fp):
    # every q, among them cut//2, the last with a multiple besides itself, and
    # cut//2 + 1, the first that keeps its one term
    cut = len(fp)
    nums, den = wintner_scaled_table(fp, cut)
    want = [sum((Fraction(fp[d - 1]) / d for d in range(q, cut + 1, q)), Fraction(0))
            for q in range(1, cut + 1)]
    assert [Fraction(n, den) for n in nums] == want
    assert gcd(den, *nums) == 1      # the pair is canonical as it stands
    assert list(tds_to_fre(TruncatedDivisorSum(cut, fp)).fhat) == want


@PROPERTY
@given(st.lists(RATIONALS, min_size=1, max_size=60), st.integers(1, 60))
def test_wintner_coefficient_is_the_exact_sum(fp, q):
    cut = len(fp)
    q = min(q, cut)
    partial, _ = wintner_coefficient(fp, q, cut)
    assert partial == sum((Fraction(fp[d - 1]) / d for d in range(q, cut + 1, q)), Fraction(0))
    assert partial == tds_to_fre(TruncatedDivisorSum(cut, fp)).fhat[q - 1]


@PROPERTY
@given(st.lists(RATIONALS, min_size=1, max_size=60) |
       st.lists(st.just(0), min_size=1, max_size=60),
       st.integers(1, 70), st.data())
@example(fp=[0] * 9, q=4, data=None)
@example(fp=[Fraction(1, 2), 3, Fraction(-2, 7)], q=5, data=None)
def test_wintner_partials_are_the_exact_sums(fp, q, data):
    # grid points below q give the empty sum; zero and integral F' stay exact
    xs = (sorted(data.draw(st.lists(st.integers(1, len(fp)), min_size=1, unique=True)))
          if data is not None else list(range(1, len(fp) + 1)))
    got = wintner_partials(fp, q, xs)
    assert got == [sum((Fraction(fp[d - 1]) / d for d in range(q, x + 1, q)), Fraction(0))
                   for x in xs]
    assert all(type(w) is Fraction for w in got)


def padded_wintner_cumsum(fpv, q: int) -> np.ndarray:
    """The float Wintner partials W_q(x), x = 1..len(fpv), as one cumsum over
    a term array that holds zeros off the multiples of q: the reference the
    float route of `wintner_partials` matches bit for bit."""
    xmax = len(fpv)
    d = np.arange(1, xmax + 1, dtype=np.float64)
    win_terms = np.zeros(xmax + 1)
    win_terms[q::q] = fpv[q - 1:: q] / d[q - 1:: q]
    return np.cumsum(win_terms[1:])


@pytest.mark.parametrize("seed", range(4))
def test_float_wintner_partials_are_the_padded_cumsum_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    fpv = rng.standard_normal(500) * (rng.random(500) < 0.7)
    xs = sorted(rng.choice(np.arange(1, 501), size=8, replace=False).tolist())
    for q in (1, 2, 3, 7, 250, 499):
        ref = padded_wintner_cumsum(fpv, q)
        got = wintner_partials(fpv, q, xs)
        assert [w.hex() for w in got] == [float(ref[x - 1]).hex() for x in xs]
    # and cw_formula_check's right-hand side at the c17 grid
    grid = [10 ** 3, 2 * 10 ** 3, 10 ** 4, 2 * 10 ** 4]
    name = ("one", "d_2", "id", "indicator-squares")[seed]
    f = ArithmeticFunction.builtin(name)
    fpv = np.array(eratosthenes(f, grid[-1]), dtype=np.float64)
    for q in range(1, 6):
        ref = padded_wintner_cumsum(fpv, q)
        rows = cw_formula_check(f, q, grid).rows
        assert [r.rhs.hex() for r in rows] == [float(ref[x - 1]).hex() for x in grid]


def test_wintner_partials_reject_bad_input():
    with pytest.raises(ValueError, match="q >= 1"):
        wintner_partials([1, 2], 0, [2])
    with pytest.raises(ValueError, match="increasing"):
        wintner_partials([1, 2], 1, [2, 1])
    with pytest.raises(IndexError):
        wintner_partials([1, 2], 1, [3])


def test_carmichael_constant_function():
    one = ArithmeticFunction.builtin("one")
    est = carmichael_estimate(one, 1, [100, 1000, 10000])
    assert est.exact == [Fraction(1), Fraction(1), Fraction(1)]
    for q in range(2, 11):
        est = carmichael_estimate(one, q, [1000, 10000, 100000])
        assert abs(est.final) < 0.01


def test_carmichael_past_int64():
    # partial sums 3 * 2**61 * x pass 2**63 at x = 2
    f = ArithmeticFunction.table([3 * 2 ** 61] * 4)
    est = carmichael_estimate(f, 1, [1, 2, 4])
    assert est.exact == [Fraction(3 * 2 ** 61)] * 3
    assert all(e > 0 for e in est.estimates)


def test_carmichael_tds_past_int64():
    # F(n) = 2**62 (n odd) or 2**63 (n even)
    f = ArithmeticFunction.from_tds(TruncatedDivisorSum(2, [2 ** 62, 2 ** 62]))
    est = carmichael_estimate(f, 1, [1, 2, 4])
    assert est.exact == [Fraction(2 ** 62), Fraction(3 * 2 ** 62, 2),
                         Fraction(3 * 2 ** 62, 2)]


def test_carmichael_square_indicator():
    f = ArithmeticFunction.builtin("indicator-squares")
    est = carmichael_estimate(f, 1, [10 ** 4, 10 ** 5, 10 ** 6])
    assert est.final == pytest.approx(10 ** -3, rel=0.1)
    assert est.final < 0.01


def test_carmichael_picks_out_own_modulus():
    # the un-normalized average of c_3^2 tends to c_3(0) = phi(3) = 2; the
    # coefficient carries the extra 1/phi(q), so the estimate tends to 1
    x = 10 ** 5
    vals = [csum(3, n) for n in range(1, x + 1)]
    f = ArithmeticFunction.table(vals)
    est = carmichael_estimate(f, 3, [x // 4, x // 2, x])
    assert abs(est.final * phi(3) - phi(3)) < 0.01
    assert abs(est.final - 1) < 0.01


def test_carmichael_exact_tds_path_matches_int_path():
    # same function represented as t.d.s. and as integer table: identical sums
    t = TruncatedDivisorSum(6, [2, 0, 1, 0, 0, 3])
    f_tds = ArithmeticFunction.from_tds(t)
    f_tab = ArithmeticFunction.table([t.eval(n) for n in range(1, 2001)])
    for q in (1, 2, 5):
        a = carmichael_estimate(f_tds, q, [500, 2000])
        b = carmichael_estimate(f_tab, q, [500, 2000])
        assert a.exact == b.exact


def multiple_sum_brute(q, d, x):
    """sum_{m <= x/d} c_q(dm) term by term; past 3000 terms the whole periods
    of m -> c_q(dm) (length q / gcd(q, d)) are counted, not summed."""
    k, full = x // d, 0
    if k > 3000:
        p = q // gcd(q, d)
        full = k // p * sum(csum_divisor_form(q, d * m) for m in range(1, p + 1))
        k %= p
    return full + sum(csum_divisor_form(q, d * m) for m in range(1, k + 1))


@PROPERTY
@given(fprime=st.lists(st.one_of(st.just(Fraction(0)), RATIONALS),
                       min_size=1, max_size=40),
       q=st.integers(1, 48),
       xs=st.lists(st.integers(1, 3000), min_size=1, max_size=3,
                   unique=True).map(sorted))
@example(fprime=[Fraction(0)] * 7, q=4, xs=[1, 5, 100])          # all-zero F'
@example(fprime=[Fraction(1, 3)] * 40, q=9, xs=[1, 3, 39])       # x < d
@example(fprime=[Fraction(1, 2), 0, Fraction(-3, 4), 5], q=12,   # int64 guard
         xs=[2, 2 ** 62 + 7, 2 ** 64 + 3])
def test_carmichael_rational_tds_matches_brute_force(fprime, q, xs):
    # S(x) = sum_{d<=Q} F'(d) sum_{m<=x/d} c_q(dm), and the estimate is
    # S(x) / (phi(q) x); a rational F' takes the divisor-lattice path, and
    # only the guard example's x >= 2**62 needs Python ints there
    f = ArithmeticFunction.from_tds(TruncatedDivisorSum(len(fprime), fprime))
    est = carmichael_estimate(f, q, xs)
    for x, got in zip(xs, est.exact):
        inner = [multiple_sum_brute(q, d, x) for d in range(1, len(fprime) + 1)]
        t = csum_multiple_sums(q, len(fprime), x)
        assert (t.dtype == object) == (x >= 2 ** 62)
        assert [int(v) for v in t[1:]] == inner
        s = sum((v * i for v, i in zip(fprime, inner)), Fraction(0))
        assert got == s / (phi(q) * x)


def test_carmichael_grid_validation():
    one = ArithmeticFunction.builtin("one")
    with pytest.raises(ValueError):
        carmichael_estimate(one, 1, [])
    with pytest.raises(ValueError):
        carmichael_estimate(one, 1, [100, 100])
    with pytest.raises(ValueError):
        carmichael_estimate(one, 1, [0, 100])


def test_condition_verdicts():
    fp_sq = [Fraction(1, d * d) for d in range(1, 10 ** 4 + 1)]
    assert condition_check("DH", fp_sq, 10 ** 4).verdict == "satisfied-at-cut"
    fp_log = [1.0 / np.log(d + 1.0) for d in range(1, 10 ** 5 + 1)]
    assert condition_check("SD", fp_log, 10 ** 5).verdict == "satisfied-at-cut"
    assert condition_check("WA", fp_log, 10 ** 5).verdict == "violated-at-cut"
    assert condition_check("SD", [1] * 10 ** 4, 10 ** 4).verdict == "violated-at-cut"
    with pytest.raises(ValueError):
        condition_check("XX", fp_sq, 100)


def test_condition_partials_monotone():
    fp = [Fraction(1, d) for d in range(1, 5001)]
    for kind in ("WA", "DH"):
        rep = condition_check(kind, fp, 5000)
        vals = [v for _, v in rep.trend]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
    e = FiniteExpansion(2000, [Fraction(1, q * q) for q in range(1, 2001)])
    rep = condition_check("DD7", e.fhat, 2000)
    vals = [v for _, v in rep.trend]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_cw_formula_one():
    one = ArithmeticFunction.builtin("one")
    rep = cw_formula_check(one, 1, [100, 1000, 10000])
    assert rep.max_ratio == 0.0          # exact identity at q = 1
    rep2 = cw_formula_check(one, 3, [100, 1000, 10000])
    assert rep2.max_ratio <= 3.0


def test_cw_formula_d2_bounded():
    rep = cw_formula_check(ArithmeticFunction.builtin("d_2"), 2,
                           [10 ** 3, 10 ** 4, 10 ** 5])
    assert all(r.ratio is not None for r in rep.rows)
    assert rep.max_ratio <= 50


def test_cw_formula_squares():
    rep = cw_formula_check(ArithmeticFunction.builtin("indicator-squares"), 1,
                           [10 ** 3, 10 ** 4])
    assert all(r.ratio is not None and np.isfinite(r.ratio) for r in rep.rows)


def test_nonneg_bound_squares_and_zero():
    f = ArithmeticFunction.builtin("indicator-squares")
    rep = nonneg_carmichael_bound(f, [10 ** 3, 10 ** 4], qmax=8)
    assert rep.ok
    z = ArithmeticFunction.table([0] * 100)
    rep0 = nonneg_carmichael_bound(z, [50, 100], qmax=4)
    assert rep0.ok and all(r[2] == 0 and r[3] == 0 for r in rep0.rows)
    # constant function: |avg . c_q| / phi(q) <= avg reads as |S_q| <= phi(q) x
    one = ArithmeticFunction.builtin("one")
    rep1 = nonneg_carmichael_bound(one, [100, 1000], qmax=6)
    assert rep1.ok
    for q, x, lhs, rhs in rep1.rows:
        assert lhs <= phi(q) * x


@pytest.mark.parametrize("f", [
    ArithmeticFunction.builtin("indicator-squares"),
    ArithmeticFunction.from_tds(TruncatedDivisorSum(
        12, [Fraction(d % 5, d) for d in range(1, 13)]))],
    ids=["integer builtin", "rational tds"])
def test_nonneg_bound_rows_match_per_q_sums(f, monkeypatch):
    xs, qmax = [500, 2000, 7001], 10
    calls = []
    real = ArithmeticFunction.eval_range

    def counting(self, nmax):
        calls.append(nmax)
        return real(self, nmax)

    monkeypatch.setattr(ArithmeticFunction, "eval_range", counting)
    rep = nonneg_carmichael_bound(f, xs, qmax=qmax)
    assert calls == [xs[-1]]              # F evaluated once for every q
    s1 = _csum_weighted_sums(f, [1], xs)[0]
    want = []
    for q in range(1, qmax + 1):
        sq = _csum_weighted_sums(f, [q], xs)[0]
        want += [(q, x, abs(s), phi(q) * t) for x, s, t in zip(xs, sq, s1)]
    assert rep.rows == want and rep.ok


def test_nonneg_bound_scans_the_weights_once(monkeypatch):
    # c18's shape: moduli 1..10 (lcm 2520) over a grid to 10**5 share one
    # kernel call, whose int64 guard reads the weight array once
    xs = [10 ** 3, 10 ** 4, 10 ** 5]
    guarded, calls = [], []
    real_fits, real_kernel = kernels._int64_fits, kernels.periodic_sums

    def counting_fits(length, *arrays):
        guarded.extend(a.size for a in arrays)
        return real_fits(length, *arrays)

    def counting_kernel(w, tabs, xs):
        calls.append(len(tabs))
        return real_kernel(w, tabs, xs)

    monkeypatch.setattr(kernels, "_int64_fits", counting_fits)
    monkeypatch.setattr(kernels, "periodic_sums", counting_kernel)
    rep = nonneg_carmichael_bound(ArithmeticFunction.builtin("indicator-squares"), xs, qmax=10)
    assert rep.ok and calls == [10]
    assert [n for n in guarded if n >= xs[-1]] == [xs[-1]]


def _c(q, n):
    """c_q(n) = sum_{d | gcd(q, n)} d mu(q/d), by its divisor form."""
    return sum(d * mu(q // d) for d in divisors(gcd(q, n)))


@pytest.mark.parametrize("qs, xs, calls", [
    (range(1, 13), [27725], 1),              # lcm 27720 <= xs[-1]: one shared call
    (range(1, 13), [700, 9000, 27725], 12),  # 3 * 27720 > xs[-1]: one call per q
    (range(1, 21), [4001, 6000], 20)],       # lcm 232792560: one call per q
    ids=["1..12 shared", "1..12 per q", "1..20 per q"])
def test_carmichael_sums_match_brute_force(qs, xs, calls, monkeypatch):
    rng = random.Random(xs[-1])
    w = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(xs[-1])]
    seen = []
    real = kernels.periodic_sums

    def counting(w, tabs, xs):
        seen.append(len(tabs))
        return real(w, tabs, xs)

    monkeypatch.setattr(kernels, "periodic_sums", counting)
    got = transforms.carmichael_sums(w, 7, qs, xs)
    assert len(seen) == calls and sum(seen) == len(qs)
    for q, row in zip(qs, got):
        cq = {g: _c(q, g) for g in divisors(q)}
        partial = [0, *accumulate(w[n - 1] * cq[gcd(q, n)] for n in range(1, xs[-1] + 1))]
        assert row == [Fraction(partial[x], 7) for x in xs]


def test_nonneg_bound_rejects_float_function():
    with pytest.raises(ValueError, match="exact"):
        nonneg_carmichael_bound(ArithmeticFunction.builtin("vonMangoldt"), [100])


def test_nonneg_bound_rejects_negative():
    f = ArithmeticFunction.table([1, -2, 3])
    with pytest.raises(ValueError, match="F\\(2\\)"):
        nonneg_carmichael_bound(f, [3])


@PROPERTY
@given(st.lists(RATIONALS, min_size=1, max_size=64))
def test_wintner_inverse_undoes_the_scaled_table(vals):
    assert canonical(*wintner_inverse(*wintner_scaled_table(vals, len(vals)))) == scale(vals)


@PROPERTY
@given(st.lists(RATIONALS, min_size=2, max_size=64), st.data())
def test_partials_above_q_invert_to_the_tail(vals, data):
    # F'(d)/d = sum_K mu(K) P(dK) reads only partials above q_cut for d > q_cut
    q_cut = data.draw(st.integers(1, len(vals) - 1))
    nums, den = wintner_scaled_table(vals, len(vals))
    back, den = wintner_inverse([0] * q_cut + list(nums[q_cut:]), den)
    assert [Fraction(n, den) for n in back[q_cut:]] == vals[q_cut:]


def test_conjecture1_check_catches_a_broken_inverse(monkeypatch, capsys):
    inverse = transforms.wintner_inverse

    def without_k2(nums, den):
        # drop the K = 2 term mu(2) fhat(2d) = -fhat(2d) of every fprime(d)
        fprime, den = inverse(nums, den)
        return [v + d * nums[2 * d - 1] if 2 * d <= len(nums) else v
                for d, v in enumerate(fprime, start=1)], den

    monkeypatch.setattr(transforms, "wintner_inverse", without_k2)
    for q_cut in range(2, 9):
        rep = vanishing_tail_search("free", q_cut, 32)
        assert rep.candidates and rep.nullspace_dim is None
        assert rep.verdict == "counterexample-candidate-found"
    for family in ("completely-multiplicative", "nonnegative"):
        rep = vanishing_tail_search(family, 2, 32, trials=10, seed=5)
        assert rep.faults and rep.verdict == "counterexample-candidate-found"
    for family in ("free", "completely-multiplicative", "nonnegative"):
        assert main(["conjecture1", "--family", family, "--Q", "2", "--D", "16",
                     "--trials", "10"]) == 1


def test_free_family_search_trivial():
    # unknowns fprime(3), fprime(4); equations fprime(3)/3 = fprime(4)/4 = 0
    rep = vanishing_tail_search("free", 2, 4)
    assert rep.nullspace_dim == 0 and rep.trials == 2
    assert rep.candidates == [] and rep.verdict == "no-counterexample"
    for q_cut in range(2, 9):
        rep = vanishing_tail_search("free", q_cut, 32)
        assert rep.nullspace_dim == 0


def test_constrained_family_searches():
    for family in ("completely-multiplicative", "nonnegative"):
        rep = vanishing_tail_search(family, 3, 24, trials=20, seed=5)
        assert rep.faults == [] and rep.verdict == "no-counterexample"
    with pytest.raises(ValueError):
        vanishing_tail_search("weird", 2, 4)
    with pytest.raises(ValueError):
        vanishing_tail_search("free", 4, 4)
