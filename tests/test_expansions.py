"""Expansion evaluation, reconstruction, and coefficient formulas."""

import math
from operator import mul
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from rlab import expansions, experiments, kernels
from rlab.arith import ArithmeticFunction, divisors, factor, mu, phi
from rlab.expansions import (ZeroCloudElement, divisor_power_coefficient,
                             dk_local_series, evaluate_partial, invert_pure_coefficients,
                             lucht_evaluate, standard_finite_expansion,
                             wintner_delange_reconstruct, wintner_delange_table,
                             zero_cloud_partial)
from rlab.finite import FiniteExpansion, TruncatedDivisorSum, fre_to_tds, tds_to_fre
from rlab.rational import ExactList, scale
from rlab.ramanujan import cross_sum, csum
from rlab.transforms import carmichael_estimate, eratosthenes
from conftest import PROPERTY, RATIONALS, rand_table


def test_evaluate_partial_zero_and_finite():
    zero = FiniteExpansion(3, [0, 0, 0])
    assert evaluate_partial(zero, 5, 3) == 0
    e = FiniteExpansion(2, [Fraction(3, 2), Fraction(1, 2)])
    assert evaluate_partial(e, 2, 2) == 2


@PROPERTY
@given(fhat=st.lists(RATIONALS, min_size=1, max_size=48), n=st.integers(1, 200),
       data=st.data())
def test_evaluate_partial_is_the_truncated_sum(fhat, n, data):
    # q_cut below, at and above Q: terms past Q vanish
    q = len(fhat)
    q_cut = data.draw(st.one_of(st.integers(0, q - 1), st.just(q),
                                st.integers(q + 1, 2 * q + 8)))
    want = sum((fhat[k - 1] * csum(k, n) for k in range(1, min(q_cut, q) + 1)),
               Fraction(0))
    assert evaluate_partial(FiniteExpansion(q, fhat), n, q_cut) == want
    assert evaluate_partial(fhat, n, q_cut) == want


@pytest.mark.parametrize("call", [
    lambda fhat: evaluate_partial(fhat, 3, 2),
    lambda fhat: lucht_evaluate(fhat, 3, 2),
    invert_pure_coefficients,
])
def test_finite_readers_refuse_a_float_list(call):
    # a float list is not an exact expansion: refused, not made a Fraction
    with pytest.raises(ValueError, match="not floats"):
        call([0.5, 0.25])


def test_evaluate_partial_mertens_like():
    # coefficients 1/q against n = 1 collapse to sum of mu(q)/q
    val = zero_cloud_partial(1, 0, 1, 10 ** 4)
    direct = float(sum(Fraction(mu(q), q) for q in range(1, 2001)))
    small = zero_cloud_partial(1, 0, 1, 2000)
    assert small == pytest.approx(direct, abs=1e-9)
    assert abs(val) < 0.01


def test_zero_cloud_trend():
    for alpha, beta in ((1, 0), (0, 1), (1, 1)):
        for n in range(1, 11):
            lo = zero_cloud_partial(alpha, beta, n, 100)
            hi = zero_cloud_partial(alpha, beta, n, 10 ** 6)
            assert abs(hi) < abs(lo), (alpha, beta, n)


def test_zero_cloud_weights_are_built_once_and_read_as_prefixes():
    # cuts that grow and shrink: every read is a read-only view of the one
    # held vector, bit-identical to a fresh element's, and so is each partial
    el = ZeroCloudElement(Fraction(1, 3), -2)
    for cut in (100, 10 ** 4, 7, 10 ** 4, 100, 1):
        w = el.float_weights(cut)
        assert w.base is el._weights and not w.flags.writeable
        fresh = ZeroCloudElement(Fraction(1, 3), -2).float_weights(cut)
        assert w.shape == (cut + 1,) and w.tobytes() == fresh.tobytes()
        for n in (1, 6, 12):
            assert evaluate_partial(el, n, cut) == zero_cloud_partial(Fraction(1, 3), -2, n, cut)
    assert len(el._weights) == 10 ** 4 + 1
    assert el == ZeroCloudElement(Fraction(1, 3), -2)


def test_blend_linearity():
    e1 = [Fraction(1), Fraction(1, 2), Fraction(0), Fraction(2)]
    e2 = [Fraction(-1), Fraction(1, 3), Fraction(5), Fraction(0)]
    for lam in (Fraction(0), Fraction(1, 2), Fraction(1)):
        blend = [lam * a + (1 - lam) * b for a, b in zip(e1, e2)]
        for n in (1, 2, 3, 10):
            got = evaluate_partial(FiniteExpansion(4, blend), n, 4)
            want = lam * evaluate_partial(FiniteExpansion(4, e1), n, 4) \
                + (1 - lam) * evaluate_partial(FiniteExpansion(4, e2), n, 4)
            assert got == want


def test_zero_cloud_coefficients_exact():
    el = ZeroCloudElement(1, 0)
    assert el.coefficient(4) == Fraction(1, 4)
    el2 = ZeroCloudElement(0, 1)
    assert el2.coefficient(4) == Fraction(1, 2)


def test_wd_reconstruct_constant():
    one = ArithmeticFunction.builtin("one")
    for cut in (1, 5, 50):
        rec = wintner_delange_reconstruct(one, 7, cut)
        assert rec.value == 1 and rec.gap == 0


def test_wd_reconstruct_double_sum_oracle(rng):
    # independent oracle: assemble the double sum term by term
    cut = 40
    t = TruncatedDivisorSum(cut, rand_table(rng, cut))
    f = ArithmeticFunction.from_tds(t)
    for n in (1, 6, 17):
        rec = wintner_delange_reconstruct(f, n, cut)
        brute = Fraction(0)
        for l in range(1, cut + 1):
            win = sum(Fraction(t.fprime[d - 1], d)
                      for d in range(l, cut + 1, l))
            brute += win * csum(l, n)
        assert rec.value == brute
        assert rec.value == Fraction(f(n))   # finite support inside the cut


@PROPERTY
@given(st.lists(st.integers(-10 ** 40, 10 ** 40), min_size=1, max_size=120),
       st.integers(1, 10 ** 12), st.integers(1, 400))
def test_wd_grouped_sum_is_the_plain_dot(nums, den, n):
    # the table need not come from a function: the grouped sum over the runs
    # of equal c_l(n) is the plain dot sum_l w_l c_l(n) for any integers w
    cut = len(nums)
    row = kernels.csum_row(n, cut)[1:].tolist()
    rec = wintner_delange_reconstruct(ArithmeticFunction.builtin("one"), n, cut,
                                      table=(nums, den))
    assert rec.value == Fraction(sum(w * c for w, c in zip(nums, row)), den)
    assert rec.reference == 1


def test_wd_reconstruct_inverse_square():
    cut = 1000
    t = TruncatedDivisorSum(cut, [Fraction(1, d * d) for d in range(1, cut + 1)])
    f = ArithmeticFunction.from_tds(t)
    rec = wintner_delange_reconstruct(f, 6, cut)
    want = sum(Fraction(1, d * d) for d in divisors(6))
    assert rec.reference == want
    assert rec.gap == 0


def test_lucht_hand_cases():
    # coefficients 1/q at a = 1: both sides collapse to sum of mu(K)/K
    fhat = [Fraction(1, q) for q in range(1, 101)]
    lhs, rhs = lucht_evaluate(fhat, 1, 100)
    assert lhs == rhs == sum(Fraction(mu(k), k) for k in range(1, 101))
    # finite support {1, 2} at a = 2, cut 2
    fhat2 = [Fraction(5), Fraction(7)]
    lhs2, rhs2 = lucht_evaluate(fhat2, 2, 2)
    assert lhs2 == rhs2 == Fraction(12)
    lhs3, rhs3 = lucht_evaluate([0, 0, 0], 5, 3)
    assert lhs3 == rhs3 == 0


def test_lucht_randomized(rng):
    for _ in range(40):
        support = rng.randint(1, 128)
        fhat = rand_table(rng, support)
        a = rng.randint(1, 64)
        cut = rng.randint(1, support)
        lhs, rhs = lucht_evaluate(fhat, a, cut)
        assert lhs == rhs


@PROPERTY
@given(fhat=st.lists(RATIONALS, min_size=1, max_size=64), a=st.integers(1, 64),
       data=st.data())
def test_lucht_identity_property(fhat, a, data):
    cut = data.draw(st.integers(0, len(fhat)))
    lhs, rhs = lucht_evaluate(fhat, a, cut)
    assert lhs == rhs == sum((fhat[q - 1] * csum(q, a) for q in range(1, cut + 1)),
                             Fraction(0))


def test_invert_pure_hand_cases():
    inv = invert_pure_coefficients([1])
    assert inv.fprime == [1] and inv.win_check
    inv2 = invert_pure_coefficients([Fraction(3, 2), Fraction(1, 2)])
    assert inv2.fprime == [1, 1] and inv2.win_check


def test_invert_pure_roundtrip(rng):
    for _ in range(40):
        q = rng.randint(1, 64)
        fhat = rand_table(rng, q)
        inv = invert_pure_coefficients(fhat)
        assert inv.win_check


def test_invert_pure_needs_finite_support():
    with pytest.raises(ValueError):
        invert_pure_coefficients(lambda q: Fraction(1, q))


def cross_sum_route(e: FiniteExpansion, l: int, xs: list) -> list:
    """S_l(x) = sum_{h<=x} F(h) c_l(h) of a pure finite expansion through its
    coefficients: sum_q fhat(q) sum_{h<=x} c_q(h) c_l(h), one exact cross sum
    per q, a route independent of the t.d.s. the library sums."""
    nums, den = e.scaled
    inner = [cross_sum(q, l, 0, xs) for q in range(1, e.range + 1)]
    return [Fraction(sum(map(mul, nums, col)), den) for col in zip(*inner)]


@PROPERTY
@given(st.lists(RATIONALS, min_size=1, max_size=12), st.integers(1, 14),
       st.lists(st.integers(1, 400), min_size=1, max_size=4, unique=True))
@example(fhat=[1, -2, 0, 3], l=2, xs=[10, 37, 400])     # an integer t.d.s.
@example(fhat=[0, 0], l=1, xs=[5])
def test_carmichael_formula_check_is_the_cross_sum_route(fhat, l, xs):
    xs = sorted(xs)
    # Carmichael's formula for e reads the t.d.s. dual to it
    e = FiniteExpansion(len(fhat), fhat)
    est = carmichael_estimate(ArithmeticFunction.from_tds(fre_to_tds(e)), l, xs)
    assert est.exact == [s / (phi(l) * x) for s, x in zip(cross_sum_route(e, l, xs), xs)]


def test_carmichael_formula_constant():
    f = ArithmeticFunction.from_tds(fre_to_tds(FiniteExpansion(1, [1])))
    est = carmichael_estimate(f, 1, [10, 100, 1000])
    assert est.exact == [Fraction(1)] * 3


def test_carmichael_formula_finite():
    e = FiniteExpansion(2, [Fraction(3, 2), Fraction(1, 2)])
    f = ArithmeticFunction.from_tds(fre_to_tds(e))
    est = carmichael_estimate(f, 2, [25000, 50000, 100000])
    assert abs(est.final - 0.5) < 1e-2
    est3 = carmichael_estimate(f, 3, [25000, 50000, 100000])
    assert abs(est3.final) < 1e-2       # past the support the estimate dies


def test_standard_fre_point_one():
    f = ArithmeticFunction.table([Fraction(7, 3)])
    s = standard_finite_expansion(f, 1)
    assert s.coefficients == [Fraction(7, 3)]
    assert s.reconstruction == Fraction(7, 3)


def test_standard_fre_d2():
    s = standard_finite_expansion(ArithmeticFunction.builtin("d_2"), 6)
    assert s.reconstruction == 4


def test_standard_fre_randomized(rng):
    for _ in range(30):
        length = rng.randint(1, 200)
        f = ArithmeticFunction.table(rand_table(rng, length), after="zero")
        n = rng.randint(1, length)
        s = standard_finite_expansion(f, n)
        assert s.reconstruction == Fraction(f(n))


BUILTINS = ("one", "id", "mu", "phi", "lambda", "indicator-squares", "d_2", "d_3")


@st.composite
def exact_functions(draw):
    """A rational table, an integer builtin or a t.d.s. (rational or integer)."""
    kind = draw(st.sampled_from(("table", "builtin", "tds", "int-tds")))
    if kind == "table":
        return ArithmeticFunction.table(draw(st.lists(RATIONALS, max_size=64)))
    if kind == "builtin":
        return ArithmeticFunction.builtin(draw(st.sampled_from(BUILTINS)))
    entries = RATIONALS if kind == "tds" else st.integers(-9, 9)
    fprime = draw(st.lists(entries, min_size=1, max_size=24))
    return ArithmeticFunction.from_tds(TruncatedDivisorSum(len(fprime), fprime))


@PROPERTY
@given(f=exact_functions(), n=st.integers(1, 120))
def test_standard_fre_is_the_wintner_table_at_n(f, n):
    s = standard_finite_expansion(f, n)
    assert s.n == n
    assert s.coefficients == tds_to_fre(TruncatedDivisorSum(n, eratosthenes(f, n))).fhat
    assert s.reconstruction == Fraction(f(n))


# point sequences that grow and shrink, so later calls rebuild the held terms
POINTS = st.lists(st.integers(1, 90), min_size=2, max_size=8)


@PROPERTY
@given(f=exact_functions(), ns=POINTS)
def test_standard_fre_reconstruction_builds_no_coefficient_list(f, ns):
    for n in ns:
        s = standard_finite_expansion(f, n)
        assert s.reconstruction == Fraction(f(n))
        assert "coefficients" not in vars(s)


@PROPERTY
@given(f=exact_functions(), ns=POINTS)
def test_standard_fre_coefficients_read_late_are_the_wintner_table(f, ns):
    # every list is read only after the last call has rebuilt the held terms
    held = [standard_finite_expansion(f, n) for n in ns]
    for n, s in zip(ns, held):
        assert s.coefficients == tds_to_fre(TruncatedDivisorSum(n, eratosthenes(f, n))).fhat


@PROPERTY
@given(f=exact_functions(), ns=POINTS)
def test_standard_fre_holds_the_canonical_pair_of_its_coefficients(f, ns):
    # a plain callable builds its terms to n alone; f's may reach past n
    for n in ns:
        s, plain = standard_finite_expansion(f, n), standard_finite_expansion(lambda k: f(k), n)
        assert s == plain and repr(s) == repr(plain)
        assert s.scaled == scale(s.coefficients) == plain.scaled


def test_standard_fre_refuses_bad_input():
    with pytest.raises(ValueError, match="exact function"):
        standard_finite_expansion(ArithmeticFunction.builtin("vonMangoldt"), 6)
    with pytest.raises(ValueError, match="exact function"):
        standard_finite_expansion(ArithmeticFunction.table([1, 0.5]), 1)
    with pytest.raises(ValueError, match="exact function"):
        standard_finite_expansion(lambda k: 0.5, 3)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n >= 1"):
            standard_finite_expansion(ArithmeticFunction.builtin("one"), n)


def test_wintner_delange_refuses_a_float_function():
    vm = ArithmeticFunction.builtin("vonMangoldt")
    for call in (lambda: wintner_delange_table(vm, 100),
                 lambda: wintner_delange_reconstruct(vm, 6, 100),
                 lambda: wintner_delange_table(ArithmeticFunction.table([1, 0.5]), 2)):
        with pytest.raises(ValueError, match="Wintner table needs an exact function"):
            call()


@st.composite
def function_makers(draw):
    """A zero-argument maker of one exact function, so that a fresh equal
    copy is always at hand: a rational or integer table with either `after`
    policy, a rational t.d.s. or a builtin."""
    kind = draw(st.sampled_from(("rational", "int", "tds", "builtin")))
    if kind in ("rational", "int"):
        entries = RATIONALS if kind == "rational" else st.integers(-9, 9)
        values = draw(st.lists(entries, max_size=40))
        after = draw(st.sampled_from(("zero", "error")))
        return lambda: ArithmeticFunction.table(values, after=after)
    if kind == "tds":
        fprime = draw(st.lists(RATIONALS, min_size=1, max_size=24))
        return lambda: ArithmeticFunction.from_tds(TruncatedDivisorSum(len(fprime), fprime))
    name = draw(st.sampled_from(BUILTINS))
    return lambda: ArithmeticFunction.builtin(name)


@PROPERTY
@given(make=function_makers(), data=st.data())
def test_standard_fre_held_terms_equal_a_fresh_build(make, data):
    # points interleave growing and shrinking on both sides of a table's end;
    # the held state grows in place, so in whatever order the points come,
    # each result and the held state itself equal a fresh function's
    f = make()
    size = len(f.values) if f.kind == "table" else 24
    inside, past = st.integers(1, max(size, 1)), st.integers(size + 1, size + 40)
    ns = data.draw(st.lists(st.one_of(inside, past), min_size=2, max_size=8))
    for n in ns:
        fresh = make()
        try:
            want = standard_finite_expansion(fresh, n)
        except IndexError:      # past an after="error" table
            with pytest.raises(IndexError):
                standard_finite_expansion(f, n)
            continue
        got = standard_finite_expansion(f, n)
        assert got == want and got.scaled == want.scaled
        assert got.coefficients == want.coefficients
        assert got.reconstruction == want.reconstruction == Fraction(f(n))
        plain = standard_finite_expansion(lambda k: fresh(k), n)
        assert got.coefficients == plain.coefficients
        assert f.wintner_terms.bound >= n
    if f.wintner_terms is not None:
        fresh = make()
        standard_finite_expansion(fresh, f.wintner_terms.bound)
        assert fresh.wintner_terms == f.wintner_terms


def test_standard_fre_reduces_each_term_once_and_its_pair_on_first_read(monkeypatch):
    # work gate: over points that rise, then fall, on one table, each term
    # fprime(d)/d is reduced once, and no call divides its pair by the
    # common gcd; the first read of `scaled` does, once
    reduced, reductions = [], []
    reduce_terms, reduce_pair = expansions.reduced_terms, expansions.canonical

    def counted_terms(vals, ds, den=1):
        reduced.extend(ds)
        return reduce_terms(vals, ds, den)

    def counted_pair(nums, den):
        reductions.append(len(nums))
        return reduce_pair(nums, den)
    monkeypatch.setattr(expansions, "reduced_terms", counted_terms)
    monkeypatch.setattr(expansions, "canonical", counted_pair)
    f = ArithmeticFunction.table(rand_table(random.Random(7), 200), after="zero")
    made = [standard_finite_expansion(f, n)
            for n in (1, 3, 9, 20, 57, 130, 200, 150, 64, 5, 1)]
    assert sorted(reduced) == list(range(1, 201))
    assert reductions == []
    s = made[4]
    pair = s.scaled
    assert reductions == [57]
    assert s.scaled is pair and s.coefficients == tds_to_fre(
        TruncatedDivisorSum(57, eratosthenes(f, 57))).fhat
    assert reductions == [57] and pair == scale(s.coefficients)


def _count_builds(monkeypatch):
    calls = []
    transform = kernels.mobius_transform_int

    def counted(c):
        calls.append(len(c) - 1)
        return transform(c)
    monkeypatch.setattr(kernels, "mobius_transform_int", counted)
    return calls


def test_standard_fre_experiment_builds_no_coefficient_list(monkeypatch):
    # work gate: c08 compares reconstructions only, so no run of it builds a
    # coefficient list, by ExactList.over or otherwise
    over, built, made = ExactList.over, [], []

    def counted(cls, nums, den):
        built.append(len(nums))
        return over(nums, den)

    def recorded(f, n):
        made.append(standard_finite_expansion(f, n))
        return made[-1]
    monkeypatch.setattr(ExactList, "over", classmethod(counted))
    monkeypatch.setattr(experiments, "standard_finite_expansion", recorded)
    result = experiments.run_experiment(experiments.ExperimentConfig(name="standard-fre"))
    assert [o["status"] for o in result.outcomes] == ["pass"]
    assert made and built == []
    assert not any("coefficients" in vars(s) for s in made)


def test_standard_fre_builds_at_n_then_doubles_within_a_table(monkeypatch):
    builds = _count_builds(monkeypatch)
    f = ArithmeticFunction.table(rand_table(random.Random(5), 10), after="zero")
    for n in (1, 2, 3, 5, 4, 7, 10, 1):
        standard_finite_expansion(f, n)
    assert builds == [1, 2, 4, 8, 10] and f.wintner_terms[0] == 10
    standard_finite_expansion(f, 12)
    standard_finite_expansion(f, 7)
    assert builds == [1, 2, 4, 8, 10, 12]
    g = ArithmeticFunction.builtin("phi")
    for n in (4, 5, 8, 6, 9, 30):
        standard_finite_expansion(g, n)
    assert builds == [1, 2, 4, 8, 10, 12, 4, 8, 16, 32]


def test_standard_fre_small_point_on_a_long_table_builds_n_terms(monkeypatch):
    builds = _count_builds(monkeypatch)
    f = ArithmeticFunction.table(rand_table(random.Random(6), 5000), after="error")
    got = standard_finite_expansion(f, 5)
    assert builds == [5] and f.wintner_terms[0] == 5
    assert got.reconstruction == Fraction(f(5))


def test_equal_tables_hold_their_own_terms():
    values = [Fraction(1, 2), 3, Fraction(-2, 7)]
    f, g = ArithmeticFunction.table(values), ArithmeticFunction.table(values)
    standard_finite_expansion(f, 2)
    assert g.wintner_terms is None
    standard_finite_expansion(g, 2)
    assert f.wintner_terms == g.wintner_terms
    assert f.wintner_terms is not g.wintner_terms
    assert f.wintner_terms[1] is not g.wintner_terms[1]


def test_plain_callable_stores_nothing():
    evaluated = []

    def f(k):
        evaluated.append(k)
        return Fraction(k, 3)
    for _ in range(2):
        assert standard_finite_expansion(f, 5).reconstruction == Fraction(5, 3)
    assert evaluated == [1, 2, 3, 4, 5] * 2
    assert vars(f) == {}


def test_standard_fre_refusals_hold_after_terms_are_held():
    f = ArithmeticFunction.builtin("one")
    standard_finite_expansion(f, 6)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n >= 1"):
            standard_finite_expansion(f, n)
    t = ArithmeticFunction.table([1, Fraction(2, 3), 5], after="error")
    standard_finite_expansion(t, 2)
    assert t.wintner_terms[0] == 2
    for _ in range(2):
        with pytest.raises(IndexError):
            standard_finite_expansion(t, 4)
    assert standard_finite_expansion(t, 3).reconstruction == 5
    with pytest.raises(ValueError, match="n >= 1"):
        standard_finite_expansion(t, 0)
    floats = ArithmeticFunction.table([1, 0.5])
    for _ in range(2):
        with pytest.raises(ValueError, match="exact function"):
            standard_finite_expansion(floats, 1)
    assert floats.wintner_terms is None


def test_dk_k1_is_classical():
    for n in range(2, 101):
        got = divisor_power_coefficient(n, 1)
        assert got.rational == Fraction(-1, n)
        assert got.value == pytest.approx(-math.log(n) / n, rel=1e-12)


def test_dk_point_one_vanishes():
    for k in range(1, 5):
        assert divisor_power_coefficient(1, k).value == 0.0


def test_dk_k2_n2_hand_value():
    c = divisor_power_coefficient(2, 2)
    # inner series sums to 6; local factor (1/4)*6 = 3/2; inverse 2/3
    assert dk_local_series(2, 1, 2) == 6
    assert c.rational == Fraction(1, 2) * Fraction(1, 2) * Fraction(2, 3)
    assert c.value == pytest.approx(math.log(2) ** 2 / 6)


def test_dk_series_against_partial_sums():
    for k in range(1, 5):
        for p in (2, 3, 5, 7, 11, 13):
            for l in range(1, 5):
                closed = float(dk_local_series(p, l, k))
                partial = sum(math.comb(k + lam - 1, k - 1) * float(p) ** (l - lam)
                              for lam in range(l, l + 1000))
                assert closed == pytest.approx(partial, rel=1e-10)


def parent_dk_local_series(p, l, k):
    """The Fraction route dk_local_series replaced, kept as the reference:
    p^l times the full series (1 - 1/p)^-k less its first l terms."""
    x = Fraction(1, p)
    full = (1 - x) ** -k
    head = sum(math.comb(k + lam - 1, k - 1) * x ** lam for lam in range(l))
    return Fraction(p) ** l * (full - head)


@PROPERTY
@given(p=st.sampled_from([2, 3, 4, 5, 7, 11, 13, 97, 2 ** 31 - 1]),
       l=st.integers(0, 12), k=st.integers(1, 12))
@example(p=2, l=0, k=1)
@example(p=13, l=4, k=4)
def test_dk_local_series_is_the_fraction_route(p, l, k):
    got = dk_local_series(p, l, k)
    assert type(got) is Fraction and got == parent_dk_local_series(p, l, k)


def parent_divisor_power_rational(n, k):
    """The three-Fractions-per-prime route divisor_power_coefficient
    replaced, kept as the reference."""
    rational = Fraction((-1) ** k, math.factorial(k)) * Fraction(1, n)
    for p, e in factor(n):
        rational /= (1 - Fraction(1, p)) ** k * dk_local_series(p, e, k)
    return rational


@PROPERTY
@given(n=st.one_of(st.integers(1, 5000), st.sampled_from([720720, 2 ** 31 - 1, 2 ** 40])),
       k=st.integers(1, 8))
@example(n=1, k=1)
@example(n=96, k=4)
def test_divisor_power_coefficient_is_the_fraction_route(n, k):
    got = divisor_power_coefficient(n, k)
    assert type(got.rational) is Fraction
    assert got.rational == parent_divisor_power_rational(n, k)
    assert (got.n, got.k, got.log_power) == (n, k, k)


def test_dk_local_series_at_k0_and_the_c13_cases():
    assert dk_local_series(5, 0, 0) == parent_dk_local_series(5, 0, 0) == 1
    for k in range(1, 5):
        for p in (2, 3, 5, 7, 11, 13):
            for l in range(1, 5):
                assert dk_local_series(p, l, k) == parent_dk_local_series(p, l, k)
