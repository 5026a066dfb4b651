"""Duality between truncated divisor sums and pure finite expansions."""

import dataclasses
from fractions import Fraction
from math import isqrt
import pickle

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rlab import kernels, rational
from rlab.arith import ArithmeticFunction, divisors, mu
from rlab.finite import (FiniteExpansion, TruncatedDivisorSum, fre_to_tds,
                         high_coefficient_check, low_coefficient_report,
                         tds_to_fre, truncate)
from rlab.ramanujan import csum_divisor_form
from rlab.rational import ExactList, freeze, head, scale, value_kind
from rlab.transforms import wintner_coefficient
from conftest import PROPERTY, RATIONALS, rand_table


def test_hand_examples():
    assert tds_to_fre(TruncatedDivisorSum(1, [1])).fhat == [Fraction(1)]
    e = tds_to_fre(TruncatedDivisorSum(2, [1, 1]))
    assert e.fhat == [Fraction(3, 2), Fraction(1, 2)]
    t = fre_to_tds(FiniteExpansion(2, [Fraction(3, 2), Fraction(1, 2)]))
    assert t.fprime == [1, 1]
    t2 = fre_to_tds(FiniteExpansion(3, [1, 0, 0]))
    assert t2.fprime == [1, 0, 0]


def test_expansion_eval_example():
    e = FiniteExpansion(2, [Fraction(3, 2), Fraction(1, 2)])
    assert e.eval(2) == 2   # 3/2 * c_1(2) + 1/2 * c_2(2)
    t = TruncatedDivisorSum(2, [1, 1])
    assert t.eval(2) == 2


def test_roundtrip_randomized(rng):
    for _ in range(80):
        q = rng.randint(1, 64)
        t = TruncatedDivisorSum(q, rand_table(rng, q))
        e = tds_to_fre(t)
        assert fre_to_tds(e) == t
        e2 = tds_to_fre(fre_to_tds(e))
        assert e2.fhat == e.fhat


@PROPERTY
@given(fprime=st.lists(RATIONALS, min_size=1, max_size=64))
def test_tds_fre_tds_roundtrip(fprime):
    q = len(fprime)
    t = TruncatedDivisorSum(q, fprime)
    e = tds_to_fre(t)
    for k in range(1, q + 1):
        assert e.fhat[k - 1] == sum((fprime[d - 1] / d for d in range(k, q + 1, k)),
                                    Fraction(0))
    assert fre_to_tds(e) == t


@PROPERTY
@given(fhat=st.lists(RATIONALS, min_size=1, max_size=64))
def test_fre_tds_fre_roundtrip(fhat):
    q = len(fhat)
    t = fre_to_tds(FiniteExpansion(q, fhat))
    for d in range(1, q + 1):
        assert t.fprime[d - 1] == d * sum((fhat[d * k - 1] * mu(k)
                                           for k in range(1, q // d + 1)), Fraction(0))
    assert tds_to_fre(t).fhat == fhat


def test_pointwise_agreement(rng):
    for _ in range(15):
        q = rng.randint(1, 32)
        t = TruncatedDivisorSum(q, rand_table(rng, q))
        e = tds_to_fre(t)
        for n in range(1, 200):
            assert t.eval(n) == e.eval(n)


@PROPERTY
@given(fhat=st.one_of(st.lists(RATIONALS, min_size=1, max_size=256),
                      st.lists(st.integers(-9, 9), min_size=1, max_size=256)),
       n=st.integers(1, 2048))
@example(fhat=[Fraction(3, 2), Fraction(1, 2)], n=1)
@example(fhat=[Fraction(1, 2), Fraction(1, 2)], n=3)       # integral value
@example(fhat=[Fraction(1, 3)] * 5, n=2048)
def test_expansion_eval_matches_defining_sum(fhat, n):
    want = sum((Fraction(c) * csum_divisor_form(q, n)
                for q, c in enumerate(fhat, start=1)), Fraction(0))
    got = FiniteExpansion(len(fhat), fhat).eval(n)
    assert got == want
    assert type(got) is (int if want.denominator == 1 else Fraction)


def test_eval_range_matches_pointwise(rng):
    t = TruncatedDivisorSum(8, rand_table(rng, 8))
    vals = t.eval_range(100)
    assert isinstance(vals, list) and all(type(v) is Fraction for v in vals)
    for n in range(1, 101):
        assert Fraction(vals[n - 1]) == Fraction(t.eval(n))
    ti = TruncatedDivisorSum(5, [2, 0, -1, 3, 1])
    vi = ti.eval_range(100)
    for n in range(1, 101):
        assert int(vi[n - 1]) == ti.eval(n)


def test_eval_range_past_int64():
    vals = TruncatedDivisorSum(2, [2 ** 62, 2 ** 62]).eval_range(4)
    assert [int(v) for v in vals] == [2 ** 62, 2 ** 63, 2 ** 62, 2 ** 63]


def _scattered(t, nmax):
    """Values of t on 1..nmax by the divisor scatter over every prime up to
    nmax, in the shape `eval_range` gives."""
    nums, den = t.scaled
    out = kernels.divisor_scatter_int(head(kernels.one_based(nums[:nmax]), nmax + 1))[1:]
    return freeze(out) if den == 1 else ExactList.over(out.tolist(), den)


def _counting_scatter(mp):
    """Patch `kernels.divisor_scatter_int` to record the length of each call."""
    calls, scatter = [], kernels.divisor_scatter_int
    mp.setattr(kernels, "divisor_scatter_int",
               lambda w: calls.append(w.shape[0]) or scatter(w))
    return calls


NONZERO_FPRIME = {
    "int": st.integers(-9, 9).filter(bool),
    "rational": RATIONALS.filter(bool),
    # two of these sum past 2**63, so the progressions run on Python ints
    "near 2**62": st.one_of(st.integers(2 ** 62 - 1024, 2 ** 62),
                            st.integers(-(2 ** 62), -(2 ** 62) + 1024)),
}


@pytest.mark.parametrize("kind", list(NONZERO_FPRIME))
@PROPERTY
@given(data=st.data())
def test_eval_range_progressions_match_the_divisor_scatter(kind, data):
    # Q and nmax up to 160 put min(Q, nmax) on both sides of each other and
    # of the cost rule 32 + isqrt(nmax) <= 44; dense supports cross the rule
    q = data.draw(st.integers(1, 160), "Q")
    nmax = data.draw(st.integers(1, 160), "nmax")
    dense = st.just(set(range(1, q + 1)))
    support = data.draw(st.one_of(st.sets(st.integers(1, q), max_size=8), dense), "support")
    fprime = [0] * q
    for d in support:
        fprime[d - 1] = data.draw(NONZERO_FPRIME[kind])
    t = TruncatedDivisorSum(q, fprime)
    want = _scattered(t, nmax)
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_scatter(mp)
        got = t.eval_range(nmax)
    nonzero = sum(1 for d in support if d <= nmax)
    assert calls == ([nmax + 1] if nonzero > 32 + isqrt(nmax) else [])
    assert value_kind(got) == value_kind(want) and got.tolist() == want.tolist()
    if isinstance(got, np.ndarray):
        assert got.dtype == want.dtype and not got.flags.writeable
    else:
        assert got._scaled == want._scaled
    assert [Fraction(v) for v in got] == [
        sum((Fraction(fprime[d - 1]) for d in divisors(n) if d <= q), Fraction(0))
        for n in range(1, nmax + 1)]


def test_eval_range_scatters_only_past_the_cost_rule(monkeypatch):
    calls = _counting_scatter(monkeypatch)
    nmax = 10 ** 5
    rule = 32 + isqrt(nmax)
    want = np.zeros(nmax, dtype=np.int64)
    for d in range(1, 17):
        want[d - 1:: d] += d
    assert TruncatedDivisorSum(16, list(range(1, 17))).eval_range(nmax).tolist() == want.tolist()
    TruncatedDivisorSum(rule, [1] * rule).eval_range(nmax)
    assert calls == []
    TruncatedDivisorSum(rule + 1, [1] * (rule + 1)).eval_range(nmax)
    assert calls == [nmax + 1]
    # only d <= nmax count: a long zero-free range cut at a small nmax scatters nothing
    TruncatedDivisorSum(1000, [1] * 1000).eval_range(4)
    assert calls == [nmax + 1]


def test_range_normalization():
    a = TruncatedDivisorSum(4, [1, 2, 0, 0])
    b = TruncatedDivisorSum(2, [1, 2])
    assert a == b
    c = TruncatedDivisorSum(2, [1, 1])
    assert a != c


def test_expansion_equality_follows_get():
    a = FiniteExpansion(4, [1, 2, 0, 0])
    b = FiniteExpansion(2, [1, 2])
    assert a == b and b == a and not a != b
    assert a != FiniteExpansion(2, [1, 3])
    assert FiniteExpansion(3, [0, 0, 0]) == FiniteExpansion(1, [0])
    # the duality maps equal objects to equal objects in both directions
    assert fre_to_tds(a) == fre_to_tds(b)
    assert tds_to_fre(TruncatedDivisorSum(4, [1, 2, 0, 0])) == \
        tds_to_fre(TruncatedDivisorSum(2, [1, 2]))
    assert tds_to_fre(TruncatedDivisorSum(4, [1, 2, 0, 0])) != \
        tds_to_fre(TruncatedDivisorSum(4, [1, 2, 0, 1]))


@PROPERTY
@given(fhat=st.lists(RATIONALS, min_size=1, max_size=24), pad=st.integers(0, 8))
def test_zero_padding_keeps_both_sides_equal(fhat, pad):
    e, padded = FiniteExpansion(len(fhat), fhat), \
        FiniteExpansion(len(fhat) + pad, fhat + [0] * pad)
    assert e == padded
    assert fre_to_tds(e) == fre_to_tds(padded)
    t = TruncatedDivisorSum(len(fhat), fhat)
    assert tds_to_fre(t) == tds_to_fre(TruncatedDivisorSum(len(fhat) + pad, fhat + [0] * pad))


def test_support_law():
    t = TruncatedDivisorSum(3, [1, 2, 3])
    e = tds_to_fre(t)
    assert e.range == 3 and len(e.fhat) == 3
    # evaluation past the range sees only divisors <= Q
    assert t.eval(9) == 1 + 3
    assert t.eval(7) == 1


def test_high_coefficients_d2():
    rep = high_coefficient_check(ArithmeticFunction.builtin("d_2"), 10)
    assert rep.ok
    got = dict((q, v) for q, v, _ in rep.checked)
    assert got[7] == Fraction(1, 7)    # fprime = one; only multiple of 7 is 7


def test_high_coefficients_one():
    for q_range in (2, 5, 16):
        rep = high_coefficient_check(ArithmeticFunction.builtin("one"), q_range)
        assert rep.ok
        assert all(v == 0 for _, v, _ in rep.checked)


def test_high_coefficients_random(rng):
    for _ in range(25):
        q = rng.randint(2, 128)
        f = ArithmeticFunction.table(rand_table(rng, q), after="zero")
        assert high_coefficient_check(f, q).ok


def test_low_report_finite_support_exact():
    t = TruncatedDivisorSum(3, [1, Fraction(1, 2), Fraction(1, 3)])
    f = ArithmeticFunction.from_tds(t)
    rep = low_coefficient_report(f, 50, 3, decay_hint=(1.0, 2.0))
    assert rep.verdict == "consistent"
    for _, at_cut, partial, _, rel in rep.rows:
        assert abs(float(at_cut) - partial) < 1e-12


def test_low_report_at_cut_is_the_truncations_coefficient(rng):
    for f in (ArithmeticFunction.builtin("d_2"), ArithmeticFunction.builtin("id"),
              ArithmeticFunction.table(rand_table(rng, 40), after="zero")):
        rep = low_coefficient_report(f, 30, 8)
        assert [r[1] for r in rep.rows] == tds_to_fre(truncate(f, 30)).fhat[:8]
        assert all(type(r[1]) is Fraction for r in rep.rows)
    with pytest.raises(ValueError, match="not floats"):
        low_coefficient_report(ArithmeticFunction.builtin("vonMangoldt"), 30, 8)


def test_low_report_refuses_a_hint_that_bounds_nothing():
    # s <= 0 gives no tail bound, so no row would be compared
    with pytest.raises(ValueError, match="decay hint"):
        low_coefficient_report(ArithmeticFunction.builtin("d_2"), 20, 3, decay_hint=(1.0, 0.0))


def test_low_report_no_hint():
    rep = low_coefficient_report(ArithmeticFunction.builtin("one"), 40, 5)
    assert rep.verdict == "no-hint"


def test_truncate_builds_counterpart():
    d2 = ArithmeticFunction.builtin("d_2")
    t = truncate(d2, 10)
    assert t.fprime == [1] * 10
    for n in range(1, 11):
        assert t.eval(n) == d2(n)
    assert t.eval(22) == len([d for d in (1, 2, 11, 22) if d <= 10])


def test_constructor_validation():
    with pytest.raises(ValueError):
        TruncatedDivisorSum(0, [])
    with pytest.raises(ValueError):
        TruncatedDivisorSum(3, [1, 2])
    with pytest.raises(ValueError):
        FiniteExpansion(2, [1])
    # the sequence field has no default, though it is built on first read
    with pytest.raises(TypeError):
        FiniteExpansion(2)
    with pytest.raises(TypeError):
        TruncatedDivisorSum(2)


# every kind of exact number a value list may hold, zero floats included
EXACT_NUMBERS = st.one_of(st.integers(-2 ** 70, 2 ** 70), RATIONALS,
                          st.integers(-9, 9).map(Fraction),
                          st.integers(-2 ** 62, 2 ** 62).map(np.int64),
                          st.sampled_from([0.0, -0.0, np.float64(0.0), np.float32(0.0)]))
NONZERO_FLOATS = (st.floats(allow_nan=False, allow_infinity=False).filter(bool)
                  | st.sampled_from([np.float64(0.5), np.float32(2.0), 3.0]))


@PROPERTY
@given(values=st.lists(EXACT_NUMBERS, min_size=1, max_size=8),
       bad=st.none() | st.tuples(NONZERO_FLOATS, st.integers(0, 8)))
@example(values=[np.int64(1), 0.0, Fraction(1, 2)], bad=None)
@example(values=[0], bad=(0.1, 0))
def test_value_objects_share_one_exactness_rule(values, bad):
    # a nonzero float anywhere is refused by both objects, every other list
    # is held by both as the same exact values: ints when all are integral
    if bad is not None:
        values = values[:bad[1]] + [bad[0]] + values[bad[1]:]
        for cls in (TruncatedDivisorSum, FiniteExpansion):
            with pytest.raises(ValueError, match="not floats"):
                cls(len(values), values)
        return
    t = TruncatedDivisorSum(len(values), values)
    e = FiniteExpansion(len(values), values)
    want = [Fraction(v.item() if isinstance(v, np.generic) else v) for v in values]
    assert t.fprime == e.fhat == want
    assert [type(v) for v in t.fprime] == [type(v) for v in e.fhat]
    if all(v.denominator == 1 for v in want):
        assert all(type(v) is int for v in e.fhat)
    assert t.scaled == e.scaled


def test_value_objects_name_their_field_when_refusing():
    for cls, name in ((TruncatedDivisorSum, "fprime"), (FiniteExpansion, "fhat")):
        with pytest.raises(ValueError, match=f"{name} must hold exact values, not floats"):
            cls(2, [0.1, 0])
        with pytest.raises(ValueError, match=f"{name} must have exactly Q entries"):
            cls(2, [1])


# ---------------------------------------------------------------------------
# the duality's results hold their scaled pair; the Fraction list is built on
# first read
# ---------------------------------------------------------------------------

def built(obj) -> bool:
    """Whether obj's Fraction list (fhat or fprime) has been built."""
    return "fhat" in vars(obj) or "fprime" in vars(obj)


def lazy_pairs():
    t = TruncatedDivisorSum(4, [1, Fraction(1, 2), 0, Fraction(-3, 4)])
    e = tds_to_fre(t)
    return [(e, "fhat", FiniteExpansion), (fre_to_tds(e), "fprime", TruncatedDivisorSum)]


@pytest.mark.parametrize("index", [0, 1], ids=["fre", "tds"])
def test_lazy_object_equals_the_eager_one(index):
    lazy, name, cls = lazy_pairs()[index]
    nums, den = lazy.scaled
    values = [Fraction(n, den) for n in nums]
    eager = cls(lazy.range, values)
    assert not built(lazy)
    # equality, both ways and against a zero-padded copy, builds nothing
    padded = cls(lazy.range + 3, values + [0, 0, 0])
    assert lazy == eager and eager == lazy and lazy == padded and padded == lazy
    assert lazy != cls(lazy.range, values[:-1] + [values[-1] + 1])
    assert not built(lazy)
    # a pickle round trip keeps the object lazy and equal
    back = pickle.loads(pickle.dumps(lazy))
    assert back == eager and not built(back)
    # reading the field builds it once, as the eager object holds it
    seq = getattr(lazy, name)
    assert built(lazy) and getattr(lazy, name) is seq
    assert isinstance(seq, ExactList) and seq == values
    assert all(type(v) is Fraction for v in seq)
    assert scale(seq) == lazy.scaled
    assert repr(lazy) == repr(eager) == repr(back)
    assert pickle.loads(pickle.dumps(lazy)) == eager
    moved = dataclasses.replace(lazy)
    assert moved == eager and getattr(moved, name) is seq
    assert dataclasses.replace(lazy, range=lazy.range + 1, **{name: values + [0]}) == eager
    with pytest.raises(AttributeError):
        lazy.no_such_field


def test_exact_readers_build_no_fraction_list():
    t = TruncatedDivisorSum(6, [Fraction(1, d) for d in range(1, 7)])
    e = tds_to_fre(t)
    back = fre_to_tds(e)
    points = range(1, 13)
    assert [e.eval(n) for n in points] == [back.eval(n) for n in points] == \
        [t.eval(n) for n in points]
    assert back.eval_range(12) == t.eval_range(12)
    assert back == t and fre_to_tds(e) == back
    gets = [e.get(q) for q in range(1, 8)]
    assert not built(e) and not built(back)
    assert gets == list(e.fhat) + [0] and all(type(v) is Fraction for v in gets[:6])


@pytest.mark.parametrize("cls", [TruncatedDivisorSum, FiniteExpansion])
@PROPERTY
@given(values=st.lists(RATIONALS, min_size=1, max_size=12), zeros=st.integers(0, 4))
def test_value_object_holds_the_scaled_pair_of_its_values(cls, values, zeros):
    padded = values + [0] * zeros
    obj = cls(len(padded), padded)
    assert obj.scaled == scale(padded)
    held = cls._over(len(padded), *scale(padded))
    assert obj == held and held == obj and not built(held)
    # trailing zeros count on neither side
    short = cls(len(values), values)
    assert obj == short and short == obj and held == short and short == held
    bumped = cls(len(padded), padded[:-1] + [padded[-1] + 1])
    assert obj != bumped and bumped != held


@PROPERTY
@given(fprime=st.lists(RATIONALS, min_size=1, max_size=64))
def test_lazy_roundtrip_is_the_identity(fprime):
    t = TruncatedDivisorSum(len(fprime), fprime)
    back = fre_to_tds(tds_to_fre(t))
    assert back == t and not built(back)
    assert back.fprime == t.fprime


@pytest.mark.parametrize("name, q_range", [("d_2", 10), ("id", 17), ("one", 16)])
def test_high_coefficient_check_output_unchanged(name, q_range):
    f = ArithmeticFunction.builtin(name)
    t = truncate(f, q_range)
    want = [(q, wintner_coefficient(t.fprime, q, q_range)[0],
             Fraction(t.fprime[q - 1], q)) for q in range(q_range // 2 + 1, q_range + 1)]
    rep = high_coefficient_check(f, q_range)
    assert rep.checked == want and rep.violations == []
    assert all(type(got) is Fraction for _, got, _ in rep.checked)


def test_value_objects_scale_their_values_only_when_read(monkeypatch):
    calls = []
    real = rational._scale
    monkeypatch.setattr(rational, "_scale", lambda values: (calls.append(1), real(values))[1])
    t = TruncatedDivisorSum(3, [1, Fraction(1, 2), 0])
    e = FiniteExpansion(2, [Fraction(1, 3), 2])
    assert calls == []                          # built from values: no pair yet
    for obj, pair in ((t, ((2, 1, 0), 2)), (e, ((1, 6), 3))):
        before = len(calls)
        assert obj.scaled == pair               # the first read scales once
        assert len(calls) == before + 1
        assert obj.scaled is obj.scaled         # later reads find the held pair
        assert len(calls) == before + 1
    calls.clear()                               # t and e hold their pairs now
    over = [FiniteExpansion._over(3, [2, 4, 6], 4), tds_to_fre(t), fre_to_tds(e)]
    assert [o.scaled for o in over] == [((1, 2, 3), 2), ((5, 1, 0), 4), ((-5, 12), 3)]
    assert calls == []                          # an `_over` object holds its pair
