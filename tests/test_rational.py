"""Exact value objects carry their scaled form: cache, surface and mutation."""

import dataclasses
from fractions import Fraction
from math import gcd, lcm
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rlab import kernels, rational
from rlab.arith import ArithmeticFunction, divisors, function_from_spec, mu
from rlab.finite import FiniteExpansion, TruncatedDivisorSum, fre_to_tds, tds_to_fre
from rlab.ramanujan import csum
from rlab.rational import ExactList, scale
from rlab.shift import cut_correlation, qrc
from rlab.transforms import carmichael_estimate, eratosthenes
from conftest import PROPERTY, RATIONALS

SEQS = st.lists(RATIONALS, min_size=1, max_size=24)


def assert_canonical(values):
    """The cached (nums, den) is what scaling a plain copy gives, and den is
    the lcm of the reduced denominators."""
    nums, den = scale(values)
    assert (nums, den) == scale(list(values))
    assert den == lcm(*(Fraction(v).denominator for v in values))
    assert [Fraction(n, den) for n in nums] == list(values)


def exact(v):
    """v as the library returns an exact value: an int when integral."""
    v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def same(got, want):
    assert got == want and type(got) is type(want)


@PROPERTY
@given(SEQS)
def test_cached_scaled_form_is_canonical(vals):
    t = TruncatedDivisorSum(len(vals), vals)
    e = tds_to_fre(t)
    back = fre_to_tds(e)
    for obj in (t.fprime, e.fhat, back.fprime, FiniteExpansion(len(vals), vals).fhat):
        assert_canonical(obj)
        assert scale(obj) is scale(obj)      # computed once, then read back


@PROPERTY
@given(st.lists(RATIONALS, min_size=1, max_size=6), st.lists(RATIONALS, min_size=1, max_size=6),
       st.integers(min_value=1, max_value=8))
def test_shift_objects_cache_canonical_scaled_form(fv, gv, n_len):
    f = ArithmeticFunction.from_tds(TruncatedDivisorSum(len(fv), fv))
    g = ArithmeticFunction.from_tds(TruncatedDivisorSum(len(gv), gv))
    cut = cut_correlation(f, g, n_len, 2 * n_len)
    coeffs = cut.coefficients
    assert coeffs.fhat == qrc(cut, n_len).fhat
    seqs = [coeffs.fhat]
    if not cut.base.is_integer:
        seqs += [cut.base.values, cut.base.transform(2 * n_len)]
    for seq in seqs:
        assert isinstance(seq, ExactList)
        assert_canonical(seq)


@PROPERTY
@given(SEQS, st.integers(min_value=1, max_value=60))
def test_tds_surface_matches_per_element_definition(vals, n):
    t = TruncatedDivisorSum(len(vals), vals)
    same(t.eval(n), exact(sum((Fraction(vals[d - 1]) for d in divisors(n) if d <= len(vals)),
                              Fraction(0))))
    got = t.eval_range(n)
    want = [sum((Fraction(vals[d - 1]) for d in divisors(m) if d <= len(vals)), Fraction(0))
            for m in range(1, n + 1)]
    if all(Fraction(v).denominator == 1 for v in vals):
        assert isinstance(got, np.ndarray) and got.tolist() == want
    else:
        assert isinstance(got, list) and got == want
        assert all(type(v) is Fraction for v in got)


@PROPERTY
@given(SEQS, st.integers(min_value=-40, max_value=60))
def test_fre_eval_matches_per_element_definition(vals, n):
    e = FiniteExpansion(len(vals), vals)
    same(e.eval(n), exact(sum(Fraction(c) * csum(q, n) for q, c in enumerate(vals, start=1))))


@PROPERTY
@given(SEQS)
def test_duality_matches_per_element_definition(vals):
    size = len(vals)
    e = tds_to_fre(TruncatedDivisorSum(size, vals))
    fhat = [sum((Fraction(vals[d - 1], d) for d in range(q, size + 1, q)), Fraction(0))
            for q in range(1, size + 1)]
    assert e.fhat == fhat and all(type(v) is Fraction for v in e.fhat)
    t = fre_to_tds(FiniteExpansion(size, vals))
    fprime = [d * sum((Fraction(vals[d * k - 1]) * mu(k) for k in range(1, size // d + 1)),
                      Fraction(0)) for d in range(1, size + 1)]
    assert t.fprime == fprime and all(type(v) is Fraction for v in t.fprime)


def test_surface_still_compares_equal_to_lists():
    t = TruncatedDivisorSum(3, [1, Fraction(1, 2), np.int64(3)])
    assert t.fprime == [1, Fraction(1, 2), 3] and [1, Fraction(1, 2), 3] == t.fprime
    assert type(t.fprime[2]) is Fraction         # non-int numbers become Fractions
    assert type(t.fprime[1:]) is list
    assert tds_to_fre(t) == FiniteExpansion(3, list(tds_to_fre(t).fhat))


def test_numpy_ints_become_python_int_fractions():
    # a numpy numerator would keep fixed-width arithmetic inside the Fraction
    big = np.int64(2 ** 62)
    t = TruncatedDivisorSum(2, np.array([big, 3]))
    assert all(type(v.numerator) is int for v in t.fprime)
    assert t.fprime[0] * 4 == 2 ** 64


def test_in_place_mutation_raises():
    t = TruncatedDivisorSum(3, [1, Fraction(1, 2), 0])
    e = tds_to_fre(t)
    coeffs = qrc(cut_correlation(ArithmeticFunction.from_tds(t),
                                 ArithmeticFunction.from_tds(t), 4, 8), 4)
    before = scale(t.fprime)
    for seq in (t.fprime, e.fhat, coeffs.fhat):
        with pytest.raises(TypeError):
            seq[0] = 5
        with pytest.raises(TypeError):
            del seq[0]
        with pytest.raises(TypeError):
            seq += [1]
        for method, args in (("append", (1,)), ("extend", ([1],)), ("insert", (0, 1)),
                             ("pop", ()), ("remove", (seq[0],)), ("clear", ()),
                             ("sort", ()), ("reverse", ())):
            with pytest.raises(TypeError):
                getattr(seq, method)(*args)
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.fprime = [0, 0, 0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        e.fhat = [0, 0, 0]
    assert t.fprime == [1, Fraction(1, 2), 0] and scale(t.fprime) is before


def test_exact_list_copies_are_plain_and_pickle():
    import copy
    import pickle
    xs = ExactList.over([2, 4, 6], 4)
    assert scale(xs) == ((1, 2, 3), 2)
    assert pickle.loads(pickle.dumps(xs)) == xs
    assert copy.deepcopy(xs) == xs and type(copy.copy(xs)) is ExactList
    ys = xs.copy()
    ys.append(1)                                  # a copy is an ordinary list
    assert xs == [Fraction(1, 2), 1, Fraction(3, 2)]


def lcm_and_rescale(pairs) -> tuple:
    """The definition `scale_pairs` must meet: one `math.lcm` over every
    denominator, then each numerator rescaled on its own."""
    den = lcm(*(d for _, d in pairs))
    return tuple(n * (den // d) for n, d in pairs), den


def reduced(pairs) -> list:
    return [(n // gcd(n, d), d // gcd(n, d)) for n, d in pairs]


@PROPERTY
@given(st.lists(st.tuples(st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 6)),
                max_size=300))
@example([])
@example([(3, 7)])
@example([(1, 6), (5, 6), (-1, 6), (1, 4)])
@example([(1, d) for d in range(1, 34)])
def test_scale_pairs_is_lcm_and_rescale(pairs):
    pairs = reduced(pairs)
    assert rational.scale_pairs(pairs) == lcm_and_rescale(pairs)


@pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 64, 1024, 1025, 2000])
def test_scale_pairs_tree_at_chunk_boundaries(count):
    # the denominators d^3, d <= count, each once as 1/d^3 and a third of them
    # again with a random numerator, shuffled: across the chunk size of the
    # lcm tree and of its second level
    rng = random.Random(count)
    pairs = [(1, d ** 3) for d in range(1, count + 1)]
    pairs += reduced([(rng.randint(-9, 9), d ** 3)
                      for d in rng.sample(range(1, count + 1), count // 3)])
    rng.shuffle(pairs)
    nums, den = rational.scale_pairs(pairs)
    assert (nums, den) == lcm_and_rescale(pairs)
    assert den == lcm(*range(1, count + 1)) ** 3


@PROPERTY
@given(st.lists(st.tuples(st.integers(-10 ** 20, 10 ** 20),
                          st.integers(1, 10 ** 6) | st.sampled_from([1, 2, 3, 4, 6, 12])),
                max_size=300))
@example([])
@example([(3, 7)])
@example([(1, 6), (5, 6), (-1, 6), (1, 4)])
@example([(1, 6), (-1, 6)])
@example([(1, d ** 3) for d in range(1, 301)])
def test_sum_pairs_is_the_fraction_sum(pairs):
    # repeated denominators come from the sampled ones; den is the lcm of
    # the denominators, num / den need not be reduced
    pairs = reduced(pairs)
    num, den = rational.sum_pairs(pairs)
    assert Fraction(num, den) == sum((Fraction(n, d) for n, d in pairs), Fraction(0))
    assert den == lcm(*(d for _, d in pairs))
    if not pairs:
        assert (num, den) == (0, 1)
    if len(pairs) == 1:
        assert (num, den) == pairs[0]


def test_canonical_is_the_scaled_form_of_the_values():
    nums, den = rational.canonical([6, -4, 0, 10], 12)
    assert (nums, den) == ((3, -2, 0, 5), 6) == scale([Fraction(1, 2), Fraction(-1, 3), 0,
                                                        Fraction(5, 6)])
    assert rational.canonical([0, 0], 5) == ((0, 0), 1)
    assert rational.canonical((1, 2), 3) == ((1, 2), 3)


def test_carmichael_estimates_scale_fprime_once(monkeypatch):
    fprime = ExactList(Fraction(1, d * d) for d in range(1, 201))
    calls = []
    real = rational._scale

    def counting(values):
        calls.append(values is fprime)
        return real(values)

    monkeypatch.setattr(rational, "_scale", counting)
    f = ArithmeticFunction.from_tds(TruncatedDivisorSum(200, fprime))
    assert f.tds.fprime is fprime
    for q in range(1, 11):
        carmichael_estimate(f, q, [500, 1000, 2000])
    assert calls.count(True) == 1


BIG = "1" + "0" * 4999 + "7"            # 10**5000 + 7, past the 4300-digit limit


@pytest.mark.parametrize("v, text", [
    (Fraction(10 ** 5000 + 7, 3), BIG + "/3"),
    (Fraction(-(10 ** 5000 + 7), 3), "-" + BIG + "/3"),
    (Fraction(10 ** 5000 + 7), BIG),
    (-(10 ** 4400), "-1" + "0" * 4400)], ids=["p/3", "-p/3", "p", "-10**4400"])
def test_format_parse_past_int_str_limit(v, text):
    assert rational.format_rational(v) == text
    assert rational.parse_rational(text) == v
    num = text.partition("/")[0]
    assert rational.parse_rational(f" {num} / 6 ") == Fraction(v.numerator, 6)


@pytest.mark.parametrize("s, v", [("3/4", Fraction(3, 4)), ("-7", -7), (" +2 / 6 ", Fraction(1, 3)),
                                  ("1.5", Fraction(3, 2)), ("2e3", 2000), ("1_000", 1000)])
def test_parse_rational_forms(s, v):
    assert rational.parse_rational(s) == v
    assert rational.parse_rational(v) == v


@pytest.mark.parametrize("s", ["", "abc", "1/", "/2", "1/-2", "1.5/2"])
def test_parse_rational_rejects(s):
    with pytest.raises(ValueError):
        rational.parse_rational(s)


# ---------------------------------------------------------------------------
# the three value shapes: one kind decision for tables, callables and specs
# ---------------------------------------------------------------------------

INTS = st.lists(st.integers(-2 ** 66, 2 ** 66) | st.sampled_from([0.0, -0.0]),
                min_size=1, max_size=24)
EXACT = st.lists(RATIONALS | st.integers(-9, 9) | st.just(0.0), min_size=1, max_size=24)
FLOATS = st.lists(st.floats(-9, 9, allow_nan=False) | RATIONALS, min_size=1, max_size=24)


def kind_by_definition(vals) -> str:
    if any(isinstance(v, float) and v for v in vals):
        return "float"
    return "int" if all(Fraction(v).denominator == 1 for v in vals) else "rational"


def assert_shape(values, kind):
    """values is the frozen shape of that kind, and reads as Python numbers."""
    assert rational.value_kind(values) == kind
    if kind == "rational":
        assert isinstance(values, ExactList)
    else:
        assert values.dtype.kind == ("f" if kind == "float" else "iO"[values.dtype == object])
        assert not values.flags.writeable
    assert all(type(v) in {"int": (int,), "rational": (int, Fraction),
                           "float": (float,)}[kind] for v in values.tolist())


@PROPERTY
@given(INTS | EXACT | FLOATS, st.integers(min_value=0, max_value=8))
def test_table_callable_and_spec_agree_on_the_kind(vals, past):
    kind = kind_by_definition(vals)
    f = ArithmeticFunction.table(vals)
    assert_shape(f.values, kind)
    assert (f.is_exact, rational.value_kind(f.values) == "int") == \
        (kind != "float", kind == "int")
    n = len(vals) + past
    got = f.eval_range(n)
    assert_shape(got, kind)
    assert got.tolist() == [f(m) for m in range(1, n + 1)]
    tr_table = eratosthenes(f, len(vals))
    tr_callable = eratosthenes(lambda m: vals[m - 1], len(vals))
    assert_shape(tr_table, kind)
    assert_shape(tr_callable, kind)
    assert tr_table.tolist() == tr_callable.tolist()
    if kind == "float":
        return
    # a spec as written by hand: every value a "p/q" string
    spec = {"kind": "table", "values": [rational.format_rational(Fraction(v)) for v in vals]}
    again = function_from_spec(spec)
    assert_shape(again.values, kind)
    assert again.values.tolist() == f.values.tolist()
    tds = function_from_spec({"kind": "tds", "range": len(vals), "fprime": spec})
    assert_shape(eratosthenes(tds, len(vals)), kind)
    assert (tds.tds.scaled[1] == 1) == (kind == "int")


def test_table_values_are_frozen():
    vals = [1, Fraction(1, 2), 3]
    arr = np.array([1, 2, 3])
    tables = [ArithmeticFunction.table(v) for v in (vals, arr, [1, 2.5], [1, 2])]
    vals[0] = arr[0] = 99                 # the caller's sequences change later
    assert tables[0](1) == tables[1](1) == 1
    for f in tables:
        with pytest.raises((TypeError, ValueError)):
            f.values[0] = 7
        with pytest.raises((TypeError, ValueError)):
            f.eval_range(len(f.values) + 1)[0] = 7
        assert f(1) == 1


def test_zero_float_table_transforms_as_its_callable():
    vals = [0.0, Fraction(1, 2)]
    for source in (ArithmeticFunction.table(vals), lambda n: vals[n - 1]):
        got = eratosthenes(source, 2)
        assert isinstance(got, ExactList) and got == [0, Fraction(1, 2)]
        assert [type(v) for v in got] == [int, Fraction]


def test_freeze_reads_a_float64_array_as_it_is():
    a = kernels.read_only(np.array([0.5, 0.0, -1.25]))
    assert rational.freeze(a) is a
    w = np.array([0.5, 0.0, -1.25])
    frozen = rational.freeze(w)
    assert frozen is not w and not frozen.flags.writeable
    assert frozen.tolist() == w.tolist() and frozen.dtype == np.float64
    # all-zero floats are exact zeros, as from a list
    assert rational.value_kind(rational.freeze(np.zeros(3))) == "int"


def parent_freeze(values):
    """The isinstance route `freeze` replaced, kept as the reference: a
    nonzero-float scan, then `ExactList.of` on every value."""
    if isinstance(values, np.ndarray) and (values.dtype.kind in "iu" or
                                           values.dtype == np.float64 and values.any()):
        return kernels.read_only(values.copy() if values.flags.writeable else values)
    if not isinstance(values, ExactList):
        vals = values.tolist() if isinstance(values, np.ndarray) else list(values)
        if any(isinstance(v, (float, np.floating)) and v for v in vals):
            return kernels.read_only(np.array(vals, dtype=np.float64))
        values = ExactList.of(0 if isinstance(v, (float, np.floating)) else v for v in vals)
    if all(v.denominator == 1 for v in values):
        return kernels.read_only(kernels.int_array(values))
    return values


def parent_tds_fprime(values):
    """A t.d.s.'s fprime on the parent route: `parent_freeze`, then
    `ExactList.of` once more."""
    fprime = values if isinstance(values, ExactList) else parent_freeze(values)
    if rational.value_kind(fprime) == "float":
        raise ValueError("a t.d.s. needs exact fprime values, not floats")
    return ExactList.of(fprime)


# every kind of value a sequence may hold: Python and numpy ints, bools,
# Fractions (integral ones included), zero floats of either sign and type
NUMBERS = st.one_of(st.integers(-2 ** 70, 2 ** 70), RATIONALS,
                    st.integers(-9, 9).map(Fraction),
                    st.integers(-2 ** 62, 2 ** 62).map(np.int64), st.booleans(),
                    st.sampled_from([0.0, -0.0, np.float64(0.0), np.float32(0.0)]))


def value_sequences(floats=False):
    """Lists of NUMBERS (with a nonzero float when floats is set), and their
    numpy array, or ExactList, forms."""
    lists = st.lists(NUMBERS, min_size=1, max_size=8)
    if floats:
        lists = st.tuples(lists, st.sampled_from([0.5, -3.0, np.float64(2.0)]),
                          st.integers(0, 8)).map(lambda t: t[0][:t[2]] + [t[1]] + t[0][t[2]:])
    return lists | lists.map(lambda v: np.array(v)) | lists.filter(
        lambda v: all(isinstance(x, (int, Fraction)) for x in v)).map(ExactList)


def same_entries(a, b):
    return list(a) == list(b) and [type(v) for v in a] == [type(v) for v in b]


@PROPERTY
@given(values=value_sequences() | value_sequences(floats=True))
def test_freeze_is_the_isinstance_route(values):
    got, want = rational.freeze(values), parent_freeze(values)
    assert rational.value_kind(got) == rational.value_kind(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and not got.flags.writeable
        assert got.tolist() == want.tolist()
    else:
        assert same_entries(got, want)


def shape_of(values) -> tuple:
    """Everything a caller can tell of a shape of `freeze`: its type, kind,
    dtype, element types and values (floats by their bytes)."""
    vals = values.tolist()
    kind = rational.value_kind(values)
    return (type(values), kind, getattr(values, "dtype", None), [type(v) for v in vals],
            values.tobytes() if kind == "float" else vals)


@PROPERTY
@given(values=value_sequences() | value_sequences(floats=True), n=st.integers(0, 12))
# a float prefix of zeros is exact, and an object prefix within int64 is int64
@example(values=[0.0, 0.5], n=1)
@example(values=[1, 2 ** 64], n=1)
def test_head_is_freeze_of_the_cut_list(values, n):
    frozen = rational.freeze(values)
    got = rational.head(frozen, n)
    assert shape_of(got) == shape_of(rational.freeze((frozen.tolist() + [0] * n)[:n]))
    assert not isinstance(got, np.ndarray) or not got.flags.writeable


@PROPERTY
@given(values=value_sequences())
@example(values=[Fraction(1, d * d) for d in range(1, 9)])
@example(values=[Fraction(4, 2), np.int64(3), True, -0.0])
@example(values=np.array([5, 0.0]))     # a nonzero float64 array: refused
def test_tds_fprime_is_the_parent_route(values):
    try:
        want = parent_tds_fprime(values)
    except ValueError:
        with pytest.raises(ValueError, match="not floats"):
            TruncatedDivisorSum(len(values), values)
        return
    t = TruncatedDivisorSum(len(values), values)
    assert isinstance(t.fprime, ExactList) and same_entries(t.fprime, want)
    if isinstance(values, ExactList):
        assert t.fprime is values


@PROPERTY
@given(values=value_sequences(floats=True))
def test_tds_refuses_a_nonzero_float_as_the_parent_route(values):
    with pytest.raises(ValueError, match="not floats"):
        parent_tds_fprime(values)
    with pytest.raises(ValueError, match="not floats"):
        TruncatedDivisorSum(len(values), values)
