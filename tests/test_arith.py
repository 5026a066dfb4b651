"""Integer primitives against brute-force oracles."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rlab import arith, kernels
from rlab.arith import (_PSI_13, ArithmeticFunction, ConfigError, _is_probable_prime, d_k,
                        divisors, factor, function_from_spec, mu, omega, phi)
from rlab.finite import TruncatedDivisorSum
from rlab.ramanujan import csum
from rlab.rational import ExactList, scale
from rlab.transforms import eratosthenes


def trial_division(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime_brute(p):
    if p < 2:
        return False
    return all(p % d for d in range(2, math.isqrt(p) + 1))


def test_factor_examples():
    assert factor(1).factors == ()
    assert factor(12).factors == ((2, 2), (3, 1))
    assert factor(97).factors == ((97, 1),)


def test_factor_rejects_nonpositive():
    with pytest.raises(ValueError):
        factor(0)
    with pytest.raises(ValueError):
        factor(-5)


def test_factor_matches_trial_division_grid():
    for n in range(1, 10001):
        fs = factor(n)
        assert list(fs.factors) == trial_division(n)
        prod = 1
        for p, e in fs:
            assert is_prime_brute(p)
            assert e >= 1
            prod *= p ** e
        assert prod == n


def test_factor_repeated_and_interleaved_calls_match_trial_division():
    rng = random.Random(11)
    # repeats, then more distinct values than the memo holds, then revisits
    ns = [rng.randint(1, 3000) for _ in range(3000)]
    ns += [n for pair in zip(range(1, 3001), range(9000, 6000, -1)) for n in pair]
    ns += [rng.randint(1, 9000) for _ in range(3000)]
    for n in ns:
        fs = factor(n)
        assert fs.n == n
        assert list(fs.factors) == trial_division(n)


def test_factored_integer_refuses_assignment():
    fs = factor(360)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fs.factors = ((2, 1),)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fs.n = 7
    assert factor(360).factors == ((2, 3), (3, 2), (5, 1))


def test_factor_zero_raises_after_cached_calls():
    for n in (1, 2, 12, 97, 360):
        factor(n)
    for bad in (0, -5, 0, -1):
        with pytest.raises(ValueError):
            factor(bad)


def test_factor_large_semiprime():
    n = 999983 * 999979          # both prime, just below the sieve bound
    assert factor(n).factors == ((999979, 1), (999983, 1))


PSI_12 = 318665857834031151167461   # strong pseudoprime to the 12 bases 2..37


def test_factor_splits_the_twelve_base_pseudoprime():
    assert factor(PSI_12).factors == ((399165290221, 1), (798330580441, 1))
    assert mu(PSI_12) == 1 and csum(PSI_12, 1) == 1


@pytest.mark.parametrize("n, factors", [
    (10 ** 12 + 39, ((10 ** 12 + 39, 1),)),
    (2 ** 61 - 1, ((2 ** 61 - 1, 1),)),
    ((2 ** 31 - 1) * (2 ** 61 - 1), ((2 ** 31 - 1, 1), (2 ** 61 - 1, 1))),
    (2 ** 20 * 3 ** 5 * (2 ** 61 - 1), ((2, 20), (3, 5), (2 ** 61 - 1, 1))),
    (1031 * 1033 * (2 ** 61 - 1), ((1031, 1), (1033, 1), (2 ** 61 - 1, 1))),
    (1031 ** 2 * (2 ** 61 - 1), ((1031, 2), (2 ** 61 - 1, 1)))],
    ids=["prime past 1e12", "2^61 - 1", "two large primes", "smooth part and a prime",
         "composite at the early test", "square at the early test"])
def test_factor_large_prime_cofactor(n, factors):
    # the early tests end trial division at a prime cofactor below psi_13;
    # a product past psi_13, or a cofactor still composite, goes on as before
    assert factor(n).factors == factors


def _factor_counting_primes(n: int) -> tuple:
    """factor(n) computed afresh (past the memo), and how many sieved primes
    its trial division read."""
    primes = arith._small_primes()
    read = []

    def counted():
        for p in primes:
            read.append(p)
            yield p
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith, "_small_primes", counted)
        fs = factor.__wrapped__(n)
    return fs, len(read)


@pytest.mark.parametrize("n", [2 ** 20 * (2 ** 61 - 1), 2 ** 20 * 1031 * (2 ** 61 - 1),
                               1031 * 1033 * (2 ** 61 - 1), 1031 ** 2 * (2 ** 61 - 1)],
                         ids=["smooth part", "smooth part and a prime past 2^10",
                              "two primes past 2^10", "a square past 2^10"])
def test_factor_retests_the_cofactor_after_a_large_prime(n):
    # the cofactor 2^61 - 1 is proven prime once the primes below it are
    # divided out, so trial division stops near 2^10 instead of running to 1e6
    fs, read = _factor_counting_primes(n)
    assert fs == factor(n) and math.prod(p ** e for p, e in fs) == n
    assert read < 200


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2 ** 10 + 1, 2 ** 13 - 1), max_size=3),
       st.integers(2 ** 13, _PSI_13 - 10 ** 6))
def test_factor_ends_at_a_prime_cofactor_below_psi_13(mids, big):
    # primes in (2^10, 2^13) times one prime below psi_13: every new prime
    # factor past 2^10 re-arms the cofactor test, so trial division never
    # passes 2^13, whether or not the product itself lies below psi_13
    primes = sorted(_next_prime(v) for v in mids if _next_prime(v) < 2 ** 13)
    p = _next_prime(big)
    n = math.prod(primes) * p
    fs, read = _factor_counting_primes(n)
    assert [q for q, e in fs for _ in range(e)] == sorted(primes + [p])
    assert read <= len(SMALL_PRIMES[SMALL_PRIMES < 2 ** 13]) + 1


def test_factor_refuses_a_prime_it_cannot_prove():
    # 2^89 - 1 is prime but lies above psi_13, where the bases 2..41 prove nothing
    with pytest.raises(ValueError, match=str(2 ** 89 - 1)):
        factor(2 ** 89 - 1)


def _next_prime(n: int) -> int:
    while not _is_probable_prime(n):
        n += 1
    return n


SMALL_PRIMES = kernels.prime_sieve(10 ** 6)


def _is_prime_checked(p: int) -> bool:
    """Primality by trial division up to 1e12, else by Miller-Rabin to the
    bases 2..41, which is deterministic in the range the test draws from."""
    if p <= 10 ** 12:
        ps = SMALL_PRIMES[SMALL_PRIMES ** 2 <= p]
        return p > 1 and bool(np.all(p % ps))
    return _is_probable_prime(p)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(2, 10 ** 6), max_size=3), st.integers(2, 10 ** 8),
       st.integers(2, 10 ** 18))
def test_factor_products_of_random_primes(small, mid, big):
    # at most two primes above the 1e6 sieve, the smaller below 1e8, keeps rho fast
    primes = sorted(_next_prime(v) for v in (*small, mid, big))
    n = math.prod(primes)
    fs = factor(n)
    assert math.prod(p ** e for p, e in fs) == n
    assert all(_is_prime_checked(p) for p, _ in fs)
    assert [p for p, e in fs for _ in range(e)] == primes


def test_mu_phi_omega_conventions():
    assert (mu(1), phi(1), omega(1)) == (1, 1, 0)
    assert (mu(6), phi(6), omega(6)) == (1, 2, 2)
    assert mu(12) == 0


def test_phi_against_gcd_count():
    for n in range(1, 300):
        assert phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_mu_against_definition():
    for n in range(1, 500):
        fs = trial_division(n)
        want = 0 if any(e > 1 for _, e in fs) else (-1) ** len(fs)
        assert mu(n) == want


def test_squarefree_divisor_count():
    for n in range(1, 200):
        squarefree = sum(1 for d in divisors(n)
                         if all(e == 1 for _, e in trial_division(d)) or d == 1)
        assert 2 ** omega(n) == squarefree


def test_multiplicativity_spot(rng):
    for _ in range(200):
        a = rng.randint(1, 500)
        b = rng.randint(1, 500)
        if math.gcd(a, b) != 1:
            continue
        assert phi(a * b) == phi(a) * phi(b)
        assert mu(a * b) == mu(a) * mu(b)
        k = rng.randint(1, 5)
        assert d_k(a * b, k) == d_k(a, k) * d_k(b, k)


def test_dk_examples():
    for n in (1, 7, 12, 60):
        assert d_k(n, 1) == 1
    assert d_k(12, 2) == len(divisors(12)) == 6
    # ordered triples with product 4
    count = sum(1 for a in range(1, 5) for b in range(1, 5) for c in range(1, 5)
                if a * b * c == 4)
    assert d_k(4, 3) == count == 6


def test_divisors_sorted():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(97) == [1, 97]


def test_divisors_returns_a_fresh_list():
    first = divisors(96)
    first[0] = 0
    first.append(7)
    again = divisors(96)
    assert again == [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 96]
    assert again is not divisors(96)


def test_exact_rational_arithmetic(rng):
    for _ in range(200):
        a = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        b = Fraction(rng.randint(-999, 999), rng.randint(1, 999))
        assert (a + b) - b == a
        if b:
            assert (a / b) * b == a


def test_dirichlet_mobius_inversion():
    # mu * 1 = delta: the Eratosthenes transform of `one` is delta
    tr = eratosthenes(ArithmeticFunction.builtin("one"), 100)
    for n in range(1, 101):
        assert tr[n - 1] == sum(mu(d) for d in divisors(n)) == (1 if n == 1 else 0)


def test_dirichlet_phi_identity():
    # phi * 1 = id: the transform of `id` is phi
    tr = eratosthenes(ArithmeticFunction.builtin("id"), 100)
    for n in range(1, 101):
        assert tr[n - 1] == phi(n)
        assert sum(phi(d) for d in divisors(n)) == n


def test_dirichlet_one_one_is_divisor_count():
    # 1 * 1 = d_2: the transform of `d_2` is `one`
    tr = eratosthenes(ArithmeticFunction.builtin("d_2"), 100)
    for n in range(1, 101):
        assert tr[n - 1] == 1
        assert len(divisors(n)) == d_k(n, 2)


def test_table_after_policies():
    t = ArithmeticFunction.table([1, 2, 3], after="zero")
    assert t(5) == 0
    t_err = ArithmeticFunction.table([1, 2, 3], after="error")
    with pytest.raises(IndexError):
        t_err(4)
    with pytest.raises(ValueError):
        t_err(0)


def test_eval_range_refuses_a_negative_bound():
    # a negative bound would slice from the end of a table
    for f in (ArithmeticFunction.table([Fraction(1, 2), 2, 3]),
              ArithmeticFunction.builtin("d_2"),
              ArithmeticFunction.from_tds(TruncatedDivisorSum(2, [1, 1]))):
        with pytest.raises(ValueError, match="got -1"):
            f.eval_range(-1)


def test_von_mangoldt_is_float_only():
    vm = ArithmeticFunction.builtin("vonMangoldt")
    assert not vm.is_exact
    assert vm(8) == pytest.approx(math.log(2))
    assert vm(6) == 0.0


def test_closed_registry():
    with pytest.raises(ValueError):
        ArithmeticFunction.builtin("sigma")


def test_registry_roundtrip():
    # hand-written JSON specs read back as the functions they spell out
    fprime = [1, 0, Fraction(1, 3), 2]
    cases = [
        ({"kind": "builtin", "name": "mu"}, mu),
        ({"kind": "table", "values": ["3/2", 1, "-2/7"], "after": "zero"},
         lambda n: [Fraction(3, 2), 1, Fraction(-2, 7), 0][min(n, 4) - 1]),
        ({"kind": "tds", "range": 4,
          "fprime": {"kind": "table", "values": [1, 0, "1/3", 2], "after": "zero"}},
         lambda n: sum(fprime[d - 1] for d in divisors(n) if d <= 4)),
        # an integral float reads as its int, as a grid value does
        ({"kind": "tds", "range": 4.0,
          "fprime": {"kind": "table", "values": [1, 0, "1/3", 2], "after": "zero"}},
         lambda n: sum(fprime[d - 1] for d in divisors(n) if d <= 4)),
    ]
    for spec, want in cases:
        f = function_from_spec(spec)
        for n in range(1, 20):
            assert f(n) == want(n)


@pytest.mark.parametrize("spec, named", [
    ({"kind": "builtin"}, "'name'"),
    ({"kind": "tds", "fprime": {"kind": "one"}}, "'range'"),
    ({"kind": "tds", "range": 2, "fprime": {"kind": "table"}}, "'values'"),
    ({"kind": "tds", "range": 2, "fprime": [1, 2]}, "bad function spec"),
    ({"kind": "tds", "range": 2.5, "fprime": {"kind": "builtin", "name": "one"}},
     "'range' must be an integer, got 2.5"),
    ({"kind": "tds", "range": "2", "fprime": {"kind": "builtin", "name": "one"}}, "'range'"),
    ({"kind": "tds", "range": False, "fprime": {"kind": "builtin", "name": "one"}}, "'range'"),
])
def test_malformed_spec_is_a_config_error_naming_what_is_wrong(spec, named):
    with pytest.raises(ConfigError, match=named):
        function_from_spec(spec)


def test_float_fprime_tds_is_refused():
    # the exact binary Fractions of vonMangoldt's floats would make an exact t.d.s.
    with pytest.raises(ValueError, match="floats"):
        function_from_spec({'kind': 'tds', 'range': 3,
                            'fprime': {'kind': 'builtin', 'name': 'vonMangoldt'}})
    # a zero float is an exact 0
    f = function_from_spec({"kind": "tds", "range": 3,
                            "fprime": {"kind": "table", "values": [0.0, 1, 0.0]}})
    assert f.is_exact and f.tds.fprime == [0, 1, 0]
    assert all(type(v) is int for v in f.tds.fprime)


def test_builtin_eval_range_matches_pointwise():
    for name in ("one", "id", "mu", "phi", "lambda", "indicator-squares", "d_3"):
        f = ArithmeticFunction.builtin(name)
        arr = f.eval_range(200)
        for n in range(1, 201):
            assert int(arr[n - 1]) == f(n), (name, n)


def test_rational_table_eval_range_is_fractions():
    # an ExactList of the table's own entries, the tail past the table is 0
    half = Fraction(1, 2)
    vals = ArithmeticFunction.table([3, half, Fraction(1, 4)]).eval_range(4)
    assert isinstance(vals, ExactList) and vals == [3, half, Fraction(1, 4), 0]
    assert [type(v) for v in vals] == [int, Fraction, Fraction, int] and vals[1] is half
    assert scale(vals) == ((12, 2, 1, 0), 4)


def test_float_table_eval_range_is_float64():
    # one float makes the table inexact: float64 values, zero past the table
    f = ArithmeticFunction.table([3, Fraction(1, 2), 0.1])
    assert not f.is_exact
    vals = f.eval_range(4)
    assert vals.dtype == np.float64
    assert vals.tolist() == [3.0, 0.5, 0.1, 0.0]
