"""Integer and multiplicative-function primitives.

Factorization is trial division against a sieved prime list (complete for
n <= 1e12, since the cofactor left after dividing out primes <= 1e6 is
prime), with Pollard rho above that; a larger part is proven prime by
Miller-Rabin to the bases 2..41, deterministic below psi_13 ~ 3.3e24, and a
part at or above psi_13 that passes raises ValueError.  Once trial division
passes 2**10, a cofactor below psi_13 is tested there and again after each
new prime factor, and a prime one ends the loop, so a prime such as
2**61 - 1 is not divided by every sieved prime.
`factor` is memoised: one bounded `lru_cache` keeps the 4096 most recently
factored values, so callers such as `mu`, `phi` and the closed form of
c_q(n) factor each modulus once; the shared `FactoredInteger` results are
frozen.  `divisors` is memoised beside it, as a tuple in a second bounded
`lru_cache` of 4096 values, and returns a fresh sorted list copied from it,
so a caller that changes its list changes no later call's result.
Arithmetic functions are modeled by a closed builtin registry plus user
tables and truncated divisor sums.  A table's values and every `eval_range`
are `rational.freeze` shapes; floats come only from the von Mangoldt builtin
and from tables holding a nonzero float, and are excluded from
exact-identity work.
"""

from dataclasses import dataclass
from functools import lru_cache
import math
import random

import numpy as np

from . import kernels
from .rational import freeze, head, parse_rational, value_kind

_SIEVE_LIMIT = 10 ** 6
# the smallest strong pseudoprime to the 13 bases 2..41 (Sorenson and
# Webster, Math. Comp. 86 (2017)): Miller-Rabin to them decides primality below
_PSI_13 = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=1)
def _small_primes() -> np.ndarray:
    return kernels.prime_sieve(_SIEVE_LIMIT)


@dataclass(frozen=True)
class FactoredInteger:
    """n together with its factorization [(p, e), ...], primes increasing."""
    n: int
    factors: tuple

    def __iter__(self):
        return iter(self.factors)


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the bases 2..41; a pass at or above psi_13 raises."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    if n >= _PSI_13:
        raise ValueError(f"{n} is a strong probable prime to the bases 2..41, which "
                         f"prove primality only below psi_13 = {_PSI_13}")
    return True


def _pollard_rho(n: int, rng: random.Random) -> int:
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


@lru_cache(maxsize=4096, typed=True)
def factor(n: int) -> FactoredInteger:
    """Factorization of n >= 1 (memoised), exact wherever it returns: a part
    at or above psi_13 ~ 3.3e24 that Miller-Rabin cannot prove prime raises
    ValueError.  Once trial division passes p = 2**10, a cofactor m > p**2
    below psi_13 is tested: at the first such p, and again after each prime
    factor past 2**10 is divided out.  A prime m ends the loop, and a
    composite one goes on through it."""
    if n < 1:
        raise ValueError(f"factor requires n >= 1, got {n}")
    m = n
    out = []
    test, prime = True, False   # test m at the next prime past 2**10
    for p in _small_primes():
        p = int(p)
        if p * p > m:
            break
        if test and p > 1 << 10 and m < _PSI_13:
            test = False
            prime = _is_probable_prime(m)
            if prime:
                break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
            test = test or p > 1 << 10
        if m == 1:
            break
    if m > 1:
        if prime or m <= _SIEVE_LIMIT * _SIEVE_LIMIT or _is_probable_prime(m):
            out.append((m, 1))
        else:
            # beyond trial-division reach; split with Pollard rho (seeded)
            rng = random.Random(n)
            stack = [m]
            found = {}
            while stack:
                v = stack.pop()
                if _is_probable_prime(v):
                    found[v] = found.get(v, 0) + 1
                    continue
                d = _pollard_rho(v, rng)
                stack.extend((d, v // d))
            out.extend(sorted(found.items()))
    out.sort()
    return FactoredInteger(n, tuple(out))


def divisors(n: int) -> list:
    """Sorted list of the positive divisors of n, a fresh list on every call
    (read from the memoised tuple `_divisors`)."""
    return list(_divisors(n))


@lru_cache(maxsize=4096, typed=True)
def _divisors(n: int) -> tuple:
    divs = [1]
    for p, e in factor(n):
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return tuple(sorted(divs))


def mu(n: int) -> int:
    out = 1
    for _, e in factor(n):
        if e > 1:
            return 0
        out = -out
    return out


def phi(n: int) -> int:
    out = n
    for p, _ in factor(n):
        out -= out // p
    return out


def omega(n: int) -> int:
    return len(factor(n).factors)


def liouville(n: int) -> int:
    return -1 if sum(e for _, e in factor(n)) % 2 else 1


def von_mangoldt(n: int) -> float:
    fs = factor(n).factors
    if len(fs) == 1:
        return math.log(fs[0][0])
    return 0.0


def is_square(n: int) -> int:
    r = math.isqrt(n)
    return 1 if r * r == n else 0


def d_k(n: int, k: int) -> int:
    """Number of ordered k-tuples of positive integers with product n."""
    if k < 1:
        raise ValueError("k >= 1 required")
    out = 1
    for _, e in factor(n):
        out *= math.comb(e + k - 1, k - 1)
    return out


# ---------------------------------------------------------------------------
# arithmetic functions
# ---------------------------------------------------------------------------

_BUILTIN_SINGLE = {
    "one": lambda n: 1,
    "id": lambda n: n,
    "mu": mu,
    "phi": phi,
    "lambda": liouville,
    "vonMangoldt": von_mangoldt,
    "indicator-squares": is_square,
}


def _builtin_range(name: str, nmax: int) -> np.ndarray:
    if name == "one":
        v = np.ones(nmax + 1, dtype=np.int64)
        v[0] = 0
        return v
    if name == "id":
        return np.arange(nmax + 1, dtype=np.int64)
    if name == "mu":
        return kernels.mobius_sieve(nmax)
    if name == "phi":
        return kernels.totient_sieve(nmax)
    if name == "lambda":
        return kernels.liouville_sieve(nmax)
    if name == "indicator-squares":
        v = np.zeros(nmax + 1, dtype=np.int64)
        k = 1
        while k * k <= nmax:
            v[k * k] = 1
            k += 1
        return v
    if name == "vonMangoldt":
        # a prime above isqrt(nmax) has no higher power in range: one
        # indexed update sets all of them
        v = np.zeros(nmax + 1, dtype=np.float64)
        primes = kernels.prime_sieve(nmax)
        split = int(np.searchsorted(primes, math.isqrt(nmax), side="right"))
        for p in primes[:split].tolist():
            lp = math.log(p)
            pk = p
            while pk <= nmax:
                v[pk] = lp
                pk *= p
        large = primes[split:]
        v[large] = [math.log(p) for p in large.tolist()]
        return v
    if name.startswith("d_"):
        k = int(name[2:])
        v = np.ones(nmax + 1, dtype=np.int64)
        v[0] = 0
        for _ in range(k - 1):
            v = kernels.divisor_scatter_int(v)
        return v
    raise KeyError(name)


def _is_builtin(name: str) -> bool:
    if name in _BUILTIN_SINGLE:
        return True
    if name.startswith("d_"):
        try:
            return int(name[2:]) >= 1
        except ValueError:
            return False
    return False


class ArithmeticFunction:
    """Total map on positive integers: builtin, finite table, or t.d.s.

    Tables are 1-based; evaluation at an index past a table's end either
    yields zero or raises, per the table's `after` policy.  A table's
    `values` are frozen once (`rational.freeze`), so `is_exact` (False for the
    von Mangoldt builtin and a table holding a nonzero float) reads a shape.

    `wintner_terms` is None until `expansions.standard_finite_expansion`
    stores there an `expansions.WintnerTerms` (bound, terms, den, values,
    values_den): terms[d - 1] / den == fprime(d) / d and
    values[d - 1] / values_den == F(d) for d <= bound, each a list of Python
    ints over the lcm of its reduced denominators.  A later point past the
    bound grows both lists in place of a rebuild.  The values never change,
    so the held state cannot go stale.
    """

    def __init__(self, kind, name=None, values=None, after="zero", tds=None):
        if kind not in ("builtin", "table", "tds"):
            raise ValueError(f"unknown function kind {kind!r}")
        self.kind = kind
        self.name = name
        self.after = after
        self.tds = tds
        self.wintner_terms = None
        if kind == "builtin":
            if not _is_builtin(name):
                raise ValueError(f"unknown builtin {name!r} (registry is closed)")
        elif kind == "table":
            if after not in ("zero", "error"):
                raise ValueError("table 'after' policy must be 'zero' or 'error'")
            self.values = freeze(values)
        elif kind == "tds":
            if tds is None:
                raise ValueError("tds kind needs a TruncatedDivisorSum")

    # -- constructors -------------------------------------------------------

    @classmethod
    def builtin(cls, name: str) -> "ArithmeticFunction":
        return cls("builtin", name=name)

    @classmethod
    def table(cls, values, after="zero") -> "ArithmeticFunction":
        return cls("table", values=values, after=after)

    @classmethod
    def from_tds(cls, tds) -> "ArithmeticFunction":
        return cls("tds", tds=tds)

    # -- metadata -----------------------------------------------------------

    @property
    def is_exact(self) -> bool:
        if self.kind == "builtin":
            return self.name != "vonMangoldt"
        if self.kind == "table":
            return value_kind(self.values) != "float"
        return True     # a t.d.s. holds ints and Fractions only

    def __repr__(self):
        if self.kind == "builtin":
            return f"ArithmeticFunction(builtin:{self.name})"
        if self.kind == "table":
            return f"ArithmeticFunction(table[{len(self.values)}],after={self.after})"
        return f"ArithmeticFunction(tds,range={self.tds.range})"

    # -- evaluation ---------------------------------------------------------

    def __call__(self, n: int):
        if n < 1:
            raise ValueError(f"arithmetic functions are 1-based, got n={n}")
        if self.kind == "builtin":
            if self.name.startswith("d_"):
                return d_k(n, int(self.name[2:]))
            return _BUILTIN_SINGLE[self.name](n)
        if self.kind == "table":
            if n <= len(self.values):
                return self.values.item(n - 1)
            if self.after == "zero":
                return 0
            raise IndexError(f"table of length {len(self.values)} has no value at n={n}")
        return self.tds.eval(n)

    def eval_range(self, nmax: int):
        """Values on 1..nmax as a frozen shape (`rational.freeze`): a
        read-only integer array (int64, or Python ints past 2**63), an
        ExactList of non-integral rationals, or a read-only float64 array."""
        if self.kind == "builtin":
            return kernels.read_only(_builtin_range(self.name, nmax)[1:])
        if self.kind == "table":
            if nmax > len(self.values) and self.after == "error":
                raise IndexError(
                    f"table of length {len(self.values)} has no value at n={len(self.values) + 1}")
            return head(self.values, nmax)
        return self.tds.eval_range(nmax)


# ---------------------------------------------------------------------------
# function-registry JSON (rationals travel as "p/q" strings)
# ---------------------------------------------------------------------------

class ConfigError(ValueError):
    """Input that breaks its documented schema: an experiment config, a
    function spec or a data file.  The command line reads it as a usage
    error (exit 2)."""


class Spec(dict):
    """A JSON object given as input: reading a key it lacks, or reading a
    value of the wrong type through `typed`, raises a ConfigError naming the
    key."""

    def __missing__(self, key):
        raise ConfigError(f"missing key {key!r}")

    def typed(self, key, *types):
        """self[key], refused unless it is an instance of one of types."""
        value = self[key]
        if not isinstance(value, types):
            want = " or ".join(t.__name__ for t in types)
            raise ConfigError(f"key {key!r} must be a {want}, "
                              f"got {type(value).__name__}")
        return value

    def integer(self, key) -> int:
        """self[key] as an int: an int, or a float of integral value, as
        `limits.check_grid` reads a grid value (2.0 is 2).  A bool, any other
        type and a non-integral number raise a ConfigError naming the key."""
        value = self.typed(key, int, float)
        if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"key {key!r} must be an integer, got {value!r}")
        return int(value)


def function_from_spec(spec: dict) -> ArithmeticFunction:
    if not isinstance(spec, dict):
        raise ConfigError(f"bad function spec: {spec!r}")
    spec = Spec(spec)
    kind = spec.get("kind")
    if kind == "builtin":
        return ArithmeticFunction.builtin(spec["name"])
    if kind == "table":
        vals = [v if isinstance(v, int) else parse_rational(v)
                for v in spec.typed("values", list)]
        return ArithmeticFunction.table(vals, after=spec.get("after", "zero"))
    if kind == "tds":
        from .finite import TruncatedDivisorSum
        q = spec.integer("range")
        inner = function_from_spec(spec["fprime"])
        return ArithmeticFunction.from_tds(TruncatedDivisorSum(q, inner.eval_range(q)))
    raise ConfigError(f"bad function spec: {spec!r}")
