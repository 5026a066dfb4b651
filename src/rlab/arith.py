"""Integer and multiplicative-function primitives.

Factorization is deterministic trial division against a sieved prime list
(covers n <= 1e12, since the cofactor left after dividing out primes <= 1e6
is prime), with Pollard rho above that.  `factor` is memoised: one bounded
`lru_cache` keeps the 4096 most recently factored values, so callers such as
`mu`, `phi` and the closed form of c_q(n) factor each modulus once; the
shared `FactoredInteger` results are frozen.  Arithmetic functions are
modeled by a closed builtin registry plus user tables and truncated divisor
sums; values are ints, Fractions, or floats (floats only for the von
Mangoldt function, which is excluded from exact-identity work).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import math
import random

import numpy as np

from . import kernels
from .rational import scale

_SIEVE_LIMIT = 10 ** 6
_FACTOR_LIMIT = 10 ** 12


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
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # deterministic witness set for n < 3.3e24
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
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
    """Deterministic factorization of n >= 1 (memoised)."""
    if n < 1:
        raise ValueError(f"factor requires n >= 1, got {n}")
    m = n
    out = []
    for p in _small_primes():
        p = int(p)
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        if m == 1:
            break
    if m > 1:
        if m <= _SIEVE_LIMIT * _SIEVE_LIMIT or _is_probable_prime(m):
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
    """Sorted list of the positive divisors of n."""
    divs = [1]
    for p, e in factor(n):
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


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
    yields zero or raises, per the table's `after` policy.  `is_exact` is
    False for the float-valued von Mangoldt builtin and for a table holding a
    float.
    """

    def __init__(self, kind, name=None, values=None, after="zero", tds=None):
        if kind not in ("builtin", "table", "tds"):
            raise ValueError(f"unknown function kind {kind!r}")
        self.kind = kind
        self.name = name
        self.after = after
        self.tds = tds
        if kind == "builtin":
            if not _is_builtin(name):
                raise ValueError(f"unknown builtin {name!r} (registry is closed)")
        elif kind == "table":
            if after not in ("zero", "error"):
                raise ValueError("table 'after' policy must be 'zero' or 'error'")
            self.values = list(values)
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
            return all(isinstance(v, (int, Fraction)) for v in self.values)
        return True     # a t.d.s. holds ints and Fractions only

    @property
    def is_integer(self) -> bool:
        if self.kind == "builtin":
            return self.name != "vonMangoldt"
        if self.kind == "tds":
            return scale(self.tds.fprime)[1] == 1
        return all(isinstance(v, int) or
                   (isinstance(v, Fraction) and v.denominator == 1) for v in self.values)

    @property
    def bound(self):
        """Largest index guaranteed evaluable, or None when total on N."""
        if self.kind == "table" and self.after == "error":
            return len(self.values)
        return None

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
                return self.values[n - 1]
            if self.after == "zero":
                return 0
            raise IndexError(f"table of length {len(self.values)} has no value at n={n}")
        return self.tds.eval(n)

    def eval_range(self, nmax: int):
        """Values on 1..nmax: an integer numpy array (int64, or Python ints
        past 2**63), a float64 array for the von Mangoldt builtin and for a
        table holding a float, or a Fraction list when the table holds
        non-integer rationals."""
        if self.kind == "builtin":
            return _builtin_range(self.name, nmax)[1:]
        if self.kind == "table":
            if nmax > len(self.values) and self.after == "error":
                raise IndexError(
                    f"table of length {len(self.values)} has no value at n={len(self.values) + 1}")
            vals = self.values[:nmax]
            if self.is_integer:
                head = kernels.int_array(vals)
            elif any(isinstance(v, float) for v in self.values):
                # inexact: the values stay floats, none goes through Fraction
                head = np.array(vals, dtype=np.float64)
            else:
                return [v if isinstance(v, Fraction) else Fraction(v) for v in vals] + \
                    [Fraction(0)] * (nmax - len(vals))
            arr = np.zeros(nmax, dtype=head.dtype)
            arr[: len(vals)] = head
            return arr
        return self.tds.eval_range(nmax)

    def int_range(self, nmax: int) -> np.ndarray:
        """Values on 1..nmax as an integer array (int64 below 2**63, Python
        ints past it); caller guarantees is_integer."""
        return kernels.int_array(self.eval_range(nmax))


def dirichlet_convolve(f: ArithmeticFunction, g: ArithmeticFunction,
                       bound: int) -> ArithmeticFunction:
    """(f*g)(n) = sum_{d|n} f(d) g(n/d) on 1..bound, exact for exact inputs."""
    def as_py(values):
        return [int(v) if isinstance(v, np.integer) else v for v in values]

    fv = as_py(f.eval_range(bound))
    gv = as_py(g.eval_range(bound))
    out = [Fraction(0) if not f.is_integer or not g.is_integer else 0
           for _ in range(bound)]
    for d in range(1, bound + 1):
        a = fv[d - 1]
        if not a:
            continue
        for m in range(d, bound + 1, d):
            out[m - 1] += a * gv[m // d - 1]
    out = [int(v) if isinstance(v, (int, np.integer)) or
           (isinstance(v, Fraction) and v.denominator == 1) else v for v in out]
    return ArithmeticFunction.table(out, after="error")


# ---------------------------------------------------------------------------
# function-registry JSON (rationals travel as "p/q" strings)
# ---------------------------------------------------------------------------

def function_to_spec(f: ArithmeticFunction) -> dict:
    from .rational import format_rational
    if f.kind == "builtin":
        return {"kind": "builtin", "name": f.name}
    if f.kind == "table":
        vals = [v if isinstance(v, int) else format_rational(Fraction(v))
                for v in f.values]
        return {"kind": "table", "values": vals, "after": f.after}
    return {"kind": "tds", "range": f.tds.range,
            "fprime": {"kind": "table",
                       "values": [v if isinstance(v, int) else
                                  format_rational(Fraction(v)) for v in f.tds.fprime],
                       "after": "zero"}}


def function_from_spec(spec: dict) -> ArithmeticFunction:
    from .rational import parse_rational
    kind = spec.get("kind")
    if kind == "builtin":
        return ArithmeticFunction.builtin(spec["name"])
    if kind == "table":
        vals = [v if isinstance(v, int) else parse_rational(v)
                for v in spec["values"]]
        return ArithmeticFunction.table(vals, after=spec.get("after", "zero"))
    if kind == "tds":
        from .finite import TruncatedDivisorSum
        q = int(spec["range"])
        inner = function_from_spec(spec["fprime"])
        fprime = list(inner.eval_range(q))
        fprime = [int(v) if isinstance(v, (int, np.integer)) else Fraction(v)
                  for v in fprime]
        return ArithmeticFunction.from_tds(TruncatedDivisorSum(q, fprime))
    raise ValueError(f"bad function spec: {spec!r}")
