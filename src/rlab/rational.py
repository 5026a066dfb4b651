"""Exact rational helpers built on fractions.Fraction.

Fraction already guarantees the invariants we need (reduced form, positive
denominator, arbitrary precision), so this module only adds the pieces the
rest of the package leans on: one shared denominator for a rational sequence
(`scale`), the immutable `ExactList` that keeps that scaled form once worked
out, exact summation on top of it, and the "p/q" string serialization used by
every CSV/JSON surface.

The values and Moebius transform of a rational correlation are ExactLists:
`scale` of such a sequence is computed on first use and read from the list
afterwards, so the kernels and dots of every later call start from the same
numerators.  The exact value objects `TruncatedDivisorSum` and
`FiniteExpansion` (the one object for a finite coefficient sequence, the
shift coefficients of a cut included) hold the pair once, as `scaled`, and
their `.fprime`/`.fhat` is an ExactList.  A scaled result goes through
`canonical` (one common gcd), which makes it the pair `scale` would give for
its values; the two duality objects hold only that pair until their
`.fprime`/`.fhat` is first read, and a standard finite expansion until its
`.coefficients` is: `BuiltOnRead` builds each such field.
`freeze` is the one place that decides whether a value sequence is
integer, rational or float, and the value objects read their input through
it; table values, `eval_range` and the tables of `transforms.eratosthenes`
are its shapes.  Fraction lists are built only where a function returns
Fraction values (`ExactList.over`, as a rational Eratosthenes table does),
where such a field is read, and at the CSV/JSON boundary.
"""

from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
import re

import numpy as np

from . import kernels


class ExactList(list):
    """An immutable list of ints and Fractions that carries its scaled form.

    It indexes, slices (to a plain list) and compares like the list it was
    built from, but refuses every in-place change, so the (nums, den) that
    `scale` works out on first use can never go stale.
    """
    __slots__ = ("_scaled",)

    def __init__(self, values=()):
        super().__init__(values)
        self._scaled = None

    @classmethod
    def of(cls, values) -> "ExactList":
        """values as an ExactList: ints and Fractions kept as they are (a numpy
        array read through `tolist`), any other number converted to its exact
        Fraction (a numpy int through int, so no fixed-width numerator stays
        inside)."""
        if isinstance(values, cls):
            return values
        if isinstance(values, np.ndarray):
            values = values.tolist()
        return cls(v if isinstance(v, (int, Fraction)) else
                   Fraction(int(v) if isinstance(v, np.integer) else v)
                   for v in values)

    @classmethod
    def over(cls, nums, den) -> "ExactList":
        """The Fractions nums[i] / den (Python ints), with their scaled form
        already known: the `canonical` pair."""
        nums, den = scaled = canonical(nums, den)
        out = cls(Fraction(n, den) for n in nums)
        out._scaled = scaled
        return out

    # the two reads of a numpy array, so every shape of `freeze` gives Python numbers
    item = list.__getitem__

    def tolist(self) -> list:
        return list(self)

    def _immutable(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} is immutable: its scaled form is cached")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _immutable
    append = extend = insert = pop = remove = clear = sort = reverse = _immutable

    def __reduce__(self):
        return type(self), (list(self),)


class BuiltOnRead:
    """The sequence field of an object that holds only its canonical pair, as
    the attribute `scaled`: the first read builds the ExactList of Fractions
    nums[i] / den, which keeps the pair as its scaled form, and stores it as
    the field.  A non-data descriptor, so a field already set (by __init__ or
    a first read) is read without it; the class itself has no value for the
    field, so a dataclass field holding it has no default."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)
        values = obj.__dict__[self.name] = ExactList.over(*obj.scaled)
        return values


def scale(values) -> tuple:
    """(nums, den): exact rationals as Python-int numerators over their least
    common denominator, so nums[i] / den == values[i] for every i.

    This is the one place a rational sequence is put over one denominator:
    the integer kernels then run on nums, and callers divide by den once at
    the end.  An ExactList computes the pair once and returns it on every
    later call; an integer numpy array is already over 1 and is returned as
    it stands.
    """
    if isinstance(values, ExactList):
        if values._scaled is None:
            values._scaled = _scale(values)
        return values._scaled
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return values, 1
    return _scale(values)


_EXACT_TYPES = frozenset((int, Fraction))


def freeze(values):
    """values as one of three immutable shapes: the one place that decides
    whether a finite value sequence is integer, rational or float.  Some
    nonzero float gives a read-only float64 array ("float"); else all values
    integral give a read-only `kernels.int_array` ("int"); else an ExactList
    ("rational").  A zero float is an exact 0, ints and Fractions are taken
    as they stand, and every other number goes through `ExactList.of`.  A
    read-only integer array or nonzero float64 array and a non-integral
    ExactList are returned as they stand (the latter keeps its scaled form),
    and everything else is copied."""
    if isinstance(values, np.ndarray) and (values.dtype.kind in "iu" or
                                           values.dtype == np.float64 and values.any()):
        return kernels.read_only(values.copy() if values.flags.writeable else values)
    if not isinstance(values, ExactList):
        vals = values.tolist() if isinstance(values, np.ndarray) else list(values)
        if _EXACT_TYPES.issuperset(map(type, vals)):
            values = ExactList(vals)
        elif any(isinstance(v, (float, np.floating)) and v for v in vals):
            return kernels.read_only(np.array(vals, dtype=np.float64))
        else:
            values = ExactList.of(0 if isinstance(v, (float, np.floating)) else v
                                  for v in vals)
    if all(v.denominator == 1 for v in values):
        return kernels.read_only(kernels.int_array(values))
    return values


def value_kind(values) -> str:
    """"int", "rational" or "float": the kind of a shape of `freeze`."""
    if isinstance(values, ExactList):
        return "rational"
    return "float" if values.dtype.kind == "f" else "int"


def head(values, n: int):
    """`freeze` of the first n entries of a shape of `freeze`, zero past its
    end; an array prefix that keeps its kind is a read-only view."""
    if len(values) == n:
        return values
    if isinstance(values, ExactList):
        return freeze(ExactList(values[:n] + [0] * (n - len(values))))
    if n > len(values):
        values = kernels.read_only(
            np.concatenate([values, np.zeros(n - len(values), values.dtype)]))
    return freeze(values[:n])


def _scale(values) -> tuple:
    return scale_pairs([(int(v.numerator), int(v.denominator)) for v in values])


# distinct denominators per lcm call in `scale_pairs`' tree
_LCM_CHUNK = 32


def scale_pairs(pairs, den: int = 1) -> tuple:
    """(nums, den) for the rationals n / d given as reduced integer pairs
    (n, d), d > 0: den is the lcm of the d and of the given den (1 for no
    pairs and the default), and nums[i] = n_i * (den // d_i).  A caller that
    holds numerators over some den passes it, so that they reach the new den
    by one multiply each.

    `math.lcm` folds left, so each step of one call over many denominators
    works on the grown bignum.  Past _LCM_CHUNK distinct denominators the lcm
    is taken as a tree instead: one call per chunk of _LCM_CHUNK, then over
    the chunk results, until one value is left (10^4 denominators d^3: about
    0.04 s against 0.5 s).  Up to _LCM_CHUNK it is the one call it was.
    """
    dens = {den, *(d for _, d in pairs)}
    while len(dens) > _LCM_CHUNK:
        dens = list(dens)
        dens = [lcm(*dens[i:i + _LCM_CHUNK]) for i in range(0, len(dens), _LCM_CHUNK)]
    den = lcm(*dens)
    return tuple(n * (den // d) for n, d in pairs), den


def sum_pairs(pairs) -> tuple:
    """(num, den) with num / den the sum of the rationals n / d given as
    reduced integer pairs (n, d), d > 0, and den the lcm of the d ((0, 1)
    for no pairs); num / den need not be reduced.

    The pairs are summed pairwise, level by level: each node merges
    a/b + c/d over lcm(b, d) with one gcd, so the bignums grow only towards
    the root.  For one sum over many large denominators this is cheaper than
    putting every term over the full lcm first; `scale_pairs` stays the
    route where many partials share one scaling."""
    level = list(pairs)
    if not level:
        return 0, 1
    while len(level) > 1:
        merged = []
        for (a, b), (c, d) in zip(level[::2], level[1::2]):
            g = gcd(b, d)
            merged.append((a * (d // g) + c * (b // g), b // g * d))
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    return level[0]


def canonical(nums, den) -> tuple:
    """(nums, den) divided by their one common gcd.  Afterwards each prime of
    den misses some numerator, so den is the lcm of the reduced denominators
    of the nums[i] / den, as `scale` gives it: two sequences of equal values
    have equal canonical pairs."""
    g = gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple(n // g for n in nums), den // g


def ratio(num: int, den: int):
    """num / den as an int when it is integral, else as a Fraction."""
    if den == 1:
        return num
    v = Fraction(num, den)
    return v.numerator if v.denominator == 1 else v


def exact_sum(terms) -> Fraction:
    """Exact sum of Fractions via a single common denominator.

    Summing n Fractions pairwise costs a gcd per step on ever-growing
    denominators; for dense sums like sum 1/d^3 over d <= 1e4 that is minutes.
    Accumulating integer numerators over lcm(denominators) and reducing once
    is linear in the bignum size.
    """
    nums, den = scale(terms)
    return Fraction(sum(nums), den)


def _int_str(n: int) -> str:
    """Decimal digits of n at any length: Decimal converts both ways without
    the interpreter's limit on int-to-str conversion, and is exact."""
    return str(Decimal(n))


def format_rational(v) -> str:
    """Serialize ints and Fractions of any length; integral values drop the
    denominator."""
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return _int_str(v.numerator)
        return f"{_int_str(v.numerator)}/{_int_str(v.denominator)}"
    if isinstance(v, int):
        return _int_str(v)
    return str(v)


_INT_RATIO = re.compile(r"\s*([-+]?\d+)\s*(?:/\s*(\d+)\s*)?\Z")


def parse_rational(s) -> Fraction:
    """Parse "p/q" or plain integer strings of any length; every other form
    Fraction accepts ("1.5", "2e3", ...) goes to Fraction as before."""
    m = _INT_RATIO.match(str(s))
    if not m:
        return Fraction(str(s))
    num, den = m.groups()
    return Fraction(int(Decimal(num)), int(Decimal(den)) if den else 1)
