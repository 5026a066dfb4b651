"""Exact rational helpers built on fractions.Fraction.

Fraction already guarantees the invariants we need (reduced form, positive
denominator, arbitrary precision), so this module only adds the pieces the
rest of the package leans on: one shared denominator for a rational sequence,
exact summation on top of it, and the "p/q" string serialization used by
every CSV/JSON surface.
"""

from fractions import Fraction
from math import lcm

import numpy as np

Rational = Fraction


def scale(values) -> tuple:
    """(nums, den): exact rationals as Python-int numerators over their least
    common denominator, so nums[i] / den == values[i] for every i.

    This is the one place a rational sequence is put over one denominator:
    the integer kernels then run on nums, and callers divide by den once at
    the end.  An integer numpy array is already over 1 and is returned as it
    stands.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind == "i":
        return values, 1
    pairs = [(int(v.numerator), int(v.denominator)) for v in values]
    den = lcm(*{d for _, d in pairs})
    return [n * (den // d) for n, d in pairs], den


def exact_sum(terms) -> Fraction:
    """Exact sum of Fractions via a single common denominator.

    Summing n Fractions pairwise costs a gcd per step on ever-growing
    denominators; for dense sums like sum 1/d^3 over d <= 1e4 that is minutes.
    Accumulating integer numerators over lcm(denominators) and reducing once
    is linear in the bignum size.
    """
    nums, den = scale(terms)
    return Fraction(sum(nums), den)


def exact_dot(fracs, ints) -> Fraction:
    """Exact sum of f_i * k_i with f_i Fraction and k_i int."""
    return exact_sum(f * k for f, k in zip(fracs, ints) if k)


def format_rational(v) -> str:
    """Serialize ints and Fractions; integral values drop the denominator."""
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def parse_rational(s) -> Fraction:
    """Parse "p/q" or plain integer strings (Fraction accepts both)."""
    return Fraction(str(s))
