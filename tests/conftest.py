import random
from fractions import Fraction

import pytest
from hypothesis import settings, strategies as st


@pytest.fixture
def rng():
    return random.Random(20170919)


def rand_rational(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 8))


def rand_table(rng, length: int) -> list:
    return [rand_rational(rng) for _ in range(length)]


# hypothesis strategy for the same rationals: numerators in [-9, 9] over
# denominators up to 8
RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=8)
PROPERTY = settings(max_examples=40, deadline=None)
