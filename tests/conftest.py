"""Shared fixtures: language oracles and sequence prefixes built once."""

from fractions import Fraction

import pytest

from shiftlab.generators import (
    IETSpec,
    fibonacci_prefix,
    iet_encode,
    oracle_from_prefix,
    thue_morse_prefix,
)
from shiftlab.language import LanguageOracle
from shiftlab.words import Alphabet


IET3_SPEC = IETSpec(
    (Fraction(169, 408), Fraction(233, 610), Fraction(25363, 124440)),
    (3, 2, 1),
    Fraction(1, 7),
)

IET4_SPEC = IETSpec(
    (
        Fraction(670085, 2688988),
        Fraction(154479, 672247),
        Fraction(592127, 2688988),
        Fraction(202215, 672247),
    ),
    (4, 3, 2, 1),
    Fraction(1, 7),
)


@pytest.fixture(scope="session")
def ab():
    return Alphabet(("a", "b"))


@pytest.fixture(scope="session")
def zo():
    return Alphabet(("0", "1"))


@pytest.fixture(scope="session")
def fib_prefix():
    return fibonacci_prefix(100000)


@pytest.fixture(scope="session")
def fib_oracle(fib_prefix):
    return oracle_from_prefix(fib_prefix, 30)


@pytest.fixture(scope="session")
def fib_oracle_wide(fib_prefix):
    return oracle_from_prefix(fib_prefix, 60)


@pytest.fixture(scope="session")
def tm_oracle():
    return oracle_from_prefix(thue_morse_prefix(20000), 24)


@pytest.fixture(scope="session")
def full_shift_2(zo):
    return LanguageOracle.full_shift(zo, 14)


@pytest.fixture(scope="session")
def iet3_prefix():
    prefix, diag = iet_encode(IET3_SPEC, 100000)
    assert not diag.violated
    return prefix


@pytest.fixture(scope="session")
def iet3_oracle(iet3_prefix):
    return oracle_from_prefix(iet3_prefix, 30)


@pytest.fixture(scope="session")
def periodic01_oracle(zo):
    from shiftlab.generators import SequencePrefix

    x = SequencePrefix.from_tokens(zo, "01" * 40, "(01)^inf prefix")
    return oracle_from_prefix(x, 8)
