"""Reference for the oracle builders: the factor-language check that
``LanguageOracle`` once ran on every construction.

Each builder in ``src/`` now guarantees these invariants where they can
fail; tests call this check on hand-built languages and compare it with
``oracle_from_prefix``'s refusals.
"""

from __future__ import annotations

from shiftlab.errors import InvariantViolation
from shiftlab.language import LanguageOracle


def check_factor_language(oracle: LanguageOracle) -> LanguageOracle:
    """Raise :class:`InvariantViolation` unless every alphabet symbol is a
    factor, the levels are factor-closed, and every word of length at most
    ``horizon - 2`` has a two-sided extension; return ``oracle``."""
    levels = {n: oracle.factor_strings(n) for n in range(1, oracle.horizon + 1)}
    for code in oracle.alphabet.codes:
        if code not in levels[1]:
            raise InvariantViolation(
                f"alphabet symbol {oracle.alphabet.token(code)!r} never occurs "
                "as a factor"
            )
    for n in range(2, oracle.horizon + 1):
        below = levels[n - 1]
        for w in levels[n]:
            if w[1:] not in below or w[:-1] not in below:
                raise InvariantViolation(f"factor closure fails at length {n}: {w!r}")
    for n in range(1, oracle.horizon - 1):
        middles = {w[1:-1] for w in levels[n + 2]}
        for w in levels[n]:
            if w not in middles:
                raise InvariantViolation(
                    f"extendability fails: no two-sided extension of a "
                    f"length-{n} factor within the data"
                )
    return oracle
