"""References for the language layer: the factor-language check that
``LanguageOracle`` once ran on every construction, and the per-word
extension analysis.

Each builder in ``src/`` now guarantees the factor-language invariants
where they can fail; tests call :func:`check_factor_language` on
hand-built languages and compare it with ``oracle_from_prefix``'s
refusals.  :func:`extensions` reads one factor's left, right and
two-sided extensions off the stored levels, one membership probe each;
its :class:`ExtensionRecord` gives Cassaigne's multiplicity and the
dendric test.  The bulk tables (``LanguageOracle.special_strings`` and
``LanguageOracle.bispecials``) are checked against it.
"""

from __future__ import annotations

from dataclasses import dataclass

from shiftlab._graphutil import is_weakly_connected
from shiftlab.errors import InvariantViolation, ShiftlabError
from shiftlab.language import LanguageOracle
from shiftlab.words import Word


class NotAFactor(ShiftlabError):
    """The queried word is not in the language."""


def check_factor_language(oracle: LanguageOracle) -> LanguageOracle:
    """Raise :class:`InvariantViolation` unless every alphabet symbol is a
    factor, the levels are factor-closed, and every word of length at most
    ``horizon - 2`` has a two-sided extension; return ``oracle``."""
    levels = {n: oracle.factor_strings(n) for n in range(1, oracle.horizon + 1)}
    for code in oracle.alphabet.codes:
        if code not in levels[1]:
            raise InvariantViolation(
                f"alphabet symbol {oracle.alphabet.render(code)!r} never occurs "
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


@dataclass(frozen=True)
class ExtensionRecord:
    """One- and two-sided extensions of a factor, with multiplicity."""

    word: Word
    left: frozenset[str]  # symbol tokens
    right: frozenset[str]
    both: frozenset[tuple[str, str]]

    @property
    def multiplicity(self) -> int:
        return len(self.both) - len(self.left) - len(self.right) + 1

    @property
    def is_bispecial(self) -> bool:
        return len(self.left) >= 2 and len(self.right) >= 2

    @property
    def is_dendric(self) -> bool:
        """The bipartite graph on the left and right extensions, with an
        edge per two-sided extension, is a tree."""
        verts = [("L", a) for a in sorted(self.left)]
        verts += [("R", b) for b in sorted(self.right)]
        edges = ((("L", a), ("R", b)) for a, b in self.both)
        return (
            is_weakly_connected(verts, edges)
            and len(self.both) == len(verts) - 1
        )


def extensions(oracle: LanguageOracle, w: Word) -> ExtensionRecord:
    """Exact extension sets of ``w``, read off the stored factor sets."""
    n = len(w)
    oracle.require_length(n + 2, "extension query")
    if not oracle.contains(w):
        raise NotAFactor(f"not a factor: {w}")
    lvl1 = oracle.factor_strings(n + 1)
    lvl2 = oracle.factor_strings(n + 2)
    tok = oracle.alphabet.render
    codes = oracle.alphabet.codes
    left = frozenset(tok(a) for a in codes if a + w.data in lvl1)
    right = frozenset(tok(b) for b in codes if w.data + b in lvl1)
    both = frozenset(
        (tok(a), tok(b))
        for a in codes
        for b in codes
        if a + w.data + b in lvl2
    )
    return ExtensionRecord(w, left, right, both)
