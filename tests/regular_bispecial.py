"""Reference for ``check_rbc``: the regular-bispecial test for one word,
read off its extension sets and the special sets one letter longer."""

from __future__ import annotations

from dataclasses import dataclass

from shiftlab.errors import PreconditionFailure
from shiftlab.language import LanguageOracle, _irregularity, extensions
from shiftlab.words import Word


@dataclass(frozen=True)
class RegularityVerdict:
    """Outcome of the regular-bispecial test for one word."""

    word: Word
    regular: bool
    left_witness: str | None  # the unique a with aw right special
    right_witness: str | None  # the unique b with wb left special
    reason: str | None = None


def is_regular_bispecial(oracle: LanguageOracle, w: Word) -> RegularityVerdict:
    """Test whether exactly one right extension of ``w`` is left special
    and exactly one left extension is right special."""
    n = len(w)
    oracle.require_length(n + 3, "regularity test")
    rec = extensions(oracle, w)
    if not rec.is_bispecial:
        raise PreconditionFailure(f"not bispecial: {w}")
    left_special_above = oracle.special_strings(n + 1, "left")
    right_special_above = oracle.special_strings(n + 1, "right")
    good_b = sorted(
        b for b in rec.right if w.data + oracle.alphabet.code(b) in left_special_above
    )
    good_a = sorted(
        a for a in rec.left if oracle.alphabet.code(a) + w.data in right_special_above
    )
    if len(good_b) == 1 and len(good_a) == 1:
        return RegularityVerdict(w, True, good_a[0], good_b[0])
    return RegularityVerdict(w, False, None, None, _irregularity(good_b, good_a))
