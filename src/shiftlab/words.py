"""Finite words over a fixed alphabet: occurrences, periodic powers, steps.

Words are immutable and carry their alphabet.  Internally a word is a
string of single-character codes (one per alphabet symbol), so windowing,
concatenation and substring search run at C speed regardless of how long
the user-facing symbol tokens are.

All positions in public signatures are 1-based and inclusive, matching
standard combinatorics-on-words notation ``w[i..j]``.  Every periodic
word, from powers to exit-word layouts, is read by :func:`periodic_stretch`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import AlphabetMismatch

if TYPE_CHECKING:  # pragma: no cover
    from .language import LanguageOracle

#: Pool of internal one-character codes; bounds the alphabet size.
CODE_CHARS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class Alphabet:
    """An ordered alphabet of distinct symbol tokens.

    The declaration order is total and fixed; every downstream operation
    that has to "choose one of several" breaks ties in this order.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must contain at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be pairwise distinct")
        if len(self.symbols) > len(CODE_CHARS):
            raise ValueError(f"alphabet larger than {len(CODE_CHARS)} symbols")
        if any(not s for s in self.symbols):
            raise ValueError("alphabet symbols must be nonempty strings")

    @cached_property
    def codes(self) -> str:
        return CODE_CHARS[: len(self.symbols)]

    @cached_property
    def _token_to_code(self) -> dict[str, str]:
        return {tok: CODE_CHARS[i] for i, tok in enumerate(self.symbols)}

    @cached_property
    def _code_set(self) -> frozenset[str]:
        return frozenset(self.codes)

    @cached_property
    def _code_to_token(self) -> dict[str, str]:
        return dict(zip(self.codes, self.symbols))

    @cached_property
    def _single_char_tokens(self) -> bool:
        return all(len(tok) == 1 for tok in self.symbols)

    @cached_property
    def _render_table(self) -> dict[int, str]:
        """``str.translate`` table from codes to tokens."""
        return str.maketrans(self._code_to_token)

    def code(self, token: str) -> str:
        try:
            return self._token_to_code[token]
        except KeyError:
            raise ValueError(f"unknown symbol {token!r}") from None

    def render(self, data: str) -> str:
        """The tokens of a code string: concatenated when every symbol is
        one character, joined by spaces otherwise."""
        if self._single_char_tokens:
            return data.translate(self._render_table)
        return " ".join(map(self._code_to_token.__getitem__, data))

    def word(self, tokens: str | Sequence[str]) -> Word:
        """Build a word from a token string or a sequence of tokens.

        A plain string is only accepted when every alphabet symbol is a
        single character, otherwise the split would be ambiguous.
        """
        if isinstance(tokens, str):
            if not self._single_char_tokens:
                raise ValueError(
                    "string input is ambiguous for multi-character symbols; "
                    "pass a sequence of tokens"
                )
            seq: Iterable[str] = tokens
        else:
            seq = tokens
        return Word(self, "".join(self.code(tok) for tok in seq))

    def word_from_codes(self, data: str) -> Word:
        return Word(self, data)


@dataclass(frozen=True)
class Word:
    """A nonempty finite word; ``data`` holds one code char per letter."""

    alphabet: Alphabet
    data: str

    def __post_init__(self):
        if not self.data:
            raise ValueError("the empty word is excluded")
        if not self.alphabet._code_set.issuperset(self.data):
            raise ValueError("word contains codes outside its alphabet")

    def __len__(self) -> int:
        return len(self.data)

    def __str__(self) -> str:
        return self.alphabet.render(self.data)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def tokens(self) -> tuple[str, ...]:
        return tuple(map(self.alphabet.render, self.data))

    def sub(self, i: int, j: int) -> Word:
        """The subword at 1-based inclusive positions ``[i, j]``."""
        if not (1 <= i <= j <= len(self.data)):
            raise ValueError(f"invalid subword range [{i},{j}] of length {len(self)}")
        return Word(self.alphabet, self.data[i - 1 : j])


def _require_same_alphabet(a: Word, b: Word) -> None:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("words use different alphabets")


def occurrences(haystack: Word, needle: Word) -> tuple[int, list[int]]:
    """Count occurrences of ``needle`` in ``haystack``, overlaps included.

    Returns ``(count, positions)`` with 1-based start positions in
    ascending order.
    """
    _require_same_alphabet(haystack, needle)
    positions: list[int] = []
    start = haystack.data.find(needle.data)
    while start != -1:
        positions.append(start + 1)
        start = haystack.data.find(needle.data, start + 1)
    return len(positions), positions


def shift_match(w: Word, q: int) -> bool:
    """Whether the length ``n-q`` suffix of ``w`` equals its prefix.

    This is the self-overlap equation that makes the periodic power of
    ``w`` with step ``q`` (``w`` starting at positions ``1, q+1, ...``)
    well defined.  Requires ``1 <= q < n``.
    """
    n = len(w)
    if not 1 <= q < n:
        return False
    return w.data[q:] == w.data[: n - q]


def periodic_stretch(w: Word, q: int, lo: int, hi: int) -> str:
    """Code string at 1-based positions ``lo..hi`` of the two-sided
    periodic extension of ``w[:q]`` (position 1 is ``w``'s first letter,
    positions ``<= 0`` extend it to the left).  It checks nothing."""
    start = (lo - 1) % q
    stop = start + hi - lo + 1
    return (w.data[:q] * (stop // q + 1))[start:stop]


@dataclass(frozen=True)
class StepCertificate:
    """A step ``q`` of ``word`` whose doubled power is a factor."""

    word: Word
    q: int


def valid_steps(w: Word, oracle: "LanguageOracle") -> list[StepCertificate]:
    """All steps ``q`` in ``[1, n//2]`` whose doubled power is a factor."""
    # callers mostly pass the oracle's own alphabet: skip the comparison then
    if w.alphabet is not oracle.alphabet and w.alphabet != oracle.alphabet:
        raise AlphabetMismatch("word and oracle use different alphabets")
    oracle.require_length(len(w) + len(w) // 2, "deciding steps")
    return _step_scan(w, oracle)


def _step_scan(w: Word, oracle: "LanguageOracle") -> list[StepCertificate]:
    """The valid steps of ``w``, ascending, unchecked: the caller has matched
    the alphabets and asked for length ``n + n//2``, the longest read."""
    d = w.data
    n = len(d)
    out = []
    for q in range(1, n // 2 + 1):
        if d[q:] != d[: n - q]:
            continue
        # the doubled power, w starting at positions 1 and q + 1
        if periodic_stretch(w, q, 1, n + q) in oracle.source.level(n + q):
            out.append(StepCertificate(w, q))
    return out


def minimal_step(w: Word, oracle: "LanguageOracle") -> int | None:
    """Least valid step of ``w``, or ``None`` when no step is valid.

    It divides every valid step: the gcd of two valid steps is again valid
    (a period of ``w`` by Fine and Wilf, and its doubled power is a prefix
    of theirs, so a factor).  Memoized per code string and oracle, after
    the alphabet and horizon checks, which run once per call."""
    if w.alphabet is not oracle.alphabet and w.alphabet != oracle.alphabet:
        raise AlphabetMismatch("word and oracle use different alphabets")
    oracle.require_length(len(w) + len(w) // 2, "deciding steps")
    return oracle.derived(
        ("minimal step", w.data),
        lambda: next((c.q for c in _step_scan(w, oracle)), None),
    )
