"""Block densities at finite horizon, the special-word density floor,
the special-word window check, and the threshold coloring estimator.

The limiting upper density of a word along a sequence is approximated by
the maximum of the running block averages over the second half of the
available blocks; every report states the block count it used and never
claims more than that.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from operator import itemgetter, sub
from typing import Mapping, Sequence

from .errors import AlphabetMismatch, PreconditionFailure
from .generators import SequencePrefix
from .language import SIDES, LanguageOracle, Side, growth_profile, periodicity_check
from .words import Word, _require_same_alphabet, occurrences


def block_count(x: SequencePrefix, n: int, K: int) -> int:
    """Number of complete blocks of ``(K+1)n`` start positions whose
    windows fit inside the prefix."""
    return (len(x) - n + 1) // ((K + 1) * n)


@dataclass(frozen=True)
class BlockDensity:
    """Block-hit counts of one word along one sequence.

    ``estimate`` is the declared finite surrogate for the limiting upper
    density: the maximum running average over the tail half of the
    blocks.
    """

    word: Word
    K: int
    blocks: int
    hits: tuple[int, ...]  # cumulative hit counts S_1..S_N

    @property
    def averages(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(s, i + 1) for i, s in enumerate(self.hits))

    @property
    def estimate(self) -> Fraction:
        # the largest S_i / (i + 1) over the tail, by integer cross-multiplication
        hits = self.hits
        best = (self.blocks + 1) // 2 - 1
        for i in range(best + 1, len(hits)):
            if hits[i] * (best + 1) > hits[best] * (i + 1):
                best = i
        return Fraction(hits[best], best + 1)

    def to_json(self) -> dict:
        return {
            "word": str(self.word),
            "K": self.K,
            "blocks": self.blocks,
            "series": [float(a) for a in self.averages],
            "estimate": float(self.estimate),
        }


def density_estimate(w: Word, x: SequencePrefix, K: int) -> BlockDensity:
    """Block hits of ``w``: one search per hit block, resumed at the start
    of the next block."""
    n = len(w)
    N = block_count(x, n, K)
    if N < 4:
        raise PreconditionFailure(
            f"prefix too short: only {N} complete blocks, need at least 4"
        )
    _require_same_alphabet(x, w)
    size = (K + 1) * n
    data, needle = x.data, w.data
    flags = [0] * N
    k = data.find(needle)  # 0-based, so block k // size
    while 0 <= k < N * size:
        j = k // size
        flags[j] = 1
        k = data.find(needle, (j + 1) * size)
    return BlockDensity(w, K, N, tuple(accumulate(flags)))


# -- special-word density floor ---------------------------------------------


@dataclass(frozen=True)
class FloorReport:
    """Maximum block-density estimate over one side's special words."""

    n: int
    side: Side
    K: int
    best_word: Word
    best: Fraction
    floor: Fraction
    tolerance: float
    passed: bool
    table: tuple[tuple[str, float], ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "side": self.side,
            "K": self.K,
            "best_word": str(self.best_word),
            "estimate": float(self.best),
            "floor": float(self.floor),
            "tolerance": self.tolerance,
            "pass": self.passed,
            "table": [{"word": w, "estimate": e} for w, e in self.table],
        }


def special_density_floor(
    oracle: LanguageOracle,
    x: SequencePrefix,
    n: int,
    side: Side,
    K: int,
    tolerance: float = 0.05,
) -> FloorReport:
    """Check that some side-special word of length ``n`` has block
    density estimate at least ``1/K`` (minus the stated tolerance)."""
    if x.alphabet != oracle.alphabet:
        raise AlphabetMismatch("sequence and oracle use different alphabets")
    if n < 1:
        raise ValueError("length must be >= 1")
    if periodicity_check(oracle).periodic_within_horizon:
        raise PreconditionFailure(
            "periodic language: the branching constant is undefined"
        )
    profile = growth_profile(oracle)
    if profile.K != K or not profile.constant_at(n):
        raise PreconditionFailure(
            f"growth is not constant {K} at length {n} "
            f"(profile: {profile.verdict})"
        )
    # asked before the blocks are counted, so that a length past the
    # horizon is refused as such whatever the prefix length
    specials = sorted(oracle.special_strings(n, side))
    if block_count(x, n, K) < 32:
        raise PreconditionFailure("prefix too short: need at least 32 blocks")
    if not specials:
        raise PreconditionFailure(f"no {side} special words of length {n}")
    words = [Word(oracle.alphabet, data) for data in specials]
    rows = [(w, density_estimate(w, x, K).estimate) for w in words]
    # the first word of highest estimate, in code order
    best_word, best = max(rows, key=itemgetter(1))
    table = tuple((str(w), float(est)) for w, est in rows)
    floor = Fraction(1, K)
    passed = best >= floor - Fraction(tolerance).limit_denominator(10**6)
    return FloorReport(n, side, K, best_word, best, floor, tolerance, passed, table)


@dataclass(frozen=True)
class WindowCheckReport:
    """Exact sliding-window check: every window of ``(K+2)n - 1`` letters
    contains a special word of length ``n`` on both sides."""

    n: int
    K: int
    windows: int
    ok: bool
    first_failure: tuple[Side, int] | None


def special_window_check(
    oracle: LanguageOracle, x: SequencePrefix, n: int, K: int
) -> WindowCheckReport:
    """Window ``j`` holds the words starting at ``j .. j + (K+1)n - 1``, so
    a gap longer than ``(K+1)n`` after a special start ``s`` (or after 0)
    means window ``s + 1`` fails.

    Each side is first cut with one ``re.split`` on its special words
    (codes are alphanumeric, so the words are literal, all of length n).
    The cuts are the leftmost non-overlapping matches.  Each is a start,
    and every other start lies inside one, since the scan resumes at a
    match's end and takes the leftmost start there.  So a gap between
    starts is under n <= (K+1)n, or at most the gap between neighbouring
    matches (the piece between them plus n), counting the sentinels 0 and
    one past the last window's last start.  A side whose match gaps all
    fit a window passes; only otherwise are its starts listed and every
    gap read.
    """
    if x.alphabet != oracle.alphabet:
        raise AlphabetMismatch("sequence and oracle use different alphabets")
    width = (K + 2) * n - 1
    total = len(x) - width + 1
    if total < 1:
        raise PreconditionFailure("prefix shorter than one window")
    span = (K + 1) * n  # a window covers this many start positions
    end = total + span  # one past the last window's last start
    data = x.data
    for side in SIDES:
        specials = oracle.special_strings(n, side)
        if specials:
            pieces = re.split("|".join(specials), data)
            last = len(data) - len(pieces[-1]) - n + 1  # the last match, 1-based
            # a recurrent prefix repeats few pieces, and a set of them is
            # built faster than len is called on each
            bound = max(
                len(pieces[0]) + 1,
                n + max(map(len, set(pieces[1:-1])), default=0),
                end - last,
            )
            if bound <= span:
                continue
        starts = sorted(
            chain.from_iterable(
                occurrences(x, Word(oracle.alphabet, d))[1] for d in specials
            )
        )
        bounds = [0, *starts, end]
        if max(map(sub, bounds[1:], bounds)) > span:
            prev = next(a for a, b in zip(bounds, bounds[1:]) if b - a > span)
            return WindowCheckReport(n, K, total, False, (side, prev + 1))
    return WindowCheckReport(n, K, total, True, None)


# -- threshold coloring -------------------------------------------------------


@dataclass(frozen=True)
class ColorEstimate:
    """Thresholded color assignment for a ladder of vertex words.

    ``color`` is a candidate label, 0 when no candidate clears the
    threshold, or "ambiguous" when several do (expected to vanish as the
    horizon grows; reported, never resolved here).
    """

    estimates: tuple[tuple[str, float], ...]
    threshold: float
    color: str | int

    def to_json(self) -> dict:
        return {
            "estimates": [
                {"candidate": lbl, "estimate": e} for lbl, e in self.estimates
            ],
            "threshold": self.threshold,
            "color": self.color,
        }


def color_estimate(
    ladder: Sequence[Word],
    candidates: Mapping[str, SequencePrefix],
    K: int,
    threshold: float | None = None,
) -> ColorEstimate:
    """Assign to a vertex ladder the unique candidate sequence in which
    its tail densities clear the threshold."""
    if not ladder:
        raise PreconditionFailure("ladder must be nonempty")
    if threshold is None:
        threshold = 1.0 / (4 * K)
    if not 0 < threshold < 1.0 / (2 * K):
        raise PreconditionFailure(
            f"threshold {threshold} outside (0, 1/(2K)) for K={K}"
        )
    tail = list(ladder)[(len(ladder) - 1) // 2 :]
    rows = []
    cleared = []
    for label in sorted(candidates):
        x = candidates[label]
        vals = []
        for w in tail:
            try:
                vals.append(float(density_estimate(w, x, K).estimate))
            except PreconditionFailure:
                continue
        est = max(vals) if vals else 0.0
        rows.append((label, est))
        if est >= threshold:
            cleared.append(label)
    if not cleared:
        color: str | int = 0
    elif len(cleared) == 1:
        color = cleared[0]
    else:
        color = "ambiguous"
    return ColorEstimate(tuple(rows), threshold, color)
