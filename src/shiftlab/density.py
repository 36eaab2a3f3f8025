"""Block densities at finite horizon, the special-word density floor,
density inequality diagnostics, and the threshold coloring estimator.

The limiting upper density of a word along a sequence is approximated by
the maximum of the running block averages over the second half of the
available blocks; every report states the block count it used and never
claims more than that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import PreconditionFailure
from .generators import SequencePrefix
from .language import SIDES, LanguageOracle, Side, growth_profile, periodicity_check
from .words import Word, minimal_step, occurrences


def block_count(x: SequencePrefix, n: int, K: int) -> int:
    """Number of complete blocks of ``(K+1)n`` start positions whose
    windows fit inside the prefix."""
    return (len(x) - n + 1) // ((K + 1) * n)


@dataclass(frozen=True)
class ReturnGaps:
    """Gap statistics between consecutive occurrences of a word.

    A finite diagnostic for recurrence: bounded maxima across all factors
    of a length are evidence (never proof) of uniform recurrence.
    """

    word: Word
    occurrences: int
    min_gap: int | None
    max_gap: int | None
    mean_gap: float | None


def return_gaps(x: SequencePrefix, w: Word) -> ReturnGaps:
    starts = occurrences(x, w)[1]
    if len(starts) < 2:
        return ReturnGaps(w, len(starts), None, None, None)
    gaps = [b - a for a, b in zip(starts, starts[1:])]
    return ReturnGaps(
        w, len(starts), min(gaps), max(gaps), sum(gaps) / len(gaps)
    )


def block_indicator(w: Word, x: SequencePrefix, j: int, K: int) -> int:
    """1 when ``w`` starts somewhere in the j-th block of ``(K+1)|w|``
    positions, else 0."""
    n = len(w)
    if not 1 <= j <= block_count(x, n, K):
        raise PreconditionFailure(
            f"block {j} out of range; prefix supports {block_count(x, n, K)}"
        )
    size = (K + 1) * n
    lo, hi = (j - 1) * size, j * size  # starts k with lo < k <= hi
    seg = x.data[lo : hi + n - 1]
    return 1 if seg.find(w.data) != -1 else 0


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
    n = len(w)
    N = block_count(x, n, K)
    if N < 4:
        raise PreconditionFailure(
            f"prefix too short: only {N} complete blocks, need at least 4"
        )
    size = (K + 1) * n
    flags = [0] * N
    for k in occurrences(x, w)[1]:
        j = (k - 1) // size  # 0-based block of start k ((j)(size) < k <= (j+1)(size))
        if j < N:
            flags[j] = 1
    hits = []
    acc = 0
    for f in flags:
        acc += f
        hits.append(acc)
    return BlockDensity(w, K, N, tuple(hits))


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
    per = periodicity_check(oracle)
    if per.periodic_within_horizon:
        raise PreconditionFailure(
            "periodic language: the branching constant is undefined"
        )
    profile = growth_profile(oracle)
    if profile.K != K or not profile.constant_at(n):
        raise PreconditionFailure(
            f"growth is not constant {K} at length {n} "
            f"(profile: {profile.verdict})"
        )
    if block_count(x, n, K) < 32:
        raise PreconditionFailure("prefix too short: need at least 32 blocks")
    specials = sorted(oracle.special_strings(n, side))
    if not specials:
        raise PreconditionFailure(f"no {side} special words of length {n}")
    best_word = None
    best = Fraction(-1)
    table = []
    for data in specials:
        w = Word(oracle.alphabet, data)
        est = density_estimate(w, x, K).estimate
        table.append((str(w), float(est)))
        if est > best:
            best, best_word = est, w
    floor = Fraction(1, K)
    passed = best >= floor - Fraction(tolerance).limit_denominator(10**6)
    assert best_word is not None
    return FloorReport(n, side, K, best_word, best, floor, tolerance, passed, tuple(table))


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
    means window ``s + 1`` fails."""
    width = (K + 2) * n - 1
    total = len(x) - width + 1
    if total < 1:
        raise PreconditionFailure("prefix shorter than one window")
    span = (K + 1) * n  # a window covers this many start positions
    for side in SIDES:
        starts = sorted(
            k
            for d in oracle.special_strings(n, side)
            for k in occurrences(x, Word(oracle.alphabet, d))[1]
        )
        prev = 0
        # the end sentinel is one past the last window's last start
        for k in starts + [total + span]:
            if k - prev > span:
                return WindowCheckReport(n, K, total, False, (side, prev + 1))
            prev = k
    return WindowCheckReport(n, K, total, True, None)


# -- inequality diagnostics ---------------------------------------------------


@dataclass(frozen=True)
class CaseReport:
    name: str
    hypothesis_ok: bool
    witness: str | None
    lhs: float | None
    rhs: float | None
    margin: float | None
    note: str

    def to_json(self) -> dict:
        return {
            "case": self.name,
            "hypothesis_ok": self.hypothesis_ok,
            "witness": self.witness,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "note": self.note,
        }


def _finite_note(ok: bool) -> str:
    return "ok" if ok else "finite-size artifact -- rerun with a longer prefix"


def subword_density_case(
    x: SequencePrefix, w: Word, w_sub: Word, K: int
) -> CaseReport:
    """A subword's density is at least ``|w'|/(2|w|)`` times the word's."""
    count, _ = occurrences(w, w_sub)
    if count == 0:
        return CaseReport(
            "subword-density", False, f"{w_sub} not a subword of {w}",
            None, None, None, "hypothesis rejected",
        )
    lhs = density_estimate(w_sub, x, K).estimate
    rhs = Fraction(len(w_sub), 2 * len(w)) * density_estimate(w, x, K).estimate
    ok = lhs >= rhs
    return CaseReport(
        "subword-density", True, None, float(lhs), float(rhs),
        float(lhs - rhs), _finite_note(ok),
    )


def interleaving_density_case(
    x: SequencePrefix, w: Word, between: Sequence[Word], K: int
) -> CaseReport:
    """If some member of ``between`` starts between any two occurrences
    of ``w``, then some member has density at least
    ``1/(p (1 + 3n/m))`` times the density of ``w``.

    The hypothesis is verified exactly on the prefix (consecutive
    occurrences suffice) before the bound is evaluated.
    """
    if not between:
        raise PreconditionFailure("need at least one interleaving word")
    m = len(between[0])
    if any(len(b) != m for b in between):
        raise PreconditionFailure("interleaving words must share one length")
    n = len(w)
    starts = occurrences(x, w)[1]
    b_starts = sorted(
        k for b in between for k in occurrences(x, b)[1]
    )
    import bisect

    for j, j2 in zip(starts, starts[1:]):
        i = bisect.bisect_left(b_starts, j)
        if i >= len(b_starts) or b_starts[i] >= j2:
            return CaseReport(
                "interleaving-density", False,
                f"no interleaving word starts in [{j},{j2})",
                None, None, None, "hypothesis rejected",
            )
    p = len(between)
    coeff = Fraction(1, p) / (1 + Fraction(3 * n, m))
    rhs = coeff * density_estimate(w, x, K).estimate
    lhs = max(density_estimate(b, x, K).estimate for b in between)
    ok = lhs >= rhs
    return CaseReport(
        "interleaving-density", True, None, float(lhs), float(rhs),
        float(lhs - rhs), _finite_note(ok),
    )


def exit_density_case(
    x: SequencePrefix,
    w: Word,
    exit_words: Sequence[Word],
    K: int,
    oracle: LanguageOracle,
) -> CaseReport:
    """Mutual density bounds between a word and its exit words: the word
    dominates each exit word up to ``1/(3K+9)``, and some exit word
    carries at least ``1/((2K+3)|X|)`` of the word's density."""
    if not exit_words:
        raise PreconditionFailure("need a nonempty exit word family")
    q = minimal_step(w, oracle)
    if q is None:
        raise PreconditionFailure(f"{w} has no valid step")
    d_w = density_estimate(w, x, K).estimate
    d_zs = [density_estimate(z, x, K).estimate for z in exit_words]
    first_ok = all(d_w >= Fraction(1, 3 * K + 9) * dz for dz in d_zs)
    second_rhs = Fraction(1, (2 * K + 3) * len(exit_words)) * d_w
    second_ok = max(d_zs) >= second_rhs
    ok = first_ok and second_ok
    return CaseReport(
        "exit-word-density", True, None, float(max(d_zs)), float(second_rhs),
        float(max(d_zs) - second_rhs),
        _finite_note(ok),
    )


def inequality_diagnostics(
    x: SequencePrefix, cases: Sequence[tuple], K: int
) -> list[CaseReport]:
    """Run a batch of density-inequality cases.

    Each case is a tagged tuple: ``("subword", w, w_sub)``,
    ``("interleaving", w, between)`` or ``("exit", w, exit_words, oracle)``.
    Hypotheses are verified exactly before any bound is evaluated;
    shortfalls on verified hypotheses are labeled as finite-size
    artifacts, since the bounds constrain limits the prefix only samples.
    """
    out = []
    for case in cases:
        tag = case[0]
        if tag == "subword":
            out.append(subword_density_case(x, case[1], case[2], K))
        elif tag == "interleaving":
            out.append(interleaving_density_case(x, case[1], case[2], K))
        elif tag == "exit":
            out.append(exit_density_case(x, case[1], case[2], K, case[3]))
        else:
            raise PreconditionFailure(f"unknown diagnostic case {tag!r}")
    return out


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
