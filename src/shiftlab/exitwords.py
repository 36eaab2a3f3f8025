"""Exit words: the minimal contexts in which a sequence enters the
periodic circuit of a word, circles it, and leaves.

An exit word for ``w`` with step ``q`` decomposes as ``p + power + s``
where the interior is a stretch of the two-sided periodic extension of
``w`` and the first letter of ``p`` and last letter of ``s`` each break
the periodicity; enumeration builds each word from such layouts and
records them as its decompositions.  With ``q`` minimal the decomposition
is unique and the number of occurrences of ``w`` in the exit word equals
the repetition count.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import ceil
from typing import Iterator, NamedTuple

from .errors import HorizonExceeded, PreconditionFailure
from .generators import SequencePrefix
from .language import LanguageOracle, check_rbc, growth_profile
from .words import (
    Word,
    minimal_step,
    occurrences,
    periodic_stretch,
    shift_match,
)


@dataclass(frozen=True)
class Representation:
    """One way to write an exit word as prefix + periodic power + suffix."""

    p: Word
    r: int
    s: Word

    def as_tuple(self) -> tuple[str, int, str]:
        return str(self.p), self.r, str(self.s)

    def to_json(self) -> dict:
        return {"p": str(self.p), "r": self.r, "s": str(self.s)}


@dataclass(frozen=True)
class ExitWord:
    """An exit word with all of its decompositions for one step value.

    ``canonical`` marks the step as the minimal step of the base word, in
    which case the decomposition list has exactly one entry.
    """

    z: Word
    base: Word
    q: int
    representations: tuple[Representation, ...]
    canonical: bool

    def to_json(self) -> dict:
        return {
            "z": str(self.z),
            "w": str(self.base),
            "q": self.q,
            "canonical": self.canonical,
            "representations": [rep.to_json() for rep in self.representations],
        }


def _representation(z: Word, n: int, q: int, p_len: int, r: int) -> Representation:
    """``z`` as a ``p_len``-letter prefix, ``r`` repetitions and a suffix."""
    return Representation(z.sub(1, p_len), r, z.sub(p_len + n + (r - 1) * q + 1, len(z)))


def _layouts(w: Word, q: int, size: int) -> Iterator[tuple[int, int, str]]:
    """Every layout of a ``size``-letter exit word of ``w`` with step ``q``:
    ``(p_len, r, ext)`` for each prefix length ``p_len`` in ``1..min(q,
    size - n - 1)``, with the repetition count ``r`` that leaves a suffix
    of 1..q letters, and ``ext``, the periodic extension at the word's
    ``size`` positions when ``w`` starts at position ``p_len + 1``.  A
    word has the layout iff it agrees with ``ext`` inside and differs
    from it at both ends."""
    n = len(w)
    for p_len in range(1, min(q, size - n - 1) + 1):
        r = (size - p_len - n - 1) // q + 1
        yield p_len, r, periodic_stretch(w, q, 1 - p_len, size - p_len)


def decompose(
    z: Word, w: Word, q: int, oracle: LanguageOracle | None = None
) -> list[Representation]:
    """All decompositions of ``z`` as an exit word of ``w`` with step ``q``,
    by prefix length: the layouts of ``len(z)`` letters that ``z`` meets.

    When the interior has a period shorter than ``q`` the power grid can
    slide, so several decompositions may coexist; with ``q`` equal to the
    minimal step of ``w`` exactly one survives, and the occurrence count
    of ``w`` in ``z`` equals its repetition count (a second decomposition
    or an occurrence off the grid would make a smaller step valid).
    ``oracle`` is unused; it stays in the signature for positional
    callers until the benchmark stops passing it.
    """
    if not shift_match(w, q):
        raise PreconditionFailure(f"q={q} is not a step for {w}")
    d = z.data
    return [
        _representation(z, len(w), q, p_len, r)
        for p_len, r, ext in _layouts(w, q, len(d))
        if d[1:-1] == ext[1:-1] and d[0] != ext[0] and d[-1] != ext[-1]
    ]


@dataclass(frozen=True)
class EnumerationReport:
    """Exit words of one (word, step) pair up to a length cap."""

    base: Word
    q: int
    cap: int
    exit_words: tuple[ExitWord, ...]
    partial: bool
    count_limit: int | None  # 2K^2 when the branching constant is known
    within_limit: bool | None

    def to_json(self) -> dict:
        return {
            "w": str(self.base),
            "q": self.q,
            "cap": self.cap,
            "partial": self.partial,
            "count": len(self.exit_words),
            "count_limit": self.count_limit,
            "within_limit": self.within_limit,
            "exit_words": [z.to_json() for z in self.exit_words],
        }


def enumerate_exit_words(
    w: Word, q: int, oracle: LanguageOracle, cap: int | None = None
) -> EnumerationReport:
    """All exit words of ``w`` with step ``q`` of length at most the cap
    (the oracle horizon by default).

    Candidates are generated from the circuit structure: an exit word is
    pinned down by its length, where it enters the periodic circuit
    (prefix length plus breaking letter) and the letter it leaves by;
    only language membership of the assembled word remains to be
    filtered, one level read per length.  The layouts that build ``z``
    are exactly its decompositions, in :func:`decompose`'s order.
    """
    n = len(w)
    if not shift_match(w, q):
        raise PreconditionFailure(f"q={q} is not a step for {w}")
    if not oracle.contains(w):
        raise PreconditionFailure(f"{w} is not a factor")
    cap = oracle.horizon if cap is None else min(cap, oracle.horizon)
    codes = oracle.alphabet.codes
    layouts: dict[str, list[tuple[int, int]]] = {}  # z data -> [(p_len, r)]
    for size in range(n + 2, cap + 1):
        factors = oracle.factor_strings(size)
        for p_len, r, ext in _layouts(w, q, size):
            inner = ext[1:-1]
            for a in codes:
                if a == ext[0]:
                    continue
                for b in codes:
                    if b != ext[-1] and (data := a + inner + b) in factors:
                        layouts.setdefault(data, []).append((p_len, r))
    q_min = minimal_step(w, oracle)
    exit_words = []
    for data in sorted(layouts, key=lambda d: (len(d), d)):
        z = Word(w.alphabet, data)
        reps = tuple(_representation(z, n, q, p, r) for p, r in layouts[data])
        exit_words.append(ExitWord(z, w, q, reps, canonical=(q == q_min)))
    limit = within = None
    profile = growth_profile(oracle)
    if profile.K is not None and oracle.horizon >= 4:
        if check_rbc(oracle, n_min=1).holds_within_horizon:
            limit = 2 * profile.K * profile.K
            within = len(exit_words) <= limit
    # partial: an exit word was found, whether or not the cap cut a series
    return EnumerationReport(
        w, q, cap, tuple(exit_words), bool(exit_words), limit, within
    )


# -- occurrence classification --------------------------------------------


@dataclass(frozen=True)
class OccurrenceClassification:
    """How one occurrence of a word sits inside a sequence: either the
    whole prefix up to it is a tail of the periodic power, or a unique
    exit word encloses it."""

    position: int
    case: str  # "suffix-of-power" | "inside-exit-word"
    r: int | None = None  # for the power case
    exit_word: ExitWord | None = None
    exit_start: int | None = None  # 1-based start of the exit word in x

    @property
    def exit_end(self) -> int | None:
        if self.exit_word is None or self.exit_start is None:
            return None
        return self.exit_start + len(self.exit_word.z) - 1


def classify_occurrence(
    x: SequencePrefix, w: Word, j: int, oracle: LanguageOracle
) -> OccurrenceClassification:
    """Classify the occurrence of ``w`` at position ``j`` of ``x``.

    Needs the minimal step of ``w`` to exist and enough sequence on both
    sides of ``j`` to find the periodicity breaks; running off either end
    raises (insufficient context, including the eventually periodic case).
    A ``j`` outside ``1 .. len(x) - len(w) + 1`` is refused.
    """
    if x.alphabet != w.alphabet:
        raise PreconditionFailure("sequence and word alphabets differ")
    if j < 1 or not x.data.startswith(w.data, j - 1):
        raise PreconditionFailure(f"{w} does not occur at position {j}")
    q = minimal_step(w, oracle)
    if q is None:
        raise PreconditionFailure(f"{w} has no valid step")
    j1, j2 = _classify_run(x, w, q, j)
    if j1 == 1:
        return OccurrenceClassification(j, "suffix-of-power", r=ceil((j - 1) / q) + 1)
    n = len(w)
    z = Word(w.alphabet, x.data[j1 - 2 : j2 + n])
    r = (j2 - j) // q + (j - j1) // q + 1
    rep = _representation(z, n, q, (j - j1) % q + 1, r)
    exit_word = ExitWord(z, w, q, (rep,), canonical=True)
    return OccurrenceClassification(
        j, "inside-exit-word", exit_word=exit_word, exit_start=j1 - 1
    )


def _classify_run(x: SequencePrefix, w: Word, q: int, j: int) -> tuple[int, int]:
    """The run around the occurrence of ``w`` at ``j`` with minimal step
    ``q``: the longest stretch of ``x`` with period ``q`` that holds it.

    Returns ``(j1, j2)``: the run starts at ``j1``, and ``j2`` is the
    largest ``k`` with ``x[j .. k+n-1]`` inside it.  With ``j1 == 1`` the
    run is a suffix of the power, wherever it ends.  Otherwise the letters
    just outside the run break the periodicity, so with them it is the
    enclosing exit word ``x[j1 - 1 .. j2 + n]``.  A run with ``j1 > 1``
    reaching the end of the prefix raises :class:`HorizonExceeded`.  The
    walk reads only the run, cheaper for one occurrence than the scan of
    the whole prefix by which :func:`check_overlap_bound` finds every run.
    """
    n = len(w)
    data = x.data
    N = len(data)
    # extend the run leftward; the letter compared lies inside the run,
    # since q <= n/2
    j1 = j
    while j1 > 1 and data[j1 - 2] == data[j1 - 2 + q]:
        j1 -= 1
    # extend rightward: find the first break after the occurrence
    t = j + n  # next position to test, 1-based
    while t <= N and data[t - 1] == data[t - 1 - q]:
        t += 1
    if t > N and j1 > 1:
        raise HorizonExceeded(
            f"periodic match from position {j} runs to the end of the "
            "prefix; cannot resolve the enclosing exit word"
        )
    return j1, t - n


class OverlapRecord(NamedTuple):
    first_start: int
    second_start: int
    first_length: int
    gap_ok: bool  # second >= first + |z| - n
    count_in_union: int
    count_required: int
    count_ok: bool


@dataclass(frozen=True)
class OverlapReport:
    base: Word
    q: int
    pairs: tuple[OverlapRecord, ...]
    all_satisfied: bool
    skipped_positions: tuple[int, ...]


def check_overlap_bound(
    x: SequencePrefix, w: Word, q: int, oracle: LanguageOracle
) -> OverlapReport:
    """Scan a sequence for consecutive exit-word occurrences and verify
    the separation and occurrence-count bounds between neighbours.

    Each maximal run of period ``q`` that can hold ``w`` is a run
    ``[a, b)`` of at least ``n - q`` zero bytes in ``d``, where ``d[i]`` is
    ``x[i] ^ x[i + q]`` (0-based); it spans ``x[a + 1 .. b + q]``.  The runs
    come in ascending order, and each gives at most one exit word: none
    when it holds no occurrence or starts at position 1, a skip of its
    starts when it starts later and reaches the end of the prefix.  Each
    exit word is kept as its start, length and repetition count.  This
    one scan finds every run; :func:`classify_occurrence`, for one
    occurrence, keeps the local walk of :func:`_classify_run`.  The bounds
    hold for every sequence, so a violation record would falsify the
    implementation, not the input.
    """
    q_min = minimal_step(w, oracle)
    if q_min != q:
        raise PreconditionFailure(f"q={q} is not the minimal step ({q_min})")
    n = len(w)
    data = x.data
    N = len(data)
    _, starts = occurrences(x, w)
    raw = data.encode("ascii")
    m = max(N - q, 0)
    d = (int.from_bytes(raw[:m], "big") ^ int.from_bytes(raw[q:], "big")).to_bytes(m, "big")
    exits = []  # (exit start, |z|, r), ascending
    skipped: tuple[int, ...] = ()
    # No grid test: every start in a run has the run's j1 and j2, so the
    # first start j stands for all.  No left part ``(j - j1) // q`` in r: j lies
    # < q letters after j1, or the run would hold w q letters earlier.
    for run in re.finditer(b"\0{%d,}" % (n - q), d):
        a, b = run.span()
        j = data.find(w.data, a, b + q) + 1
        if a == 0 or not j:  # a suffix of the power, or no occurrence
            continue
        j1, j2 = a + 1, b + q + 1 - n
        if b + q == N:
            skipped = tuple(starts[bisect_left(starts, j) :])
        else:
            exits.append((j1 - 1, j2 + n - j1 + 2, (j2 - j) // q + 1))
    pairs = []
    ok = True
    for (i, z1_len, r1), (i2, z2_len, r2) in zip(exits, exits[1:]):
        gap_ok = i2 >= i + z1_len - n
        # occurrences of w inside the union x[i .. end]
        end = i2 + z2_len - 1
        count = bisect_right(starts, end - n + 1) - bisect_left(starts, i)
        required = r1 + r2
        count_ok = count >= required
        ok = ok and gap_ok and count_ok
        pairs.append(
            OverlapRecord(i, i2, z1_len, gap_ok, count, required, count_ok)
        )
    return OverlapReport(w, q, tuple(pairs), ok, skipped)
